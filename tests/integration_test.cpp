/// Cross-module integration tests: tradeoff sweeps, QASM round trips
/// of transformed circuits, and end-to-end fidelity smoke checks.
#include <gtest/gtest.h>

#include "apps/benchmarks.h"
#include "apps/qaoa.h"
#include "arch/backend.h"
#include "core/qs_caqr.h"
#include "core/sr_caqr.h"
#include "core/tradeoff.h"
#include "graph/generators.h"
#include "qasm/parser.h"
#include "transpile/transpiler.h"
#include "qasm/printer.h"
#include "sim/noise_model.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/stats.h"

namespace caqr {
namespace {

TEST(Tradeoff, RegularSweepShape)
{
    const auto backend = arch::Backend::fake_mumbai();
    const auto points =
        core::explore_tradeoff(apps::bv_circuit(8), &backend);
    ASSERT_GE(points.size(), 2u);
    // Qubits strictly decrease along the sweep; logical depth is
    // non-decreasing.
    for (std::size_t i = 1; i < points.size(); ++i) {
        EXPECT_EQ(points[i].qubits, points[i - 1].qubits - 1);
        EXPECT_GE(points[i].logical_depth, points[0].logical_depth - 1);
    }
    EXPECT_EQ(points.back().qubits, 2);
    for (const auto& point : points) {
        EXPECT_GT(point.compiled_depth, 0);
        EXPECT_GT(point.compiled_duration_dt, 0.0);
        EXPECT_GE(point.swaps, 0);
    }
}

TEST(Tradeoff, LogicalOnlySweepSkipsCompilation)
{
    const auto points =
        core::explore_tradeoff(apps::bv_circuit(6), nullptr);
    for (const auto& point : points) {
        EXPECT_EQ(point.compiled_depth, 0);
        EXPECT_EQ(point.swaps, 0);
        EXPECT_GT(point.logical_depth, 0);
    }
}

TEST(Tradeoff, CommutingSweepReachesDeepSavings)
{
    util::Rng rng(11);
    core::CommutingSpec spec;
    spec.interaction = graph::power_law_graph(16, 0.3, rng);
    const auto points =
        core::explore_tradeoff_commuting(spec, nullptr);
    ASSERT_GE(points.size(), 3u);
    EXPECT_EQ(points.front().qubits, 16);
    // Paper Fig 14: QAOA saves at least half the qubits.
    EXPECT_LE(points.back().qubits, 8);
}

TEST(QasmIntegration, TransformedDynamicCircuitRoundTrips)
{
    const auto result = core::qs_caqr_or(apps::bv_circuit(6)).value();
    const auto reused = result.circuit(result.versions.size() - 1);
    const auto text = qasm::to_qasm(reused);
    const auto parsed = qasm::parse(text);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    // The reparsed dynamic circuit still solves BV.
    const auto counts =
        sim::simulate(*parsed.circuit, {.shots = 64, .seed = 71});
    ASSERT_EQ(counts.size(), 1u);
    EXPECT_EQ(counts.begin()->first, apps::bv_expected(6));
}

TEST(QasmIntegration, SrOutputRoundTrips)
{
    const auto backend = arch::Backend::fake_mumbai();
    const auto result = core::sr_caqr_or(apps::bv_circuit(5), backend).value();
    const auto parsed = qasm::parse(qasm::to_qasm(result.circuit));
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    EXPECT_EQ(parsed.circuit->size(), result.circuit.size());
}

TEST(Fidelity, ReuseImprovesNoisyBvTvd)
{
    // Table 3 smoke check: under the FakeMumbai noise model, the
    // SR-CaQR circuit's outcome distribution should sit closer to the
    // ideal one than the baseline transpile does.
    const auto backend = arch::Backend::fake_mumbai();
    const auto bv = apps::bv_circuit(8);

    const auto ideal = sim::exact_distribution(bv);
    const auto noise = sim::NoiseModel::from_backend(backend);

    const auto baseline = transpile::transpile_or(bv, backend).value();
    const auto baseline_counts = sim::simulate(
        baseline.circuit, {.shots = 3000, .seed = 81}, noise);
    std::map<std::string, double> baseline_dist;
    for (const auto& [key, count] : baseline_counts) {
        baseline_dist[key.substr(0, 8)] +=
            static_cast<double>(count);
    }

    const auto sr = core::sr_caqr_or(bv, backend).value();
    const auto sr_counts =
        sim::simulate(sr.circuit, {.shots = 3000, .seed = 81}, noise);
    std::map<std::string, double> sr_dist;
    for (const auto& [key, count] : sr_counts) {
        sr_dist[key.substr(0, 8)] += static_cast<double>(count);
    }

    std::map<std::string, double> ideal_dist(ideal.begin(), ideal.end());
    const double tvd_baseline =
        util::total_variation_distance(ideal_dist, baseline_dist);
    const double tvd_sr =
        util::total_variation_distance(ideal_dist, sr_dist);
    // Allow slack: the claim is "no worse, typically better".
    EXPECT_LE(tvd_sr, tvd_baseline + 0.05);
}

TEST(EndToEnd, QsThenBaselineMappingStaysCorrect)
{
    // QS-CaQR at the logical level, then the baseline mapper — the
    // paper's QS pipeline — still yields the right BV answer.
    const auto backend = arch::Backend::fake_mumbai();
    core::QsCaqrOptions options;
    options.target_qubits = 3;
    const auto qs = core::qs_caqr_or(apps::bv_circuit(6), options).value();
    ASSERT_TRUE(qs.reached_target);
    const auto mapped =
        transpile::transpile_or(qs.circuit(qs.versions.size() - 1), backend)
            .value();
    const auto counts =
        sim::simulate(mapped.circuit, {.shots = 64, .seed = 91});
    ASSERT_EQ(counts.size(), 1u);
    EXPECT_EQ(counts.begin()->first, apps::bv_expected(6));
}

TEST(EndToEnd, AdviceConsistentWithSweep)
{
    const auto circuit = apps::bv_circuit(7);
    const auto advice = core::advise_reuse(circuit);
    const auto sweep = core::qs_caqr_or(circuit).value();
    EXPECT_EQ(advice.min_qubits_estimate,
              sweep.versions.back().qubits);
    EXPECT_EQ(advice.any_opportunity, sweep.versions.size() > 1);
}

}  // namespace
}  // namespace caqr
