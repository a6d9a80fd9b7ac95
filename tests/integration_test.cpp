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
    const core::VersionSet versions(
        core::qs_caqr_or(apps::bv_circuit(8)).value());
    const auto mapped = core::map_versions(versions, backend).value();
    ASSERT_GE(versions.size(), 2u);
    ASSERT_EQ(mapped.size(), versions.size());
    // Qubits strictly decrease along the sweep; logical depth is
    // non-decreasing.
    for (std::size_t i = 1; i < versions.size(); ++i) {
        EXPECT_EQ(versions[i].qubits, versions[i - 1].qubits - 1);
        EXPECT_GE(versions[i].depth, versions[0].depth - 1);
    }
    EXPECT_EQ(versions.back().qubits, 2);
    for (const auto& version : mapped) {
        EXPECT_GT(version.depth, 0);
        EXPECT_GT(version.duration_dt, 0.0);
        EXPECT_GE(version.swaps_added, 0);
        EXPECT_GT(version.esp, 0.0);
    }
}

/// The version fan-out returns the same mappings at any thread count,
/// each equal to mapping that version alone.
TEST(Tradeoff, MapVersionsIsThreadCountIndependent)
{
    const auto backend = arch::Backend::fake_mumbai();
    const core::VersionSet versions(
        core::qs_caqr_or(apps::bv_circuit(8)).value());
    transpile::TranspileOptions serial;
    serial.num_threads = 1;
    transpile::TranspileOptions wide;
    wide.num_threads = 4;
    const auto a = core::map_versions(versions, backend, serial).value();
    const auto b = core::map_versions(versions, backend, wide).value();
    ASSERT_EQ(a.size(), versions.size());
    ASSERT_EQ(b.size(), versions.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        const auto alone =
            transpile::transpile_or(versions.circuit(i), backend, serial)
                .value();
        const auto text = qasm::to_qasm(alone.circuit);
        EXPECT_EQ(qasm::to_qasm(a[i].circuit), text) << i;
        EXPECT_EQ(qasm::to_qasm(b[i].circuit), text) << i;
        EXPECT_EQ(a[i].esp, b[i].esp) << i;
    }
    EXPECT_EQ(core::best_by_esp(a), core::best_by_esp(b));
}

TEST(Tradeoff, LogicalOnlySweepSkipsCompilation)
{
    const core::VersionSet versions(
        core::qs_caqr_or(apps::bv_circuit(6)).value());
    for (std::size_t i = 0; i < versions.size(); ++i) {
        EXPECT_GT(versions[i].depth, 0);
        EXPECT_EQ(versions[i].reuses, static_cast<int>(i));
        EXPECT_EQ(versions.circuit(i).active_qubit_count(),
                  versions[i].qubits);
    }
}

TEST(Tradeoff, CommutingSweepReachesDeepSavings)
{
    util::Rng rng(11);
    core::CommutingSpec spec;
    spec.interaction = graph::power_law_graph(16, 0.3, rng);
    const core::VersionSet versions(
        core::qs_caqr_commuting_or(spec).value());
    ASSERT_GE(versions.size(), 3u);
    EXPECT_EQ(versions[0].qubits, 16);
    // Paper Fig 14: QAOA saves at least half the qubits.
    EXPECT_LE(versions.back().qubits, 8);
    EXPECT_EQ(versions.circuit(versions.size() - 1).active_qubit_count(),
              versions.back().qubits);
}

/// A mapping failure reports the lowest failing version's status.
TEST(Tradeoff, MapVersionsReportsInfeasibleVersions)
{
    const auto backend = arch::Backend::fake_mumbai();  // 27 qubits
    const core::VersionSet versions(
        core::qs_caqr_or(apps::bv_circuit(40)).value());
    ASSERT_GT(versions[0].qubits, backend.num_qubits());
    const auto mapped = core::map_versions(versions, backend);
    ASSERT_FALSE(mapped.ok());
    EXPECT_EQ(mapped.status().code(), util::StatusCode::kInfeasible);
}

TEST(QasmIntegration, TransformedDynamicCircuitRoundTrips)
{
    const auto result = core::qs_caqr_or(apps::bv_circuit(6)).value();
    const auto reused = result.circuit(result.versions.size() - 1);
    const auto text = qasm::to_qasm(reused);
    const auto parsed = qasm::parse_circuit(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
    // The reparsed dynamic circuit still solves BV.
    const auto counts =
        sim::simulate(*parsed, {.shots = 64, .seed = 71});
    ASSERT_EQ(counts.size(), 1u);
    EXPECT_EQ(counts.begin()->first, apps::bv_expected(6));
}

TEST(QasmIntegration, SrOutputRoundTrips)
{
    const auto backend = arch::Backend::fake_mumbai();
    const auto result = core::sr_caqr_or(apps::bv_circuit(5), backend).value();
    const auto parsed = qasm::parse_circuit(qasm::to_qasm(result.circuit));
    ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
    EXPECT_EQ(parsed->size(), result.circuit.size());
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
