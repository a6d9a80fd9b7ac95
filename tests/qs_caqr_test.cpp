/// Tests for QS-CaQR: regular budget sweeps, the commuting (QAOA)
/// variant with coloring bound, scheduling, and semantics checks, and
/// thread-count independence of the commuting evaluation engine.
#include <gtest/gtest.h>

#include <string>

#include "apps/benchmarks.h"
#include "apps/qaoa.h"
#include "core/commuting.h"
#include "core/qs_caqr.h"
#include "graph/generators.h"
#include "qasm/printer.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/stats.h"

namespace caqr {
namespace {

using core::CommutingSpec;
using core::ReusePair;

TEST(QsCaqr, BvCompressesToTwoQubits)
{
    // Paper §1: "for a n-qubit BV application, the minimal number of
    // required qubits is always 2".
    for (int n : {5, 8, 10}) {
        const auto result = core::qs_caqr_or(apps::bv_circuit(n)).value();
        EXPECT_EQ(result.versions.back().qubits, 2) << "n=" << n;
        EXPECT_TRUE(result.reached_target);
    }
}

TEST(QsCaqr, VersionsDecreaseByOneQubit)
{
    const auto result = core::qs_caqr_or(apps::bv_circuit(7)).value();
    for (std::size_t i = 1; i < result.versions.size(); ++i) {
        EXPECT_EQ(result.versions[i].qubits,
                  result.versions[i - 1].qubits - 1);
    }
}

TEST(QsCaqr, RespectsQubitTarget)
{
    core::QsCaqrOptions options;
    options.target_qubits = 4;
    const auto result = core::qs_caqr_or(apps::bv_circuit(8), options).value();
    EXPECT_TRUE(result.reached_target);
    EXPECT_EQ(result.versions.back().qubits, 4);
}

TEST(QsCaqr, UnreachableTargetReported)
{
    core::QsCaqrOptions options;
    options.target_qubits = 1;  // BV can never go below 2
    const auto result = core::qs_caqr_or(apps::bv_circuit(5), options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), util::StatusCode::kInfeasible);
    // The message names the reachable minimum so callers can retry.
    EXPECT_NE(result.status().message().find("minimum is 2"),
              std::string::npos);
}

TEST(QsCaqr, AppliedPairsRecordedInOriginalIds)
{
    const auto result = core::qs_caqr_or(apps::bv_circuit(5)).value();
    const auto& final = result.versions.back();
    EXPECT_EQ(final.applied.size(), result.versions.size() - 1);
    for (const auto& pair : final.applied) {
        EXPECT_GE(pair.source, 0);
        EXPECT_LT(pair.source, 5);
        EXPECT_NE(pair.source, pair.target);
    }
}

TEST(QsCaqr, TransformedVersionsPreserveBvOutcome)
{
    const auto result = core::qs_caqr_or(apps::bv_circuit(6)).value();
    for (const auto& version : result.versions) {
        const auto counts =
            sim::simulate(version.circuit, {.shots = 128, .seed = 41});
        ASSERT_EQ(counts.size(), 1u) << version.qubits << " qubits";
        EXPECT_EQ(counts.begin()->first, apps::bv_expected(6));
    }
}

TEST(QsCaqr, DepthGrowsAsQubitsShrink)
{
    const auto result = core::qs_caqr_or(apps::bv_circuit(10)).value();
    // Maximal reuse serializes the data wires: depth must grow
    // relative to the original.
    EXPECT_GT(result.versions.back().depth,
              result.versions.front().depth);
    // ... and duration as well.
    EXPECT_GT(result.versions.back().duration_dt,
              result.versions.front().duration_dt);
}

TEST(QsCaqr, SelectorsPickExtremes)
{
    const auto result = core::qs_caqr_or(apps::bv_circuit(8)).value();
    EXPECT_LE(result.best_by_depth().depth,
              result.versions.back().depth);
    EXPECT_LE(result.best_by_duration().duration_dt,
              result.versions.back().duration_dt);
    EXPECT_EQ(result.max_reuse().qubits, 2);
}

TEST(QsCaqr, NoOpportunityCircuitKeepsOneVersion)
{
    circuit::Circuit triangle(3, 0);
    triangle.cx(0, 1);
    triangle.cx(1, 2);
    triangle.cx(0, 2);
    const auto result = core::qs_caqr_or(triangle).value();
    EXPECT_EQ(result.versions.size(), 1u);
    EXPECT_EQ(result.versions.front().qubits, 3);
}

// ---------------------------------------------------------------------
// Commuting (QAOA) variant.
// ---------------------------------------------------------------------

CommutingSpec
make_spec(int n, double density, unsigned seed)
{
    util::Rng rng(seed);
    CommutingSpec spec;
    spec.interaction = graph::random_graph(n, density, rng);
    return spec;
}

TEST(CommutingValidity, Condition1Enforced)
{
    CommutingSpec spec = make_spec(6, 0.4, 1);
    const auto& [u, v] = spec.interaction.edges().front();
    EXPECT_FALSE(core::commuting_pairs_valid(spec.interaction,
                                             {ReusePair{u, v}}));
}

TEST(CommutingValidity, ChainLimitsEnforced)
{
    graph::UndirectedGraph g(4);  // edgeless: Condition 1 trivial
    // Two targets for one source: invalid.
    EXPECT_FALSE(core::commuting_pairs_valid(
        g, {ReusePair{0, 1}, ReusePair{0, 2}}));
    // Two sources for one target: invalid.
    EXPECT_FALSE(core::commuting_pairs_valid(
        g, {ReusePair{0, 2}, ReusePair{1, 2}}));
    // A proper chain is fine.
    EXPECT_TRUE(core::commuting_pairs_valid(
        g, {ReusePair{0, 1}, ReusePair{1, 2}}));
    // Self-reuse is not.
    EXPECT_FALSE(core::commuting_pairs_valid(g, {ReusePair{2, 2}}));
}

TEST(CommutingValidity, CycleDetected)
{
    // 0-1 and 2-3 edges; pairs (0->2) and (2->0) cycle trivially; the
    // subtler cross cycle uses two pairs.
    graph::UndirectedGraph g(4);
    g.add_edge(0, 1);
    g.add_edge(2, 3);
    // (0 -> 3) forces g(0,1) before g(2,3); (2 -> 1) forces g(2,3)
    // before g(0,1): cycle.
    EXPECT_FALSE(core::commuting_pairs_valid(
        g, {ReusePair{0, 3}, ReusePair{2, 1}}));
    // Either pair alone is fine.
    EXPECT_TRUE(core::commuting_pairs_valid(g, {ReusePair{0, 3}}));
    EXPECT_TRUE(core::commuting_pairs_valid(g, {ReusePair{2, 1}}));
}

TEST(CommutingSchedule, NoPairsSchedulesEverything)
{
    CommutingSpec spec = make_spec(8, 0.4, 2);
    const auto schedule = core::schedule_commuting(spec, {});
    EXPECT_EQ(schedule.wires_used, 8);
    EXPECT_EQ(schedule.circuit.two_qubit_gate_count(),
              spec.interaction.num_edges());
    EXPECT_EQ(schedule.circuit.measure_count(), 8);
    EXPECT_GT(schedule.rounds, 0);
}

TEST(CommutingSchedule, PairsReduceWires)
{
    graph::UndirectedGraph g(4);
    g.add_edge(0, 1);
    g.add_edge(2, 3);
    CommutingSpec spec;
    spec.interaction = g;
    const auto schedule =
        core::schedule_commuting(spec, {ReusePair{0, 2}});
    EXPECT_EQ(schedule.wires_used, 3);
    EXPECT_EQ(schedule.circuit.two_qubit_gate_count(), 2);
    // The reset idiom appears exactly once.
    int conditioned = 0;
    for (const auto& instr : schedule.circuit.instructions()) {
        if (instr.has_condition()) ++conditioned;
    }
    EXPECT_EQ(conditioned, 1);
}

TEST(CommutingSchedule, ReusedQaoaKeepsEnergy)
{
    // Semantics: the reused dynamic QAOA circuit must produce the same
    // max-cut energy as the plain circuit (same angles), because
    // commuting reorder + measure/reset reuse preserve the
    // distribution per problem node.
    CommutingSpec spec = make_spec(7, 0.35, 3);
    spec.gamma = 0.55;
    spec.beta = 0.35;

    apps::QaoaParams params;
    params.gammas = {spec.gamma};
    params.betas = {spec.beta};
    const auto plain = apps::qaoa_circuit(spec.interaction, params);
    const auto plain_counts =
        sim::simulate(plain, {.shots = 8192, .seed = 51});
    const double plain_energy =
        apps::maxcut_expectation(plain_counts, spec.interaction);

    core::QsCommutingOptions options;
    options.target_qubits = 4;
    auto qs = core::qs_caqr_commuting_or(spec, options).value();
    const auto& reused = qs.versions.back();
    ASSERT_LT(reused.qubits, 7);
    const auto reused_counts = sim::simulate(reused.schedule.circuit,
                                             {.shots = 8192, .seed = 52});
    const double reused_energy =
        apps::maxcut_expectation(reused_counts, spec.interaction);
    EXPECT_NEAR(reused_energy, plain_energy,
                0.15 * spec.interaction.num_edges() / 2.0 + 0.25);
}

TEST(QsCommuting, ReachesColoringBoundOnBipartite)
{
    // Even cycle: chromatic number 2, so reuse should reach few wires.
    graph::UndirectedGraph g(8);
    for (int i = 0; i < 8; ++i) g.add_edge(i, (i + 1) % 8);
    CommutingSpec spec;
    spec.interaction = g;
    const auto result = core::qs_caqr_commuting_or(spec).value();
    EXPECT_EQ(result.coloring_bound, 2);
    EXPECT_LE(result.versions.back().qubits, 4);
    EXPECT_GE(result.versions.back().qubits, result.coloring_bound);
}

TEST(QsCommuting, VersionsShrinkMonotonically)
{
    CommutingSpec spec = make_spec(10, 0.3, 4);
    const auto result = core::qs_caqr_commuting_or(spec).value();
    for (std::size_t i = 1; i < result.versions.size(); ++i) {
        EXPECT_EQ(result.versions[i].qubits,
                  result.versions[i - 1].qubits - 1);
    }
    EXPECT_GE(result.versions.back().qubits, result.coloring_bound);
}

TEST(QsCommuting, TargetRespected)
{
    CommutingSpec spec = make_spec(10, 0.3, 5);
    core::QsCommutingOptions options;
    options.target_qubits = 6;
    const auto result = core::qs_caqr_commuting_or(spec, options).value();
    EXPECT_TRUE(result.reached_target);
    EXPECT_EQ(result.versions.back().qubits, 6);
}

TEST(QsCommuting, EveryVersionSchedulesAllGates)
{
    CommutingSpec spec = make_spec(9, 0.35, 6);
    const auto result = core::qs_caqr_commuting_or(spec).value();
    for (const auto& version : result.versions) {
        EXPECT_EQ(version.schedule.circuit.two_qubit_gate_count(),
                  spec.interaction.num_edges());
        EXPECT_EQ(version.schedule.circuit.measure_count() -
                      /* no scratch bits expected */ 0,
                  9);
    }
}

// ---------------------------------------------------------------------
// Thread-count independence of the commuting evaluation engine
// ---------------------------------------------------------------------

TEST(QsCommutingDeterminism, ThreadCountDoesNotChangeResults)
{
    CommutingSpec spec = make_spec(10, 0.3, 11);

    core::QsCommutingOptions serial;
    serial.num_threads = 1;
    const auto baseline = core::qs_caqr_commuting_or(spec, serial).value();

    for (int threads : {3, 0}) {
        core::QsCommutingOptions options;
        options.num_threads = threads;
        const auto result = core::qs_caqr_commuting_or(spec, options).value();
        ASSERT_EQ(result.versions.size(), baseline.versions.size())
            << "threads=" << threads;
        for (std::size_t i = 0; i < result.versions.size(); ++i) {
            const auto& va = baseline.versions[i];
            const auto& vb = result.versions[i];
            EXPECT_EQ(va.qubits, vb.qubits) << "version " << i;
            EXPECT_EQ(va.schedule.duration_dt, vb.schedule.duration_dt)
                << "version " << i;
            ASSERT_EQ(va.pairs.size(), vb.pairs.size()) << "version " << i;
            for (std::size_t p = 0; p < va.pairs.size(); ++p) {
                EXPECT_EQ(va.pairs[p].source, vb.pairs[p].source);
                EXPECT_EQ(va.pairs[p].target, vb.pairs[p].target);
            }
            EXPECT_EQ(qasm::to_qasm(va.schedule.circuit),
                      qasm::to_qasm(vb.schedule.circuit))
                << "version " << i;
        }
    }
}

TEST(MinQubitsByColoring, MatchesKnownGraphs)
{
    graph::UndirectedGraph triangle(3);
    triangle.add_edge(0, 1);
    triangle.add_edge(1, 2);
    triangle.add_edge(0, 2);
    EXPECT_EQ(core::min_qubits_by_coloring(triangle), 3);

    graph::UndirectedGraph star(5);
    for (int leaf = 1; leaf < 5; ++leaf) star.add_edge(0, leaf);
    EXPECT_EQ(core::min_qubits_by_coloring(star), 2);
}

}  // namespace
}  // namespace caqr
