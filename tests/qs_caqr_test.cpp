/// Tests for QS-CaQR: regular budget sweeps checked against the
/// per-step rebuild they replaced, the commuting (QAOA) variant with
/// coloring bound, scheduling, and semantics checks, and thread-count
/// independence of the commuting evaluation engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "apps/benchmarks.h"
#include "apps/qaoa.h"
#include "circuit/timing.h"
#include "core/commuting.h"
#include "core/qs_caqr.h"
#include "core/reuse_analysis.h"
#include "graph/generators.h"
#include "oracle.h"
#include "qasm/printer.h"
#include "sim/simulator.h"
#include "util/metrics.h"
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
    for (std::size_t i = 0; i < result.versions.size(); ++i) {
        const auto counts =
            sim::simulate(result.circuit(i), {.shots = 128, .seed = 41});
        ASSERT_EQ(counts.size(), 1u)
            << result.versions[i].qubits << " qubits";
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
// The sweep against the per-step rebuild it replaced: every step builds
// a CircuitDag, enumerates and prices the pairs on it, and rewrites the
// circuit with apply_reuse; every version is measured on a fresh DAG.
// ---------------------------------------------------------------------

struct ReferenceVersion
{
    circuit::Circuit circuit;
    std::vector<int> orig_of;  ///< wire -> head (original qubit id)
    std::vector<ReusePair> applied;
    int qubits = 0;
    int depth = 0;
    double duration_dt = 0.0;
};

void
measure_version(ReferenceVersion* version)
{
    oracle::CircuitDag dag(version->circuit);
    version->qubits = version->circuit.active_qubit_count();
    version->depth = dag.depth();
    version->duration_dt = dag.duration(circuit::LogicalDurations{});
}

std::vector<ReferenceVersion>
reference_sweep(const circuit::Circuit& input,
                const core::QsCaqrOptions& options, bool order_first)
{
    const bool by_duration = options.metric == core::ReuseMetric::kDuration;
    const double dummy_weight =
        by_duration ? circuit::LogicalDurations::kMeasure +
                          circuit::LogicalDurations::kConditionedGate
                    : 1.0;
    const circuit::LogicalDurations durations;
    const circuit::UnitDepthModel unit;
    const circuit::DurationModel& model =
        by_duration ? static_cast<const circuit::DurationModel&>(durations)
                    : static_cast<const circuit::DurationModel&>(unit);

    std::vector<ReferenceVersion> versions(1);
    versions[0].circuit = input;
    for (int q = 0; q < input.num_qubits(); ++q) {
        versions[0].orig_of.push_back(q);
    }
    measure_version(&versions[0]);
    while (options.target_qubits < 0 ||
           versions.back().qubits > options.target_qubits) {
        const auto& current = versions.back();
        oracle::CircuitDag dag(current.circuit);
        const auto pairs = oracle::find_reuse_pairs(dag);
        if (pairs.empty()) break;
        const auto timing = oracle::splice_timing(dag, model);
        double best_primary = std::numeric_limits<double>::infinity();
        double best_secondary = std::numeric_limits<double>::infinity();
        ReusePair best{};
        for (const auto& pair : pairs) {
            double primary = timing.spliced_critical_path(pair, dummy_weight);
            double secondary = timing.qubit_finish[pair.target];
            if (order_first) std::swap(primary, secondary);
            if (primary < best_primary - 1e-9 ||
                (primary < best_primary + 1e-9 &&
                 secondary < best_secondary - 1e-9)) {
                best_primary = primary;
                best_secondary = secondary;
                best = pair;
            }
        }
        ReferenceVersion next;
        next.applied = current.applied;
        next.applied.push_back(
            ReusePair{current.orig_of[best.source],
                      current.orig_of[best.target]});
        auto transformed =
            oracle::apply_reuse(current.circuit, best, current.orig_of);
        next.circuit = std::move(transformed.circuit);
        next.orig_of = std::move(transformed.orig_of);
        measure_version(&next);
        versions.push_back(std::move(next));
    }
    return versions;
}

/// Both sweeps, merged by qubit count (the lower metric wins, ties to
/// the metric-first sweep), fewest qubits last.
std::vector<ReferenceVersion>
reference_qs_caqr(const circuit::Circuit& input,
                  const core::QsCaqrOptions& options)
{
    const auto metric_sweep = reference_sweep(input, options, false);
    const auto order_sweep = reference_sweep(input, options, true);
    const bool by_duration = options.metric == core::ReuseMetric::kDuration;
    const auto metric_of = [by_duration](const ReferenceVersion& version) {
        return by_duration ? version.duration_dt
                           : static_cast<double>(version.depth);
    };
    std::map<int, const ReferenceVersion*> by_count;
    for (const auto* sweep : {&metric_sweep, &order_sweep}) {
        for (const auto& version : *sweep) {
            auto [it, inserted] =
                by_count.try_emplace(version.qubits, &version);
            if (!inserted && metric_of(version) < metric_of(*it->second)) {
                it->second = &version;
            }
        }
    }
    std::vector<ReferenceVersion> merged;
    for (auto it = by_count.rbegin(); it != by_count.rend(); ++it) {
        merged.push_back(*it->second);
    }
    return merged;
}

void
expect_matches_reference(const circuit::Circuit& input,
                         const core::QsCaqrOptions& options,
                         const std::string& context)
{
    const auto expected = reference_qs_caqr(input, options);
    const auto result = core::qs_caqr_or(input, options);
    ASSERT_TRUE(result.ok()) << context << ": " << result.status().to_string();
    ASSERT_EQ(result->versions.size(), expected.size()) << context;
    for (std::size_t i = 0; i < expected.size(); ++i) {
        const auto& version = result->versions[i];
        ASSERT_TRUE(version.applied == expected[i].applied)
            << context << " version " << i;
        EXPECT_EQ(version.qubits, expected[i].qubits)
            << context << " version " << i;
        EXPECT_EQ(version.depth, expected[i].depth)
            << context << " version " << i;
        EXPECT_EQ(version.duration_dt, expected[i].duration_dt)
            << context << " version " << i;
        EXPECT_EQ(qasm::to_qasm(result->circuit(i)),
                  qasm::to_qasm(expected[i].circuit))
            << context << " version " << i;
    }
}

core::QsCaqrOptions
options_for(core::ReuseMetric metric, int target_qubits = -1)
{
    core::QsCaqrOptions options;
    options.metric = metric;
    options.target_qubits = target_qubits;
    return options;
}

/// @p n bits, @p ones of them set, at seeded positions.
std::vector<int>
random_bits(int n, int ones, util::Rng& rng)
{
    std::vector<int> bits(static_cast<std::size_t>(n), 0);
    std::fill(bits.begin(), bits.begin() + ones, 1);
    rng.shuffle(bits);
    return bits;
}

TEST(QsCaqrOracle, RandomCircuitsMatchPerStepRebuild)
{
    for (const auto metric :
         {core::ReuseMetric::kDepth, core::ReuseMetric::kDuration}) {
        for (std::uint64_t seed = 1; seed <= 300; ++seed) {
            util::Rng rng(seed);
            const auto c = oracle::random_circuit(rng, rng.next_int(2, 12));
            expect_matches_reference(
                c, options_for(metric),
                "seed " + std::to_string(seed) + " metric " +
                    std::to_string(static_cast<int>(metric)));
        }
    }
}

TEST(QsCaqrOracle, LargeRandomCircuitsMatchPerStepRebuild)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        util::Rng rng(2000 + seed);
        const auto c = oracle::random_circuit(rng, rng.next_int(60, 80));
        expect_matches_reference(c, options_for(core::ReuseMetric::kDuration),
                                 "seed " + std::to_string(seed));
    }
}

TEST(QsCaqrOracle, BvAndCoinAtReuseSweepWeightMatchPerStepRebuild)
{
    // caqrbench's reuse_sweep and serve_hot90 inputs set (n - 1) / 2
    // secret bits; (n - 1) / 3 adds sparser ones.
    for (const int divisor : {3, 2}) {
        util::Rng rng(1);
        for (int n = 12; n <= 26; ++n) {
            for (int copy = 0; copy < 3; ++copy) {
                const auto bits = random_bits(n - 1, (n - 1) / divisor, rng);
                const auto tag = std::to_string(n) + " copy " +
                                 std::to_string(copy) + " weight 1/" +
                                 std::to_string(divisor);
                expect_matches_reference(apps::bv_circuit(n, bits), {},
                                         "bv" + tag);
                expect_matches_reference(apps::cc_circuit(n, bits), {},
                                         "cc" + tag);
            }
        }
    }
}

TEST(QsCaqrOracle, SparseDeviceScaleBvMatchesPerStepRebuild)
{
    for (int n : {64, 127}) {
        std::vector<int> secret(static_cast<std::size_t>(n - 1));
        for (std::size_t i = 0; i < secret.size(); ++i) {
            secret[i] = i % 3 == 0 ? 1 : 0;
        }
        expect_matches_reference(apps::bv_circuit(n, secret), {},
                                 "sparse bv" + std::to_string(n));
    }
}

TEST(QsCaqrOracle, PositiveTargetStopsWhereRebuildStops)
{
    for (const auto metric :
         {core::ReuseMetric::kDepth, core::ReuseMetric::kDuration}) {
        expect_matches_reference(apps::bv_circuit(12),
                                 options_for(metric, 5), "bv12 target 5");
        for (std::uint64_t seed = 1; seed <= 40; ++seed) {
            util::Rng rng(seed);
            const auto c = oracle::random_circuit(rng, rng.next_int(6, 12));
            const int floor_qubits =
                core::qs_caqr_or(c, options_for(metric))->max_reuse().qubits;
            expect_matches_reference(
                c, options_for(metric, floor_qubits + 1),
                "seed " + std::to_string(seed));
        }
    }
}

TEST(QsCaqr, SweepRetimesOnlyWhatCommitsMove)
{
    // Each step re-times the reset nodes and the splice's descendants,
    // not the whole order: on sparse BV-127 under a tenth of it.
    const int n = 127;
    std::vector<int> secret(static_cast<std::size_t>(n - 1));
    for (std::size_t i = 0; i < secret.size(); ++i) {
        secret[i] = i % 3 == 0 ? 1 : 0;
    }
    const auto input = apps::bv_circuit(n, secret);
    const auto counter = [](const char* name) {
        const auto snapshot = util::metrics::global().snapshot();
        const auto it = snapshot.counters.find(name);
        return it == snapshot.counters.end() ? 0.0 : it->second;
    };
    const double steps_before = counter("qs_caqr.steps");
    const double timed_before = counter("qs_caqr.nodes_timed");
    ASSERT_TRUE(core::qs_caqr_or(input).ok());
    const double steps = counter("qs_caqr.steps") - steps_before;
    const double timed = counter("qs_caqr.nodes_timed") - timed_before;
    EXPECT_GT(steps, 0.0);
    EXPECT_GE(timed, 2.0 * static_cast<double>(input.size()));
    EXPECT_LT(timed,
              (steps + 1.0) * static_cast<double>(input.size()) / 3.0);
}

TEST(QsCaqr, ReplayedCircuitIsTheSearchedInput)
{
    const auto input = apps::bv_circuit(6);
    const auto result = core::qs_caqr_or(input).value();
    EXPECT_EQ(qasm::to_qasm(result.circuit(0)), qasm::to_qasm(input));
    EXPECT_EQ(result.circuit(result.versions.size() - 1).num_qubits(),
              result.max_reuse().qubits);
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
