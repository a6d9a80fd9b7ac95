/// Tests for QS-CaQR: regular budget sweeps checked against the
/// per-step rebuild they replaced, the commuting (QAOA) variant with
/// coloring bound, scheduling, and semantics checks, its pair-graph
/// validity rule checked against the gate-level dependence graph,
/// pinned commuting outputs, and thread-count independence of the
/// commuting evaluation engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <limits>
#include <map>
#include <sstream>
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

/// One QS-CaQR input of the oracle corpora, with its options.
struct OracleCase
{
    circuit::Circuit input;
    core::QsCaqrOptions options;
    std::string label;
};

std::vector<OracleCase>
random_circuit_cases()
{
    std::vector<OracleCase> cases;
    for (const auto metric :
         {core::ReuseMetric::kDepth, core::ReuseMetric::kDuration}) {
        for (std::uint64_t seed = 1; seed <= 300; ++seed) {
            util::Rng rng(seed);
            cases.push_back(
                {oracle::random_circuit(rng, rng.next_int(2, 12)),
                 options_for(metric),
                 "seed " + std::to_string(seed) + " metric " +
                     std::to_string(static_cast<int>(metric))});
        }
    }
    return cases;
}

std::vector<OracleCase>
large_random_cases()
{
    std::vector<OracleCase> cases;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        util::Rng rng(2000 + seed);
        cases.push_back({oracle::random_circuit(rng, rng.next_int(60, 80)),
                         options_for(core::ReuseMetric::kDuration),
                         "seed " + std::to_string(seed)});
    }
    return cases;
}

std::vector<OracleCase>
bv_and_coin_cases()
{
    // caqrbench's reuse_sweep and serve_hot90 inputs set (n - 1) / 2
    // secret bits; (n - 1) / 3 adds sparser ones.
    std::vector<OracleCase> cases;
    for (const int divisor : {3, 2}) {
        util::Rng rng(1);
        for (int n = 12; n <= 26; ++n) {
            for (int copy = 0; copy < 3; ++copy) {
                const auto bits = random_bits(n - 1, (n - 1) / divisor, rng);
                const auto tag = std::to_string(n) + " copy " +
                                 std::to_string(copy) + " weight 1/" +
                                 std::to_string(divisor);
                cases.push_back({apps::bv_circuit(n, bits), {}, "bv" + tag});
                cases.push_back({apps::cc_circuit(n, bits), {}, "cc" + tag});
            }
        }
    }
    return cases;
}

std::vector<OracleCase>
sparse_device_bv_cases()
{
    std::vector<OracleCase> cases;
    for (int n : {64, 127}) {
        std::vector<int> secret(static_cast<std::size_t>(n - 1));
        for (std::size_t i = 0; i < secret.size(); ++i) {
            secret[i] = i % 3 == 0 ? 1 : 0;
        }
        cases.push_back({apps::bv_circuit(n, secret), {},
                         "sparse bv" + std::to_string(n)});
    }
    return cases;
}

/// Targets one qubit above each input's floor, so the search stops
/// before it is done.
std::vector<OracleCase>
positive_target_cases()
{
    std::vector<OracleCase> cases;
    for (const auto metric :
         {core::ReuseMetric::kDepth, core::ReuseMetric::kDuration}) {
        cases.push_back(
            {apps::bv_circuit(12), options_for(metric, 5), "bv12 target 5"});
        for (std::uint64_t seed = 1; seed <= 40; ++seed) {
            util::Rng rng(seed);
            auto c = oracle::random_circuit(rng, rng.next_int(6, 12));
            const int floor_qubits =
                core::qs_caqr_or(c, options_for(metric))->max_reuse().qubits;
            cases.push_back({std::move(c),
                             options_for(metric, floor_qubits + 1),
                             "seed " + std::to_string(seed)});
        }
    }
    return cases;
}

/// @p kind on @p qubits, run only when clbit @p bit reads 1.
circuit::Instruction
conditioned(circuit::GateKind kind, circuit::Qubits qubits, int bit)
{
    circuit::Instruction instr;
    instr.kind = kind;
    instr.qubits = std::move(qubits);
    instr.condition_bit = bit;
    return instr;
}

/// A measure of @p q into @p bit that runs only when @p bit reads 1:
/// one instruction on the same clbit twice.
circuit::Instruction
self_conditioned_measure(int q, int bit)
{
    auto instr = conditioned(circuit::GateKind::kMeasure, {q}, bit);
    instr.clbit = bit;
    return instr;
}

/// Seeded circuits dense in what a commit relinks: barriers, measures
/// into a few shared clbits with later readers, conditioned two-qubit
/// gates and self-conditioned measures.
circuit::Circuit
link_edge_circuit(util::Rng& rng, int qubits)
{
    const int clbits = std::max(1, qubits / 3);
    circuit::Circuit c(qubits, clbits);
    const int gates = rng.next_int(2 * qubits, 5 * qubits);
    for (int g = 0; g < gates; ++g) {
        const int q = rng.next_int(0, qubits - 1);
        const int r = (q + rng.next_int(1, qubits - 1)) % qubits;
        const int bit = rng.next_int(0, clbits - 1);
        const int kind = rng.next_int(0, 19);
        if (kind < 4) {
            c.h(q);
        } else if (kind < 8) {
            c.cx(q, r);
        } else if (kind < 10) {
            c.append(conditioned(circuit::GateKind::kCx, {q, r}, bit));
        } else if (kind < 13) {
            c.measure(q, bit);
        } else if (kind < 16) {
            c.x_if(q, bit, 1);
        } else if (kind < 17) {
            c.append(self_conditioned_measure(q, bit));
        } else {
            c.barrier();
        }
    }
    return c;
}

/// Each pattern a commit relinks by hand, then seeded circuits dense in
/// them, under both metrics.
std::vector<OracleCase>
link_edge_cases()
{
    std::vector<std::pair<circuit::Circuit, std::string>> inputs;
    {
        // A barrier right after the source's last gate: the reset
        // follows the barrier.
        circuit::Circuit c(4, 2);
        c.h(0);
        c.cx(0, 1);
        c.measure(0, 0);
        c.barrier();
        c.h(2);
        c.cx(2, 3);
        c.h(3);
        c.measure(3, 1);
        c.h(1);
        inputs.emplace_back(std::move(c), "barrier after source");
    }
    {
        // Barriers between a target's gates, one after a long run on
        // it: each barrier takes the target's links on the merged wire.
        circuit::Circuit c(4, 1);
        c.h(0);
        for (int k = 0; k < 4; ++k) c.h(1);
        c.barrier();
        c.h(1);
        c.cx(1, 2);
        c.barrier();
        c.h(2);
        c.h(3);
        c.barrier();
        c.h(3);
        c.measure(3, 0);
        inputs.emplace_back(std::move(c), "barriers between target gates");
    }
    {
        // The source ends in a measure whose bit a later, independent
        // gate reads: the reset goes after that reader.
        circuit::Circuit c(4, 1);
        c.h(0);
        c.measure(0, 0);
        c.x_if(2, 0, 1);
        c.h(2);
        c.cx(2, 3);
        for (int k = 0; k < 3; ++k) c.h(1);
        c.cx(1, 3);
        inputs.emplace_back(std::move(c), "later reader of the reset bit");
    }
    {
        // Committing 0 -> 3 puts the reset after q1's first measure,
        // which writes the bit again and now reaches q3's gates: q1's
        // tail grows, and the next step prices pairs into q1 with it.
        circuit::Circuit c(4, 1);
        c.measure(2, 0);
        c.measure(0, 0);
        c.measure(1, 0);
        c.x_if(3, 0, 1);
        c.h(3);
        c.measure(1, 0);
        inputs.emplace_back(std::move(c), "later writer of the reset bit");
    }
    {
        // One bit written by four wires: a commit's backward pass queues
        // several ancestors, and the latest of them keeps its tail while
        // an earlier one's grows.
        circuit::Circuit c(5, 1);
        c.measure(1, 0);
        c.h(3);
        c.cx(0, 4);
        c.measure(1, 0);
        c.h(3);
        c.measure(2, 0);
        c.cx(0, 1);
        c.measure(4, 0);
        c.h(1);
        c.h(0);
        inputs.emplace_back(std::move(c), "unchanged tail before a changed one");
    }
    {
        circuit::Circuit c(4, 2);
        c.h(0);
        c.measure(0, 0);
        c.append(conditioned(circuit::GateKind::kCx, {1, 2}, 0));
        c.h(3);
        c.measure(3, 1);
        c.append(conditioned(circuit::GateKind::kCx, {2, 1}, 1));
        c.h(1);
        inputs.emplace_back(std::move(c), "conditioned two-qubit gates");
    }
    {
        circuit::Circuit c(3, 1);
        c.h(0);
        c.measure(0, 0);
        c.append(self_conditioned_measure(1, 0));
        c.h(2);
        c.append(self_conditioned_measure(2, 0));
        c.h(1);
        inputs.emplace_back(std::move(c), "self-conditioned measure");
    }
    for (std::uint64_t seed = 1; seed <= 150; ++seed) {
        util::Rng rng(7000 + seed);
        inputs.emplace_back(link_edge_circuit(rng, rng.next_int(3, 9)),
                            "seed " + std::to_string(seed));
    }
    std::vector<OracleCase> cases;
    for (const auto metric :
         {core::ReuseMetric::kDepth, core::ReuseMetric::kDuration}) {
        for (const auto& [input, label] : inputs) {
            cases.push_back({input, options_for(metric),
                             label + " metric " +
                                 std::to_string(static_cast<int>(metric))});
        }
    }
    return cases;
}

void
expect_cases_match_reference(const std::vector<OracleCase>& cases)
{
    for (const auto& c : cases) {
        expect_matches_reference(c.input, c.options, c.label);
    }
}

TEST(QsCaqrOracle, RandomCircuitsMatchPerStepRebuild)
{
    expect_cases_match_reference(random_circuit_cases());
}

TEST(QsCaqrOracle, LargeRandomCircuitsMatchPerStepRebuild)
{
    expect_cases_match_reference(large_random_cases());
}

TEST(QsCaqrOracle, BvAndCoinAtReuseSweepWeightMatchPerStepRebuild)
{
    expect_cases_match_reference(bv_and_coin_cases());
}

TEST(QsCaqrOracle, SparseDeviceScaleBvMatchesPerStepRebuild)
{
    expect_cases_match_reference(sparse_device_bv_cases());
}

TEST(QsCaqrOracle, PositiveTargetStopsWhereRebuildStops)
{
    expect_cases_match_reference(positive_target_cases());
}

TEST(QsCaqrOracle, LinkEdgeCasesMatchPerStepRebuild)
{
    const auto cases = link_edge_cases();
    expect_cases_match_reference(cases);
    for (const auto& c : cases) {
        const auto result = core::qs_caqr_or(c.input, c.options);
        ASSERT_TRUE(result.ok()) << c.label;
        EXPECT_EQ(qasm::to_qasm(result->max_reuse_circuit),
                  qasm::to_qasm(result->circuit(result->versions.size() - 1)))
            << c.label;
    }
}

TEST(QsCaqr, MaxReuseCircuitEqualsReplay)
{
    // The search builds the max-reuse circuit from its last program
    // instead of replaying the commits; both must print the same.
    for (auto* corpus :
         {random_circuit_cases, large_random_cases, bv_and_coin_cases,
          sparse_device_bv_cases, positive_target_cases}) {
        for (const auto& c : corpus()) {
            const auto result = core::qs_caqr_or(c.input, c.options);
            ASSERT_TRUE(result.ok()) << c.label;
            EXPECT_EQ(qasm::to_qasm(result->max_reuse_circuit),
                      qasm::to_qasm(
                          result->circuit(result->versions.size() - 1)))
                << c.label;
            EXPECT_EQ(result->max_reuse_circuit.active_qubit_count(),
                      result->max_reuse().qubits)
                << c.label;
        }
    }
}

TEST(QsCaqr, SweepRetimesOnlyWhatCommitsMove)
{
    // Each step re-times the reset nodes and the splice's descendants,
    // not the whole order: on sparse BV-127 under a tenth of it. It
    // re-tails the reset nodes and those ancestors whose tail changes,
    // not every non-descendant: under a quarter of the order.
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
    const double tailed_before = counter("qs_caqr.nodes_tailed");
    ASSERT_TRUE(core::qs_caqr_or(input).ok());
    const double steps = counter("qs_caqr.steps") - steps_before;
    const double timed = counter("qs_caqr.nodes_timed") - timed_before;
    const double tailed = counter("qs_caqr.nodes_tailed") - tailed_before;
    const auto size = static_cast<double>(input.size());
    EXPECT_GT(steps, 0.0);
    EXPECT_GE(timed, 2.0 * size);
    EXPECT_LT(timed, (steps + 1.0) * size / 3.0);
    EXPECT_GE(tailed, 2.0 * size);
    EXPECT_LT(tailed, (steps + 2.0) * size / 4.0);
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

TEST(CommutingValidity, HandoffCycleThroughGateFreeQubits)
{
    // Qubits 2 and 3 carry no gate, so no gate orders the two
    // measurements; the handoff 2 -> 3 -> 2 alone is the cycle.
    graph::UndirectedGraph g(4);
    g.add_edge(0, 1);
    EXPECT_FALSE(core::commuting_pairs_valid(
        g, {ReusePair{2, 3}, ReusePair{3, 2}}));
    EXPECT_FALSE(core::commuting_pairs_valid(
        g, {ReusePair{0, 2}, ReusePair{2, 3}, ReusePair{3, 0}}));
    EXPECT_TRUE(core::commuting_pairs_valid(
        g, {ReusePair{0, 2}, ReusePair{2, 3}}));
}

TEST(CommutingValidity, SharedNeighborInvalidFromTwoLayers)
{
    // 0 - 1 - 2: reusing 0's wire for 2 puts g(0,1) before g(1,2) in
    // every layer, but qubit 1's mixer puts g(1,2) of layer 0 before
    // g(0,1) of layer 1.
    graph::UndirectedGraph g(3);
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    EXPECT_TRUE(core::commuting_pairs_valid(g, {ReusePair{0, 2}}, 1));
    EXPECT_FALSE(core::commuting_pairs_valid(g, {ReusePair{0, 2}}, 2));
    EXPECT_FALSE(core::commuting_pairs_valid(g, {ReusePair{0, 2}}, 3));
}

// ---------------------------------------------------------------------
// The pair-graph validity rule against the gate-level dependence graph
// it reduces (oracle::commuting_pairs_valid).
// ---------------------------------------------------------------------

/// Tally of verdicts both rules agreed on.
struct Verdicts
{
    int valid = 0;
    int invalid = 0;
};

void
expect_same_verdict(const graph::UndirectedGraph& g,
                    const std::vector<ReusePair>& pairs, int layers,
                    Verdicts* verdicts)
{
    const bool valid = core::commuting_pairs_valid(g, pairs, layers);
    const bool expected = oracle::commuting_pairs_valid(g, pairs, layers);
    EXPECT_EQ(valid, expected) << "layers=" << layers << " pairs="
                               << pairs.size();
    ++(valid ? verdicts->valid : verdicts->invalid);
}

/// Random pair lists over [-1, n], with self and duplicate pairs mixed
/// in.
void
compare_random_lists(const graph::UndirectedGraph& g, int layers,
                     util::Rng& rng, Verdicts* verdicts)
{
    const int n = g.num_nodes();
    for (int list = 0; list < 12; ++list) {
        std::vector<ReusePair> pairs;
        const int size = rng.next_int(0, n);
        // Mostly in-range lists, so that some of them are valid.
        const int lo = list % 4 == 0 ? -1 : 0;
        const int hi = list % 4 == 0 ? n : n - 1;
        for (int i = 0; i < size; ++i) {
            ReusePair pair{rng.next_int(lo, hi), rng.next_int(lo, hi)};
            if (rng.next_bool(0.05)) pair.target = pair.source;
            if (!pairs.empty() && rng.next_bool(0.05)) pair = pairs.back();
            pairs.push_back(pair);
        }
        expect_same_verdict(g, pairs, layers, verdicts);
    }
}

/// Grows a pair set the way the commuting sweep does: candidates in a
/// random order, each probe checked by both rules and kept when valid.
void
compare_grown_sets(const graph::UndirectedGraph& g, int layers,
                   util::Rng& rng, int max_probes, Verdicts* verdicts)
{
    const int n = g.num_nodes();
    std::vector<ReusePair> candidates;
    for (int s = 0; s < n; ++s) {
        for (int t = 0; t < n; ++t) {
            if (s != t) candidates.push_back(ReusePair{s, t});
        }
    }
    rng.shuffle(candidates);
    std::vector<bool> is_source(static_cast<std::size_t>(n), false);
    std::vector<bool> is_target(static_cast<std::size_t>(n), false);
    std::vector<ReusePair> pairs;
    int probes = 0;
    for (const auto& candidate : candidates) {
        if (probes == max_probes) break;
        if (is_source[candidate.source] || is_target[candidate.target]) {
            continue;
        }
        ++probes;
        pairs.push_back(candidate);
        const int before = verdicts->valid;
        expect_same_verdict(g, pairs, layers, verdicts);
        if (verdicts->valid == before) {
            pairs.pop_back();
            continue;
        }
        is_source[candidate.source] = true;
        is_target[candidate.target] = true;
    }
}

TEST(CommutingOracle, PairGraphMatchesGateGraph)
{
    Verdicts verdicts;
    for (int seed = 0; seed < 1200; ++seed) {
        util::Rng rng(static_cast<std::uint64_t>(seed));
        const int n = 2 + seed % 14;
        const double density = 0.1 + 0.1 * (seed % 6);
        const auto g = graph::random_graph(n, density, rng);
        const int layers = 1 + seed % 3;
        SCOPED_TRACE("seed " + std::to_string(seed));
        compare_random_lists(g, layers, rng, &verdicts);
        compare_grown_sets(g, layers, rng, n * n, &verdicts);
    }
    // The QAOA-32/64/127 graphs of the device-scale measurements.
    for (const auto& [n, density] :
         {std::pair{32, 0.15}, std::pair{64, 0.08}, std::pair{127, 0.04}}) {
        util::Rng graph_rng(7);
        const auto g = graph::random_graph(n, density, graph_rng);
        for (int layers : {1, 2}) {
            SCOPED_TRACE("qaoa-" + std::to_string(n) + " layers " +
                         std::to_string(layers));
            util::Rng rng(static_cast<std::uint64_t>(n * 10 + layers));
            compare_grown_sets(g, layers, rng, 400, &verdicts);
        }
    }
    // Both verdicts are well covered (5771 valid, 73650 invalid).
    EXPECT_GT(verdicts.valid, 5000);
    EXPECT_GT(verdicts.invalid, 50000);
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
// Pinned commuting outputs: every version of the search and every
// budget schedule, so that a change to the validity rule or to the
// shared matching round that moves any pair, depth or duration fails.
// ---------------------------------------------------------------------

/// "<label> q<qubits> d<depth> t<duration_dt> | <source>><target> ...".
std::string
describe(const std::string& label, int qubits,
         const core::CommutingSchedule& schedule,
         const std::vector<ReusePair>& pairs)
{
    std::ostringstream line;
    line << label << " q" << qubits << " d" << schedule.depth << " t"
         << std::setprecision(17) << schedule.duration_dt << " |";
    for (const auto& pair : pairs) {
        line << ' ' << pair.source << '>' << pair.target;
    }
    return line.str();
}

/// Every version of the commuting search ("v"), then every budget from
/// n down to 1 ("b<budget>" with the implied pairs, or "deadlock").
std::vector<std::string>
pin_lines(const CommutingSpec& spec, int exact_matching_limit)
{
    core::QsCommutingOptions options;
    options.num_threads = 1;
    options.scheduling.exact_matching_limit = exact_matching_limit;
    std::vector<std::string> lines;
    const auto result = core::qs_caqr_commuting_or(spec, options).value();
    for (const auto& version : result.versions) {
        lines.push_back(describe("v", version.qubits, version.schedule,
                                 version.pairs));
    }
    for (int budget = spec.interaction.num_nodes(); budget >= 1; --budget) {
        std::vector<ReusePair> pairs;
        const auto schedule = core::schedule_with_budget(
            spec, budget, options.scheduling, &pairs);
        std::ostringstream label;
        label << 'b' << budget;
        lines.push_back(schedule ? describe(label.str(), schedule->wires_used,
                                            *schedule, pairs)
                                 : label.str() + " deadlock");
    }
    return lines;
}

TEST(QsCommuting, ResultsArePinned)
{
    const std::vector<std::string> one_layer = {
        "v q10 d9 t26720 |",
        "v q9 d10 t38107 | 3>7",
        "v q8 d11 t39907 | 3>7 6>4",
        "v q7 d13 t43507 | 3>7 6>4 0>1",
        "v q6 d13 t43507 | 3>7 6>4 0>1 2>8",
        "v q5 d24 t82481 | 3>7 6>4 0>1 2>8 1>3",
        "v q4 d27 t97468 | 3>2 6>9 0>4 4>1 2>8 5>7",
        "b10 q10 d9 t26720 |",
        "b9 q9 d13 t43507 | 3>7",
        "b8 q8 d13 t43507 | 3>8 4>7",
        "b7 q7 d13 t43507 | 3>1 4>8 0>7",
        "b6 q6 d13 t43507 | 3>4 6>1 0>8 2>7",
        "b5 q5 d19 t63894 | 3>9 0>4 2>1 4>8 6>7",
        "b4 q4 d27 t97468 | 3>2 6>9 0>4 4>1 2>8 5>7",
        "b3 deadlock",
        "b2 deadlock",
        "b1 deadlock",
    };
    const std::vector<std::string> two_layers = {
        "v q12 d14 t34080 |",
        "v q11 d19 t51027 | 2>9",
        "v q10 d21 t54627 | 2>9 3>1",
        "v q9 d22 t56427 | 2>9 3>1 5>6",
        "v q8 d23 t58227 | 2>9 3>1 5>6 7>10",
        "v q7 d30 t78774 | 2>11 3>8 5>6 7>10 1>9",
        "b12 q12 d14 t34080 |",
        "b11 q11 d20 t52827 | 9>5",
        "b10 q10 d21 t54627 | 9>3 0>5",
        "b9 q9 d22 t56427 | 9>2 0>3 10>5",
        "b8 q8 d23 t58227 | 9>7 0>2 10>3 1>5",
        "b7 q7 d29 t76974 | 9>4 10>7 0>2 1>3 6>5",
        "b6 deadlock",
        "b5 deadlock",
        "b4 deadlock",
        "b3 deadlock",
        "b2 deadlock",
        "b1 deadlock",
    };
    const std::vector<std::string> greedy = {
        "v q12 d9 t26720 |",
        "v q11 d11 t39907 | 11>8",
        "v q10 d13 t43507 | 11>8 4>1",
        "v q9 d13 t43507 | 11>8 4>1 10>2",
        "v q8 d14 t45307 | 11>8 4>1 10>2 0>9",
        "v q7 d20 t65694 | 11>8 4>1 10>2 0>9 3>11",
        "v q6 d35 t121455 | 1>7 11>6 8>4 2>3 5>1 0>9",
        "v q5 d29 t101068 | 8>5 1>7 2>3 9>4 4>0 5>10 3>11",
        "b12 q12 d9 t26720 |",
        "b11 q11 d13 t43507 | 8>11",
        "b10 q10 d13 t43507 | 8>10 1>11",
        "b9 q9 d13 t43507 | 8>0 1>10 9>11",
        "b8 q8 d14 t45307 | 8>4 1>0 9>10 2>11",
        "b7 q7 d18 t62094 | 8>3 1>4 9>0 2>10 5>11",
        "b6 q6 d28 t99268 | 8>7 1>3 2>4 9>0 5>10 7>11",
        "b5 q5 d29 t101068 | 8>5 1>7 2>3 9>4 4>0 5>10 3>11",
        "b4 deadlock",
        "b3 deadlock",
        "b2 deadlock",
        "b1 deadlock",
    };

    EXPECT_EQ(pin_lines(make_spec(10, 0.3, 11), 300), one_layer);
    CommutingSpec two = make_spec(12, 0.2, 8);
    two.layers = 2;
    EXPECT_EQ(pin_lines(two, 300), two_layers);
    // A limit of 0 sends every round through the greedy matcher.
    EXPECT_EQ(pin_lines(make_spec(12, 0.3, 3), 0), greedy);
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

    for (int threads : {3, 0, 4}) {
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
