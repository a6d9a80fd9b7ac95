/// Tests for the reference gate-dependency DAG (`circuit_dag.h`) and
/// what is checked against it: its reuse legality and splice-cost fast
/// paths against the transitive closure and an explicitly extended DAG,
/// and the router's `GateGraph` against its edges.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "apps/benchmarks.h"
#include "circuit/timing.h"
#include "circuit_dag.h"
#include "core/reuse_analysis.h"
#include "digraph.h"
#include "oracle.h"
#include "transpile/decompose.h"
#include "transpile/sabre.h"
#include "util/rng.h"

namespace caqr {
namespace {

using circuit::Circuit;
using circuit::LogicalDurations;
using circuit::UnitDepthModel;
using oracle::CircuitDag;

TEST(Dag, NodesOnQubit)
{
    Circuit c(2, 0);
    c.h(0);
    c.cx(0, 1);
    c.h(1);
    CircuitDag dag(c);
    EXPECT_EQ(dag.nodes_on_qubit(0), (std::vector<int>{0, 1}));
    EXPECT_EQ(dag.nodes_on_qubit(1), (std::vector<int>{1, 2}));
}

TEST(Dag, SharedGateReachesBothWays)
{
    Circuit c(3, 0);
    c.cx(0, 1);
    CircuitDag dag(c);
    EXPECT_TRUE(dag.qubit_reaches(0, 1));
    EXPECT_TRUE(dag.qubit_reaches(1, 0));
    EXPECT_FALSE(dag.qubit_reaches(0, 2));
    EXPECT_FALSE(dag.qubit_reaches(2, 0));
}

TEST(Dag, QubitReachesTransitively)
{
    // Fig 7-style: g(q0,q1), g(q1,q2): ops on q2 depend on ops on q0.
    Circuit c(3, 0);
    c.cx(0, 1);
    c.cx(1, 2);
    CircuitDag dag(c);
    EXPECT_TRUE(dag.qubit_reaches(0, 2));
    EXPECT_FALSE(dag.qubit_reaches(2, 0));
}

TEST(Dag, QubitReachesThroughClbits)
{
    // measure q0 -> c0, then x_if(q1, c0): q1 depends on q0 without a
    // shared gate.
    Circuit c(2, 1);
    c.measure(0, 0);
    c.x_if(1, 0, 1);
    CircuitDag dag(c);
    EXPECT_TRUE(dag.qubit_reaches(0, 1));
    EXPECT_FALSE(dag.qubit_reaches(1, 0));
}

TEST(SpliceTiming, ClosedFormAddsDummy)
{
    // Two independent wires; reusing q0's wire for q1 serializes them.
    Circuit c(2, 0);
    c.h(0);
    c.h(1);
    CircuitDag dag(c);
    const auto timing = oracle::splice_timing(dag, UnitDepthModel{});
    EXPECT_DOUBLE_EQ(timing.critical_path, 1.0);
    EXPECT_DOUBLE_EQ(timing.spliced_critical_path({0, 1}, 1.0), 3.0);
    EXPECT_DOUBLE_EQ(timing.spliced_critical_path({0, 1}, 0.0), 2.0);
}

TEST(Dag, BvStructureMatchesPaper)
{
    // BV over n qubits: depth is constant-ish (H layer, CX fan-in
    // serializes on the ancilla, H layer, measure).
    const auto bv = apps::bv_circuit(5);
    CircuitDag dag(bv);
    // Ancilla wire dominates: X, H, 4 serialized CXs, H, measure = 8.
    EXPECT_EQ(dag.depth(), 8);
}

// ---------------------------------------------------------------------
// Fast paths vs their slow oracles
// ---------------------------------------------------------------------

/// reaches[a][b] = some gate on qubit a is, or transitively precedes,
/// a gate on qubit b — computed from the full node-level transitive
/// closure.
std::vector<std::vector<bool>>
qubit_reachability(const CircuitDag& dag)
{
    const Circuit& c = dag.circuit();
    const auto n = static_cast<std::size_t>(c.num_qubits());
    const auto closure = oracle::transitive_closure(dag.graph());
    std::vector<std::vector<bool>> reaches(n, std::vector<bool>(n, false));
    for (std::size_t a = 0; a < c.size(); ++a) {
        for (std::size_t b = 0; b < c.size(); ++b) {
            if (a != b &&
                !oracle::Digraph::closure_bit(closure[a],
                                             static_cast<int>(b))) {
                continue;
            }
            if (c.at(a).kind == circuit::GateKind::kBarrier ||
                c.at(b).kind == circuit::GateKind::kBarrier) {
                continue;
            }
            for (int qa : c.at(a).qubits) {
                for (int qb : c.at(b).qubits) reaches[qa][qb] = true;
            }
        }
    }
    return reaches;
}

void
expect_matches_closure(const Circuit& c, const std::string& context)
{
    CircuitDag dag(c);
    const auto reaches = qubit_reachability(dag);
    std::vector<core::ReusePair> valid_pairs;
    for (int a = 0; a < c.num_qubits(); ++a) {
        for (int b = 0; b < c.num_qubits(); ++b) {
            ASSERT_EQ(dag.qubit_reaches(a, b), reaches[a][b])
                << context << " qubits " << a << " -> " << b;
            const bool valid = a != b && !dag.nodes_on_qubit(a).empty() &&
                               !dag.nodes_on_qubit(b).empty() &&
                               !reaches[b][a];
            ASSERT_EQ(oracle::is_valid_reuse_pair(dag, a, b), valid)
                << context << " pair " << a << " -> " << b;
            if (valid) valid_pairs.push_back(core::ReusePair{a, b});
        }
    }
    EXPECT_EQ(oracle::find_reuse_pairs(dag), valid_pairs) << context;
}

TEST(WireReachability, MatchesClosureOnSmallRandomCircuits)
{
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        util::Rng rng(seed);
        const Circuit c = oracle::random_circuit(rng, rng.next_int(2, 12));
        expect_matches_closure(c, "seed " + std::to_string(seed));
    }
}

TEST(WireReachability, MatchesClosureOnLargeRandomCircuits)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        util::Rng rng(1000 + seed);
        const Circuit c =
            oracle::random_circuit(rng, rng.next_int(100, 140));
        expect_matches_closure(c, "seed " + std::to_string(seed));
    }
}

TEST(WireReachability, TrailingBarrierDoesNotJoinFinishedQubits)
{
    // q0's only gate precedes the barrier, so nothing after it joins
    // q0's past: reading q0's set at the end of the circuit instead of
    // at its last gate would wrongly reject (q0 -> q1).
    Circuit c(3, 0);
    c.h(0);
    c.h(1);
    c.h(2);
    c.barrier();
    c.x(1);
    c.barrier();
    CircuitDag dag(c);
    EXPECT_FALSE(dag.qubit_reaches(1, 0));
    EXPECT_TRUE(dag.qubit_reaches(0, 1));
    EXPECT_TRUE(oracle::is_valid_reuse_pair(dag, 0, 1));
    EXPECT_TRUE(oracle::is_valid_reuse_pair(dag, 2, 1));
    EXPECT_FALSE(oracle::is_valid_reuse_pair(dag, 1, 0));
    // Both untouched by the second barrier: either order is legal.
    EXPECT_TRUE(oracle::is_valid_reuse_pair(dag, 0, 2));
    EXPECT_TRUE(oracle::is_valid_reuse_pair(dag, 2, 0));
    expect_matches_closure(c, "trailing barrier");
}

TEST(SpliceTiming, MatchesExtendedDagLongestPath)
{
    // For every valid pair, the closed form equals the critical path of
    // the DAG extended with an explicit measure/reset dummy node.
    const LogicalDurations durations;
    const UnitDepthModel unit;
    const double dummy_duration =
        LogicalDurations::kMeasure + LogicalDurations::kConditionedGate;
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        util::Rng rng(seed);
        const Circuit c = oracle::random_circuit(rng, rng.next_int(2, 12));
        CircuitDag dag(c);
        for (const auto& [model, dummy_weight] :
             {std::pair<const circuit::DurationModel*, double>{&unit, 1.0},
              {&durations, dummy_duration}}) {
            const auto timing = oracle::splice_timing(dag, *model);
            std::vector<double> weights;
            for (const auto& instr : c.instructions()) {
                weights.push_back(model->duration(instr));
            }
            weights.push_back(dummy_weight);
            for (const auto& pair : oracle::find_reuse_pairs(dag)) {
                oracle::Digraph extended = dag.graph();
                const int dummy = extended.add_node();
                for (int node : dag.nodes_on_qubit(pair.source)) {
                    extended.add_edge(node, dummy);
                }
                for (int node : dag.nodes_on_qubit(pair.target)) {
                    extended.add_edge(dummy, node);
                }
                ASSERT_FALSE(extended.has_cycle());
                EXPECT_DOUBLE_EQ(
                    timing.spliced_critical_path(pair, dummy_weight),
                    extended.critical_path(weights))
                    << "seed " << seed << " pair " << pair.source << " -> "
                    << pair.target;
            }
        }
    }
}

// ---------------------------------------------------------------------
// The router's successor table against the reference DAG
// ---------------------------------------------------------------------

/// @p graph's successor lists, in stored order.
std::vector<std::vector<int>>
successor_lists(const transpile::GateGraph& graph)
{
    std::vector<std::vector<int>> lists;
    for (int u = 0; u < graph.num_nodes(); ++u) {
        const auto succ = graph.successors(u);
        lists.emplace_back(succ.begin(), succ.end());
    }
    return lists;
}

void
expect_graph_matches_dag(const Circuit& c, const std::string& context)
{
    const CircuitDag dag(c);
    const transpile::GateGraph graph(c);
    ASSERT_EQ(graph.num_nodes(), dag.graph().num_nodes()) << context;
    const auto lists = successor_lists(graph);
    for (int u = 0; u < graph.num_nodes(); ++u) {
        ASSERT_EQ(graph.in_degree(u), dag.graph().in_degree(u))
            << context << " node " << u;
        ASSERT_EQ(lists[u], dag.graph().successors(u))
            << context << " node " << u;
    }
}

TEST(GateGraph, MatchesReferenceDagOnRandomCircuits)
{
    // Ordered successor lists and predecessor counts, exactly: barriers,
    // shared clbits and x_if conditions included, before and after
    // lowering to the native gate set.
    for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
        util::Rng rng(7000 + seed);
        const Circuit c = oracle::random_circuit(rng, rng.next_int(1, 24));
        const std::string context = "seed " + std::to_string(seed);
        expect_graph_matches_dag(c, context);
        expect_graph_matches_dag(transpile::decompose_to_native(c),
                                 context + " native");
    }
}

TEST(GateGraph, BarrierDependsOnEveryGateSinceThePreviousBarrier)
{
    // Instruction 0 is not the last on its wire, yet the barrier
    // depends on it: a barrier-as-gate-on-every-wire rule drops 0 -> 2.
    Circuit c(2, 0);
    c.h(0);
    c.h(0);
    c.barrier();
    c.h(1);
    const transpile::GateGraph graph(c);
    EXPECT_EQ(successor_lists(graph),
              (std::vector<std::vector<int>>{{1, 2}, {2}, {3}, {}}));
    EXPECT_EQ(graph.in_degree(2), 2);
    expect_graph_matches_dag(c, "h h barrier h");
}

TEST(GateGraph, GateAfterABarrierOrdersThroughItsWirePredecessor)
{
    // cx depends on h(0) alone: only a gate with no wire predecessor
    // depends on the barrier, so there is no edge barrier -> cx.
    Circuit c(2, 0);
    c.barrier();
    c.h(0);
    c.cx(0, 1);
    const transpile::GateGraph graph(c);
    EXPECT_EQ(successor_lists(graph),
              (std::vector<std::vector<int>>{{1}, {2}, {}}));
    EXPECT_EQ(graph.in_degree(2), 1);
    expect_graph_matches_dag(c, "barrier h cx");
}

}  // namespace
}  // namespace caqr
