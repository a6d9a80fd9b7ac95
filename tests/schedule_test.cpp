/// Tests for the ASAP Schedule artifact (against the reference
/// dependency DAG), hand-checked depth, duration and dependence pins on
/// the production timing and `GateGraph`, and the backend's link lookup
/// on ids outside the device.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "arch/backend.h"
#include "arch/calibration.h"
#include "circuit/circuit.h"
#include "circuit/schedule.h"
#include "circuit/timing.h"
#include "circuit_dag.h"
#include "oracle.h"
#include "transpile/sabre.h"
#include "util/rng.h"

namespace caqr {
namespace {

using circuit::Circuit;
using circuit::LogicalDurations;
using circuit::Schedule;

TEST(Schedule, LinearChainTimes)
{
    Circuit c(1, 1);
    c.h(0);                 // 160
    c.x(0);                 // 160
    c.measure(0, 0);        // 15600
    LogicalDurations model;
    Schedule schedule(c, model);
    EXPECT_DOUBLE_EQ(schedule.start(0), 0.0);
    EXPECT_DOUBLE_EQ(schedule.finish(0), 160.0);
    EXPECT_DOUBLE_EQ(schedule.start(1), 160.0);
    EXPECT_DOUBLE_EQ(schedule.finish(2), 160.0 + 160.0 + 15'600.0);
    EXPECT_DOUBLE_EQ(schedule.makespan(), schedule.finish(2));
}

TEST(Schedule, ParallelWiresOverlap)
{
    Circuit c(2, 0);
    c.h(0);
    c.h(1);
    LogicalDurations model;
    Schedule schedule(c, model);
    EXPECT_DOUBLE_EQ(schedule.start(0), 0.0);
    EXPECT_DOUBLE_EQ(schedule.start(1), 0.0);
    EXPECT_DOUBLE_EQ(schedule.makespan(), 160.0);
}

TEST(Schedule, IdleGapBeforeLateGate)
{
    // q1 idles while q0 runs a long chain, then a CX joins them.
    Circuit c(2, 0);
    c.h(1);                 // finishes at 160
    for (int i = 0; i < 5; ++i) c.h(0);  // q0 busy until 800
    c.cx(0, 1);             // starts at 800; q1 idled 800 - 160 = 640
    LogicalDurations model;
    Schedule schedule(c, model);
    const std::size_t cx_index = c.size() - 1;
    EXPECT_DOUBLE_EQ(schedule.idle_gap_before(cx_index, 1), 640.0);
    EXPECT_DOUBLE_EQ(schedule.idle_gap_before(cx_index, 0), 0.0);
    // Untouched operand / non-operand queries return 0.
    EXPECT_DOUBLE_EQ(schedule.idle_gap_before(0, 0), 0.0);
}

TEST(Schedule, ActivityAccounting)
{
    Circuit c(2, 0);
    c.h(0);
    c.h(0);
    c.h(1);
    LogicalDurations model;
    Schedule schedule(c, model);
    const auto& a0 = schedule.activity(0);
    EXPECT_TRUE(a0.touched);
    EXPECT_DOUBLE_EQ(a0.busy, 320.0);
    EXPECT_DOUBLE_EQ(a0.idle(), 0.0);
    const auto& a1 = schedule.activity(1);
    EXPECT_DOUBLE_EQ(a1.busy, 160.0);
}

TEST(Schedule, UntouchedQubit)
{
    Circuit c(3, 0);
    c.h(0);
    LogicalDurations model;
    Schedule schedule(c, model);
    EXPECT_FALSE(schedule.activity(2).touched);
}

/// Idle gap before instruction @p index on qubit @p q, from the DAG's
/// finish times: the gap since the latest earlier instruction on q.
double
reference_idle_gap(const Circuit& c, const std::vector<double>& finish,
                   const std::vector<double>& duration, std::size_t index,
                   int q)
{
    const auto& operands = c.at(index).qubits;
    if (std::find(operands.begin(), operands.end(), q) == operands.end()) {
        return 0.0;
    }
    double prev = -1.0;
    for (std::size_t j = 0; j < index; ++j) {
        const auto& qubits = c.at(j).qubits;
        if (std::find(qubits.begin(), qubits.end(), q) != qubits.end()) {
            prev = std::max(prev, finish[j]);
        }
    }
    if (prev < 0.0) return 0.0;
    const double gap = finish[index] - duration[index] - prev;
    return gap > 1e-9 ? gap : 0.0;
}

TEST(Schedule, MatchesDagOnRandomCircuits)
{
    // The per-wire-clock ASAP pass against the dependency DAG, exactly:
    // barriers, shared clbits and x_if conditions included.
    const auto backend = arch::Backend::fake_mumbai();
    const LogicalDurations logical;
    const circuit::UnitDepthModel unit;
    const arch::CalibratedDurations calibrated(backend);
    const circuit::DurationModel* models[] = {&logical, &unit, &calibrated};
    for (int i = 0; i < 300; ++i) {
        util::Rng rng(5000 + i);
        const Circuit c = oracle::random_circuit(rng, 1 + i % 27);
        const oracle::CircuitDag dag(c);
        EXPECT_EQ(circuit::depth(c), dag.depth()) << "circuit " << i;
        for (const auto* model : models) {
            std::vector<double> duration;
            for (const auto& instr : c.instructions()) {
                duration.push_back(model->duration(instr));
            }
            const auto finish = dag.graph().earliest_completion(duration);
            const Schedule schedule(c, *model);
            double makespan = 0.0;
            for (std::size_t k = 0; k < c.size(); ++k) {
                ASSERT_EQ(schedule.finish(k), finish[k])
                    << "circuit " << i << " instr " << k;
                makespan = std::max(makespan, finish[k]);
                for (int q = 0; q < c.num_qubits(); ++q) {
                    ASSERT_EQ(schedule.idle_gap_before(k, q),
                              reference_idle_gap(c, finish, duration, k, q))
                        << "circuit " << i << " instr " << k << " q" << q;
                }
            }
            EXPECT_EQ(schedule.makespan(), makespan) << "circuit " << i;
            EXPECT_EQ(circuit::critical_path(c, *model),
                      dag.duration(*model))
                << "circuit " << i;
        }
    }
}

TEST(Schedule, BarrierJoinsEveryWire)
{
    // q1 waits at the barrier for q0's chain, and the measure on q2
    // after it starts no earlier than the barrier.
    Circuit c(3, 1);
    c.h(0);
    c.h(0);
    c.h(1);
    c.barrier();
    c.h(1);
    c.measure(2, 0);
    LogicalDurations model;
    const Schedule schedule(c, model);
    EXPECT_EQ(schedule.start(4), 320.0);
    EXPECT_EQ(schedule.start(5), 320.0);
    EXPECT_EQ(circuit::critical_path(c, model), 320.0 + 15'600.0);
    EXPECT_EQ(circuit::critical_path(Circuit(2, 0), model), 0.0);
}

// ---------------------------------------------------------------------
// Hand-checked pins: depth and duration from the ASAP pass, dependence
// edges from the router's GateGraph.
// ---------------------------------------------------------------------

bool
has_edge(const transpile::GateGraph& graph, int u, int v)
{
    const auto succ = graph.successors(u);
    return std::find(succ.begin(), succ.end(), v) != succ.end();
}

int
num_edges(const transpile::GateGraph& graph)
{
    int edges = 0;
    for (int u = 0; u < graph.num_nodes(); ++u) edges += graph.in_degree(u);
    return edges;
}

TEST(Dependency, LinearChainDepth)
{
    Circuit c(1, 0);
    c.h(0);
    c.x(0);
    c.z(0);
    EXPECT_EQ(circuit::depth(c), 3);
    EXPECT_EQ(num_edges(transpile::GateGraph(c)), 2);
}

TEST(Dependency, ParallelGatesShareDepth)
{
    Circuit c(3, 0);
    c.h(0);
    c.h(1);
    c.h(2);
    EXPECT_EQ(circuit::depth(c), 1);
    EXPECT_EQ(num_edges(transpile::GateGraph(c)), 0);
}

TEST(Dependency, TwoQubitGateJoinsWires)
{
    Circuit c(2, 0);
    c.h(0);
    c.h(1);
    c.cx(0, 1);
    c.h(1);
    EXPECT_EQ(circuit::depth(c), 3);
    const transpile::GateGraph graph(c);
    EXPECT_TRUE(has_edge(graph, 0, 2));
    EXPECT_TRUE(has_edge(graph, 1, 2));
    EXPECT_TRUE(has_edge(graph, 2, 3));
}

TEST(Dependency, BarrierOrdersAcrossWires)
{
    Circuit c(2, 0);
    c.h(0);
    c.barrier();
    c.h(1);
    // Without the barrier depth would be 1; the barrier forces h(1)
    // after h(0).
    EXPECT_EQ(circuit::depth(c), 2);
}

TEST(Dependency, ClassicalDependencyMeasureThenConditioned)
{
    Circuit c(2, 1);
    c.measure(0, 0);
    c.x_if(1, 0, 1);
    EXPECT_TRUE(has_edge(transpile::GateGraph(c), 0, 1));
}

TEST(Dependency, DurationUsesModelWeights)
{
    Circuit c(2, 2);
    c.h(0);
    c.cx(0, 1);
    c.measure(1, 1);
    LogicalDurations model;
    EXPECT_DOUBLE_EQ(circuit::critical_path(c, model),
                     LogicalDurations::kOneQubitGate +
                         LogicalDurations::kTwoQubitGate +
                         LogicalDurations::kMeasure);
}

TEST(Dependency, ConditionedGateUsesFeedforwardDuration)
{
    Circuit c(1, 1);
    c.measure(0, 0);
    c.x_if(0, 0, 1);
    LogicalDurations model;
    // The paper's Fig 2(b) pair: 15,600 + 867 = 16,467 dt.
    EXPECT_DOUBLE_EQ(circuit::critical_path(c, model), 16'467.0);
}

TEST(Dependency, BuiltinResetIsSlower)
{
    Circuit c(1, 1);
    c.measure(0, 0);
    c.reset(0);
    LogicalDurations model;
    // Fig 2(a): 15,600 + 17,579 = 33,179 dt, ~2x the conditional form.
    EXPECT_DOUBLE_EQ(circuit::critical_path(c, model), 33'179.0);
}

TEST(CalibrationTable, OutOfRangeIdsHaveNoLink)
{
    const auto backend = arch::Backend::fake_mumbai();
    EXPECT_EQ(backend.find_link(-1, 0), nullptr);
    EXPECT_EQ(backend.find_link(0, -1), nullptr);
    EXPECT_EQ(backend.find_link(-3, -2), nullptr);
    EXPECT_EQ(backend.find_link(27, 28), nullptr);
    EXPECT_EQ(backend.find_link(1, 1000), nullptr);
    EXPECT_EQ(backend.find_link(1 << 30, 0), nullptr);
    graph::UndirectedGraph no_links(2);
    const arch::Backend bare("bare", no_links,
                             arch::Calibration::synthesize(no_links));
    EXPECT_EQ(bare.find_link(0, 1), nullptr);
}

}  // namespace
}  // namespace caqr
