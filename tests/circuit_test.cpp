/// Tests for the circuit IR: builders, validation, metrics, remapping,
/// and instruction timing models.
#include <gtest/gtest.h>

#include "circuit/circuit.h"
#include "circuit/gate.h"
#include "circuit/schedule.h"
#include "circuit/timing.h"
#include "transpile/sabre.h"

namespace caqr {
namespace {

using circuit::Circuit;
using circuit::GateKind;
using circuit::Instruction;

TEST(Gate, ArityTable)
{
    EXPECT_EQ(circuit::gate_arity(GateKind::kH), 1);
    EXPECT_EQ(circuit::gate_arity(GateKind::kCx), 2);
    EXPECT_EQ(circuit::gate_arity(GateKind::kCcx), 3);
    EXPECT_EQ(circuit::gate_arity(GateKind::kBarrier), 0);
    EXPECT_EQ(circuit::gate_num_params(GateKind::kRz), 1);
    EXPECT_EQ(circuit::gate_num_params(GateKind::kU), 3);
}

TEST(Gate, Classification)
{
    EXPECT_TRUE(circuit::is_two_qubit(GateKind::kRzz));
    EXPECT_FALSE(circuit::is_two_qubit(GateKind::kH));
    EXPECT_TRUE(circuit::is_unitary(GateKind::kSwap));
    EXPECT_FALSE(circuit::is_unitary(GateKind::kMeasure));
    EXPECT_FALSE(circuit::is_unitary(GateKind::kBarrier));
}

TEST(Gate, NameRoundTrip)
{
    for (GateKind kind :
         {GateKind::kH, GateKind::kX, GateKind::kRz, GateKind::kCx,
          GateKind::kRzz, GateKind::kMeasure, GateKind::kReset}) {
        GateKind parsed;
        ASSERT_TRUE(
            circuit::gate_kind_from_name(circuit::gate_name(kind), &parsed));
        EXPECT_EQ(parsed, kind);
    }
    GateKind dummy;
    EXPECT_FALSE(circuit::gate_kind_from_name("nope", &dummy));
}

TEST(Circuit, BuilderProducesInstructions)
{
    Circuit c(3, 3);
    c.h(0);
    c.cx(0, 1);
    c.rz(0.5, 2);
    c.measure(1, 1);
    ASSERT_EQ(c.size(), 4u);
    EXPECT_EQ(c.at(0).kind, GateKind::kH);
    EXPECT_EQ(c.at(1).qubits, (std::vector<int>{0, 1}));
    EXPECT_DOUBLE_EQ(c.at(2).params[0], 0.5);
    EXPECT_EQ(c.at(3).clbit, 1);
}

TEST(Circuit, ConditionedGate)
{
    Circuit c(1, 2);
    c.x_if(0, 1, 1);
    ASSERT_EQ(c.size(), 1u);
    EXPECT_TRUE(c.at(0).has_condition());
    EXPECT_EQ(c.at(0).condition_bit, 1);
    EXPECT_EQ(c.at(0).condition_value, 1);
}

TEST(Timing, ConditionedTwoQubitGateCostsAtLeastTwoQubitTime)
{
    // Regression: the model used to price a conditioned CX as a
    // conditioned one-qubit-class gate (867 dt < the 1800 dt CX),
    // because the condition check preceded the two-qubit check.
    Instruction conditioned_cx;
    conditioned_cx.kind = GateKind::kCx;
    conditioned_cx.qubits = {0, 1};
    conditioned_cx.condition_bit = 0;
    conditioned_cx.condition_value = 1;

    const circuit::LogicalDurations model;
    const double feedforward =
        circuit::LogicalDurations::kConditionedGate -
        circuit::LogicalDurations::kOneQubitGate;
    EXPECT_GE(model.duration(conditioned_cx),
              circuit::LogicalDurations::kTwoQubitGate);
    EXPECT_DOUBLE_EQ(model.duration(conditioned_cx),
                     circuit::LogicalDurations::kTwoQubitGate +
                         feedforward);

    // Conditioned one-qubit gates keep the paper's calibrated value.
    Instruction conditioned_x;
    conditioned_x.kind = GateKind::kX;
    conditioned_x.qubits = {0};
    conditioned_x.condition_bit = 0;
    EXPECT_DOUBLE_EQ(model.duration(conditioned_x),
                     circuit::LogicalDurations::kConditionedGate);
}

TEST(Timing, ConditionedCxCircuitDepthAndDurationPinned)
{
    // measure q0 -> c0; if (c0) cx q0,q1 — a serial 2-instruction
    // chain: depth 2, duration = measure + feed-forward + CX.
    Circuit c(2, 1);
    c.measure(0, 0);
    Instruction cx;
    cx.kind = GateKind::kCx;
    cx.qubits = {0, 1};
    cx.condition_bit = 0;
    cx.condition_value = 1;
    c.append(std::move(cx));

    EXPECT_EQ(circuit::depth(c), 2);
    const circuit::LogicalDurations model;
    EXPECT_DOUBLE_EQ(circuit::critical_path(c, model),
                     circuit::LogicalDurations::kMeasure +
                         circuit::LogicalDurations::kConditionedGate -
                         circuit::LogicalDurations::kOneQubitGate +
                         circuit::LogicalDurations::kTwoQubitGate);
}

TEST(Circuit, GateCounts)
{
    Circuit c(4, 4);
    c.h(0);
    c.cx(0, 1);
    c.cz(1, 2);
    c.rzz(0.3, 2, 3);
    c.swap_gate(0, 3);
    c.measure(0, 0);
    c.measure(1, 1);
    EXPECT_EQ(c.two_qubit_gate_count(), 4);
    EXPECT_EQ(c.swap_count(), 1);
    EXPECT_EQ(c.measure_count(), 2);
}

TEST(Circuit, ActiveQubitCount)
{
    Circuit c(5, 0);
    c.h(0);
    c.cx(0, 2);
    EXPECT_EQ(c.num_qubits(), 5);
    EXPECT_EQ(c.active_qubit_count(), 2);
}

TEST(Circuit, InteractionGraph)
{
    Circuit c(4, 0);
    c.cx(0, 1);
    c.cx(0, 1);  // duplicate edge collapses
    c.rzz(0.1, 1, 2);
    c.h(3);
    const auto g = c.interaction_graph();
    EXPECT_EQ(g.num_edges(), 2);
    EXPECT_TRUE(g.has_edge(0, 1));
    EXPECT_TRUE(g.has_edge(1, 2));
    EXPECT_EQ(g.degree(3), 0);
}

TEST(Circuit, InstructionsOnQubit)
{
    Circuit c(3, 3);
    c.h(0);
    c.cx(0, 1);
    c.barrier();
    c.h(1);
    c.measure(0, 0);
    const auto on0 = c.instructions_on_qubit(0);
    EXPECT_EQ(on0, (std::vector<int>{0, 1, 4}));
    const auto on2 = c.instructions_on_qubit(2);
    EXPECT_TRUE(on2.empty());
}

TEST(Circuit, RemapQubits)
{
    Circuit c(3, 3);
    c.h(0);
    c.cx(0, 2);
    c.measure(2, 2);
    const auto mapped = c.remap_qubits({2, 1, 0});
    EXPECT_EQ(mapped.at(0).qubits[0], 2);
    EXPECT_EQ(mapped.at(1).qubits, (std::vector<int>{2, 0}));
    EXPECT_EQ(mapped.at(2).clbit, 2);  // clbits untouched
}

TEST(Circuit, RemapWithExplicitWidth)
{
    Circuit c(2, 0);
    c.h(1);
    const auto mapped = c.remap_qubits({0, 1}, 10);
    EXPECT_EQ(mapped.num_qubits(), 10);
}

TEST(Circuit, AddQubitAndClbit)
{
    Circuit c(1, 0);
    EXPECT_EQ(c.add_qubit(), 1);
    EXPECT_EQ(c.add_clbit(), 0);
    EXPECT_EQ(c.num_qubits(), 2);
    EXPECT_EQ(c.num_clbits(), 1);
}

TEST(Circuit, ToStringMentionsGates)
{
    Circuit c(2, 2);
    c.h(0);
    c.measure(0, 1);
    const auto text = c.to_string();
    EXPECT_NE(text.find("h q0"), std::string::npos);
    EXPECT_NE(text.find("-> c1"), std::string::npos);
}

/// A circuit over @p width qubits whose barrier names the even ones:
/// 27 operands on 54 wires, more than an instruction keeps inline.
Circuit
wide_barrier_circuit(int width = 54)
{
    Circuit c(width, 1);
    c.h(0);
    c.cx(2, 4);
    Instruction barrier;
    barrier.kind = GateKind::kBarrier;
    for (int q = 0; q < width; q += 2) barrier.qubits.push_back(q);
    c.append(barrier);
    c.u(0.1, 0.2, 0.3, 52);
    c.measure(52, 0);
    return c;
}

std::vector<int>
evens(int count)
{
    std::vector<int> result;
    for (int i = 0; i < count; ++i) result.push_back(2 * i);
    return result;
}

TEST(Circuit, WideBarrierSurvivesCopyAndRewrites)
{
    const Circuit c = wide_barrier_circuit();
    ASSERT_EQ(c.at(2).qubits.size(), 27u);
    EXPECT_FALSE(c.at(2).qubits.is_inline());
    EXPECT_EQ(c.at(2).qubits, evens(27));
    EXPECT_EQ(c.at(3).params, (std::vector<double>{0.1, 0.2, 0.3}));

    const Circuit copy = c;
    EXPECT_EQ(copy.at(2).qubits, evens(27));
    EXPECT_NE(copy.at(2).qubits.data(), c.at(2).qubits.data());

    const Circuit back = c.reversed();
    EXPECT_EQ(back.at(2).qubits, evens(27));
    EXPECT_EQ(back.at(1).params, (std::vector<double>{0.1, 0.2, 0.3}));
    EXPECT_EQ(back.reversed().at(2).qubits, evens(27));

    std::vector<int> flip(54);
    for (int q = 0; q < 54; ++q) flip[static_cast<std::size_t>(q)] = 53 - q;
    const Circuit flipped = c.remap_qubits(flip);
    std::vector<int> odd_descending;
    for (int q = 53; q >= 1; q -= 2) odd_descending.push_back(q);
    EXPECT_EQ(flipped.at(2).qubits, odd_descending);
    EXPECT_EQ(flipped.at(1).qubits, (std::vector<int>{51, 49}));

    // The barrier makes every even wire active and no odd one.
    std::vector<int> old_of_new;
    const Circuit dense = c.compacted(&old_of_new);
    EXPECT_EQ(dense.num_qubits(), 27);
    EXPECT_EQ(old_of_new, evens(27));
    std::vector<int> all(27);
    for (int q = 0; q < 27; ++q) all[static_cast<std::size_t>(q)] = q;
    EXPECT_EQ(dense.at(2).qubits, all);
    EXPECT_EQ(dense.at(1).qubits, (std::vector<int>{1, 2}));
    EXPECT_EQ(dense.at(4).qubits, (std::vector<int>{26}));
}

TEST(Circuit, WideBarrierIsGlobalInTheGateGraph)
{
    // The router's GateGraph orders every instruction through a barrier
    // whatever its operands: the wide barrier's edges equal those of
    // the operand-free one.
    const Circuit wide = wide_barrier_circuit();
    Circuit plain(54, 1);
    plain.h(0);
    plain.cx(2, 4);
    plain.barrier();
    plain.u(0.1, 0.2, 0.3, 52);
    plain.measure(52, 0);
    const transpile::GateGraph a(wide);
    const transpile::GateGraph b(plain);
    ASSERT_EQ(a.num_nodes(), b.num_nodes());
    for (int node = 0; node < a.num_nodes(); ++node) {
        EXPECT_EQ(a.in_degree(node), b.in_degree(node)) << node;
        const auto x = a.successors(node);
        const auto y = b.successors(node);
        EXPECT_EQ(std::vector<int>(x.begin(), x.end()),
                  std::vector<int>(y.begin(), y.end()))
            << node;
    }
    EXPECT_EQ(a.in_degree(2), 2);
    EXPECT_EQ(a.in_degree(3), 1);
}

TEST(CircuitDeath, RejectsBadOperands)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Circuit c(2, 1);
    EXPECT_DEATH(c.h(5), "out of range");
    EXPECT_DEATH(c.cx(1, 1), "identical operands");
    EXPECT_DEATH(c.measure(0, 3), "clbit out of range");
}

}  // namespace
}  // namespace caqr
