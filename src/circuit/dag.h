/**
 * @file
 * Gate-dependency DAG over a circuit (paper §3.2.1).
 *
 * One node per instruction; edges follow the per-qubit and per-clbit
 * program order (a barrier orders everything before it against
 * everything after it). The DAG answers the queries the CaQR passes
 * need: depth / duration via weighted critical path, per-qubit gate
 * groups, qubit-level reachability (reuse Conditions 1 and 2), and
 * critical-path membership (used by SR-CaQR's gate delaying).
 */
#ifndef CAQR_CIRCUIT_DAG_H
#define CAQR_CIRCUIT_DAG_H

#include <cstdint>
#include <vector>

#include "circuit/circuit.h"
#include "circuit/timing.h"
#include "graph/digraph.h"

namespace caqr::circuit {

/// Immutable dependency DAG of a circuit.
class CircuitDag
{
  public:
    /// Builds the DAG; @p circuit must outlive this object.
    explicit CircuitDag(const Circuit& circuit);

    const Circuit& circuit() const { return *circuit_; }

    /// Underlying digraph; node i corresponds to instruction i.
    const graph::Digraph& graph() const { return graph_; }

    /// Circuit depth: critical path under unit weights per non-barrier
    /// instruction.
    int depth() const;

    /// Circuit duration (dt) under @p model.
    double duration(const DurationModel& model) const;

    /// Instruction indices acting on qubit @p q, program order.
    const std::vector<int>& nodes_on_qubit(int q) const;

    /**
     * True if some gate on qubit @p from is, or transitively precedes,
     * a gate on qubit @p to. Reuse pair (qi -> qj) is legal iff both
     * qubits are active, qi != qj and `!qubit_reaches(qj, qi)`: a gate
     * shared by the two (Condition 1) and a dependence of qi on qj
     * (Condition 2) both put qj in qi's past.
     *
     * Backed by per-wire reachability sets over qubits, built lazily in
     * one forward sweep: qubits and clbits are wires, a gate's wires
     * all take the union of their sets plus the gate's qubits, and a
     * barrier joins every wire. Each qubit's set is read as of its
     * *last gate* — a later barrier adds nothing to that qubit's past.
     */
    bool qubit_reaches(int from, int to) const;

    /**
     * Critical-path membership per instruction under @p model: node u is
     * on a critical path iff its earliest and latest completion times
     * coincide. Barriers are reported as non-critical.
     */
    std::vector<bool> critical_nodes(const DurationModel& model) const;

  private:
    void compute_reach() const;

    const Circuit* circuit_;
    graph::Digraph graph_;
    std::vector<std::vector<int>> per_qubit_;
    /// Lazy: reach_[q] is the bitset of qubits that reach qubit q.
    mutable std::vector<std::vector<std::uint64_t>> reach_;
};

}  // namespace caqr::circuit

#endif  // CAQR_CIRCUIT_DAG_H
