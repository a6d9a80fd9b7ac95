/**
 * @file
 * Reference gate-dependency DAG over a circuit (paper §3.2.1), the
 * specification the compiler's DAG-free passes are tested against.
 *
 * One node per instruction; edges follow the per-qubit and per-clbit
 * program order (a barrier orders everything before it against
 * everything after it). The DAG answers depth / duration via weighted
 * critical path, per-qubit gate groups, and qubit-level reachability
 * (reuse Conditions 1 and 2). Production code reads the same edges from
 * `transpile::GateGraph` and the same times from `circuit::Schedule`.
 */
#ifndef CAQR_TESTS_CIRCUIT_DAG_H
#define CAQR_TESTS_CIRCUIT_DAG_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "circuit/circuit.h"
#include "circuit/timing.h"
#include "digraph.h"
#include "util/logging.h"

namespace caqr::oracle {

/// Immutable dependency DAG of a circuit.
class CircuitDag
{
  public:
    /// Builds the DAG; @p circuit must outlive this object.
    explicit CircuitDag(const circuit::Circuit& circuit)
        : circuit_(&circuit),
          graph_(static_cast<int>(circuit.size())),
          per_qubit_(static_cast<std::size_t>(circuit.num_qubits()))
    {
        const auto& instrs = circuit.instructions();
        std::vector<int> last_on_qubit(
            static_cast<std::size_t>(circuit.num_qubits()), -1);
        std::vector<int> last_on_clbit(
            static_cast<std::size_t>(circuit.num_clbits()), -1);
        int last_barrier = -1;
        std::vector<int> since_barrier;  // nodes with no successor barrier yet

        for (int i = 0; i < static_cast<int>(instrs.size()); ++i) {
            const circuit::Instruction& instr = instrs[i];

            if (instr.kind == circuit::GateKind::kBarrier) {
                for (int node : since_barrier) graph_.add_edge(node, i);
                if (since_barrier.empty() && last_barrier >= 0) {
                    graph_.add_edge(last_barrier, i);
                }
                since_barrier.clear();
                last_barrier = i;
                std::fill(last_on_qubit.begin(), last_on_qubit.end(), -1);
                std::fill(last_on_clbit.begin(), last_on_clbit.end(), -1);
                continue;
            }

            bool has_pred = false;
            for (int q : instr.qubits) {
                if (last_on_qubit[q] >= 0 && last_on_qubit[q] != i) {
                    if (!graph_.has_edge(last_on_qubit[q], i)) {
                        graph_.add_edge(last_on_qubit[q], i);
                    }
                    has_pred = true;
                }
                last_on_qubit[q] = i;
                per_qubit_[q].push_back(i);
            }
            // Classical-bit ordering: measure writes, conditioned ops read.
            auto touch_clbit = [&](int bit) {
                if (bit < 0) return;
                if (last_on_clbit[bit] >= 0 && last_on_clbit[bit] != i &&
                    !graph_.has_edge(last_on_clbit[bit], i)) {
                    graph_.add_edge(last_on_clbit[bit], i);
                    has_pred = true;
                }
                last_on_clbit[bit] = i;
            };
            touch_clbit(instr.clbit);
            touch_clbit(instr.condition_bit);

            if (!has_pred && last_barrier >= 0) {
                graph_.add_edge(last_barrier, i);
            }
            since_barrier.push_back(i);
        }
    }

    const circuit::Circuit& circuit() const { return *circuit_; }

    /// Underlying digraph; node i corresponds to instruction i.
    const Digraph& graph() const { return graph_; }

    /// Circuit depth: critical path under unit weights per non-barrier
    /// instruction.
    int
    depth() const
    {
        return static_cast<int>(duration(circuit::UnitDepthModel{}) + 0.5);
    }

    /// Circuit duration (dt) under @p model.
    double
    duration(const circuit::DurationModel& model) const
    {
        std::vector<double> weights;
        weights.reserve(circuit_->size());
        for (const auto& instr : circuit_->instructions()) {
            weights.push_back(model.duration(instr));
        }
        return graph_.critical_path(weights);
    }

    /// Instruction indices acting on qubit @p q, program order.
    const std::vector<int>&
    nodes_on_qubit(int q) const
    {
        CAQR_CHECK(q >= 0 && q < circuit_->num_qubits(),
                   "qubit out of range");
        return per_qubit_[q];
    }

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
    bool
    qubit_reaches(int from, int to) const
    {
        CAQR_CHECK(from >= 0 && from < circuit_->num_qubits() && to >= 0 &&
                       to < circuit_->num_qubits(),
                   "qubit out of range");
        if (reach_.empty()) compute_reach();
        return Digraph::closure_bit(
            reach_[static_cast<std::size_t>(to)], from);
    }

  private:
    void
    compute_reach() const
    {
        const int num_qubits = circuit_->num_qubits();
        const int num_wires = num_qubits + circuit_->num_clbits();
        const std::size_t words =
            (static_cast<std::size_t>(num_qubits) + 63) / 64;
        // Wires 0..num_qubits-1 are the qubits, the rest the clbits.
        std::vector<std::vector<std::uint64_t>> wire_sets(
            static_cast<std::size_t>(num_wires),
            std::vector<std::uint64_t>(words, 0));
        reach_.assign(static_cast<std::size_t>(num_qubits),
                      std::vector<std::uint64_t>(words, 0));
        std::vector<std::uint64_t> joined(words);
        std::vector<int> wires;

        const auto& instrs = circuit_->instructions();
        for (int i = 0; i < static_cast<int>(instrs.size()); ++i) {
            const circuit::Instruction& instr = instrs[i];
            const bool barrier = instr.kind == circuit::GateKind::kBarrier;
            wires.clear();
            if (barrier) {
                for (int w = 0; w < num_wires; ++w) wires.push_back(w);
            } else {
                wires.assign(instr.qubits.begin(), instr.qubits.end());
                if (instr.clbit >= 0) {
                    wires.push_back(num_qubits + instr.clbit);
                }
                if (instr.condition_bit >= 0) {
                    wires.push_back(num_qubits + instr.condition_bit);
                }
            }

            std::fill(joined.begin(), joined.end(), 0);
            for (int w : wires) {
                const auto& set = wire_sets[static_cast<std::size_t>(w)];
                for (std::size_t k = 0; k < words; ++k) joined[k] |= set[k];
            }
            if (!barrier) {
                for (int q : instr.qubits) {
                    joined[static_cast<std::size_t>(q) >> 6] |=
                        1ULL << (static_cast<std::size_t>(q) & 63);
                }
            }
            for (int w : wires) {
                wire_sets[static_cast<std::size_t>(w)] = joined;
            }
            if (barrier) continue;
            for (int q : instr.qubits) {
                if (per_qubit_[q].back() == i) reach_[q] = joined;
            }
        }
    }

    const circuit::Circuit* circuit_;
    Digraph graph_;
    std::vector<std::vector<int>> per_qubit_;
    /// Lazy: reach_[q] is the bitset of qubits that reach qubit q.
    mutable std::vector<std::vector<std::uint64_t>> reach_;
};

}  // namespace caqr::oracle

#endif  // CAQR_TESTS_CIRCUIT_DAG_H
