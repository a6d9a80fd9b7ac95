#include <cmath>
#include "circuit/dag.h"

#include <algorithm>

#include "util/logging.h"

namespace caqr::circuit {

CircuitDag::CircuitDag(const Circuit& circuit)
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
        const Instruction& instr = instrs[i];

        if (instr.kind == GateKind::kBarrier) {
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

namespace {

std::vector<double>
node_weights(const Circuit& circuit, const DurationModel& model)
{
    std::vector<double> weights;
    weights.reserve(circuit.size());
    for (const auto& instr : circuit.instructions()) {
        weights.push_back(model.duration(instr));
    }
    return weights;
}

}  // namespace

int
CircuitDag::depth() const
{
    UnitDepthModel model;
    return static_cast<int>(duration(model) + 0.5);
}

double
CircuitDag::duration(const DurationModel& model) const
{
    return graph_.critical_path(node_weights(*circuit_, model));
}

const std::vector<int>&
CircuitDag::nodes_on_qubit(int q) const
{
    CAQR_CHECK(q >= 0 && q < circuit_->num_qubits(), "qubit out of range");
    return per_qubit_[q];
}

void
CircuitDag::compute_reach() const
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
        const Instruction& instr = instrs[i];
        const bool barrier = instr.kind == GateKind::kBarrier;
        wires.clear();
        if (barrier) {
            for (int w = 0; w < num_wires; ++w) wires.push_back(w);
        } else {
            wires = instr.qubits;
            if (instr.clbit >= 0) wires.push_back(num_qubits + instr.clbit);
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
        for (int w : wires) wire_sets[static_cast<std::size_t>(w)] = joined;
        if (barrier) continue;
        for (int q : instr.qubits) {
            if (per_qubit_[q].back() == i) reach_[q] = joined;
        }
    }
}

bool
CircuitDag::qubit_reaches(int from, int to) const
{
    CAQR_CHECK(from >= 0 && from < circuit_->num_qubits() && to >= 0 &&
                   to < circuit_->num_qubits(),
               "qubit out of range");
    if (reach_.empty()) compute_reach();
    return graph::Digraph::closure_bit(reach_[static_cast<std::size_t>(to)],
                                       from);
}

std::vector<bool>
CircuitDag::critical_nodes(const DurationModel& model) const
{
    const auto weights = node_weights(*circuit_, model);
    const auto earliest = graph_.earliest_completion(weights);
    const auto latest = graph_.latest_completion(weights);
    std::vector<bool> result(circuit_->size(), false);
    for (std::size_t u = 0; u < result.size(); ++u) {
        if (circuit_->at(u).kind == GateKind::kBarrier) continue;
        result[u] = std::abs(earliest[u] - latest[u]) < 1e-9;
    }
    return result;
}

}  // namespace caqr::circuit
