/**
 * @file
 * Slow reference implementations shared by the tests: a node-level
 * transitive closure, the splice-pricing table computed on a
 * CircuitDag, and a seeded random-circuit generator whose circuits
 * exercise barriers, shared clbits and conditioned gates.
 */
#ifndef CAQR_TESTS_ORACLE_H
#define CAQR_TESTS_ORACLE_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "circuit/circuit.h"
#include "circuit/dag.h"
#include "circuit/timing.h"
#include "core/reuse_analysis.h"
#include "graph/digraph.h"
#include "util/logging.h"
#include "util/rng.h"

namespace caqr::oracle {

/**
 * Transitive closure of DAG @p graph as a bit matrix: bit v of row u
 * (read with graph::Digraph::closure_bit) is set iff there is a
 * directed path u -> ... -> v of length >= 1. O(V*E/64).
 */
inline std::vector<std::vector<std::uint64_t>>
transitive_closure(const graph::Digraph& graph)
{
    const int n = graph.num_nodes();
    const std::size_t words = (static_cast<std::size_t>(n) + 63) / 64;
    std::vector<std::vector<std::uint64_t>> closure(
        static_cast<std::size_t>(n), std::vector<std::uint64_t>(words, 0));
    const auto order = graph.topological_order();
    CAQR_CHECK(order.has_value(), "transitive_closure requires a DAG");
    // Reverse topological order: each successor's row is complete
    // before it is merged.
    for (auto it = order->rbegin(); it != order->rend(); ++it) {
        auto& row = closure[static_cast<std::size_t>(*it)];
        for (int v : graph.successors(*it)) {
            row[static_cast<std::size_t>(v) >> 6] |=
                1ULL << (static_cast<std::size_t>(v) & 63);
            const auto& vrow = closure[static_cast<std::size_t>(v)];
            for (std::size_t w = 0; w < words; ++w) row[w] |= vrow[w];
        }
    }
    return closure;
}

/// The SpliceTiming table of @p dag under @p model, from the DAG's
/// node-level earliest-completion and longest-tail passes.
inline core::SpliceTiming
splice_timing(const circuit::CircuitDag& dag,
              const circuit::DurationModel& model)
{
    const auto& circuit = dag.circuit();
    std::vector<double> weights;
    weights.reserve(circuit.size());
    for (const auto& instr : circuit.instructions()) {
        weights.push_back(model.duration(instr));
    }
    const auto finish = dag.graph().earliest_completion(weights);
    const auto tail = dag.graph().longest_from(weights);

    core::SpliceTiming timing;
    const auto num_qubits = static_cast<std::size_t>(circuit.num_qubits());
    timing.qubit_finish.assign(num_qubits, 0.0);
    timing.qubit_tail.assign(num_qubits, 0.0);
    for (double f : finish) {
        timing.critical_path = std::max(timing.critical_path, f);
    }
    for (std::size_t q = 0; q < num_qubits; ++q) {
        for (int node : dag.nodes_on_qubit(static_cast<int>(q))) {
            timing.qubit_finish[q] = std::max(timing.qubit_finish[q],
                                              finish[node]);
            timing.qubit_tail[q] = std::max(timing.qubit_tail[q], tail[node]);
        }
    }
    return timing;
}

/// Seeded random circuit over @p qubits qubits: 1q/2q gates, measures
/// into a small shared clbit pool, x_if conditions and occasional
/// barriers.
inline circuit::Circuit
random_circuit(util::Rng& rng, int qubits)
{
    const int clbits = std::max(1, qubits / 4);
    circuit::Circuit c(qubits, clbits);
    const int gates = rng.next_int(qubits, 5 * qubits);
    for (int g = 0; g < gates; ++g) {
        const int q = rng.next_int(0, qubits - 1);
        const int kind = rng.next_int(0, 19);
        if (kind < 6) {
            c.h(q);
        } else if (kind < 13 && qubits > 1) {
            const int r = rng.next_int(0, qubits - 2);
            c.cx(q, r >= q ? r + 1 : r);
        } else if (kind < 16) {
            c.measure(q, rng.next_int(0, clbits - 1));
        } else if (kind < 19) {
            c.x_if(q, rng.next_int(0, clbits - 1), 1);
        } else {
            c.barrier();
        }
    }
    return c;
}

}  // namespace caqr::oracle

#endif  // CAQR_TESTS_ORACLE_H
