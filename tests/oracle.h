/**
 * @file
 * Slow reference implementations shared by the tests: a node-level
 * transitive closure, the splice-pricing table computed on a
 * CircuitDag, a SABRE router that rescores every front-layer and
 * window gate for every candidate SWAP, and a seeded random-circuit
 * generator whose circuits exercise barriers, shared clbits and
 * conditioned gates.
 */
#ifndef CAQR_TESTS_ORACLE_H
#define CAQR_TESTS_ORACLE_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "arch/backend.h"
#include "circuit/circuit.h"
#include "circuit/dag.h"
#include "circuit/timing.h"
#include "core/reuse_analysis.h"
#include "graph/digraph.h"
#include "transpile/router.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/status.h"

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

/**
 * SABRE routing as `transpile::route_or` does it, but scoring every
 * candidate SWAP by re-summing the distance of every front-layer and
 * window gate under the hypothetical mapping. No scratch reuse, no
 * SWAP bound; same result on success.
 */
inline util::StatusOr<transpile::RoutingResult>
route_full_rescore(const circuit::Circuit& logical,
                   const arch::Backend& backend,
                   const transpile::Layout& initial,
                   const transpile::RouterOptions& options = {})
{
    using circuit::Instruction;
    if (!transpile::is_valid_layout(initial, logical, backend)) {
        return util::Status::invalid_argument("invalid initial layout");
    }
    const auto distance = [&](int a, int b) {
        const int d = backend.distance(a, b);
        return d < 0 ? backend.num_qubits() * 2 : d;
    };
    const circuit::CircuitDag dag(logical);
    const int num_nodes = dag.graph().num_nodes();
    const int np = backend.num_qubits();

    std::vector<int> phys_of(initial.begin(), initial.end());
    std::vector<int> logical_of(static_cast<std::size_t>(np), -1);
    for (int l = 0; l < logical.num_qubits(); ++l) logical_of[initial[l]] = l;
    std::vector<double> decay(static_cast<std::size_t>(np), 0.0);
    std::vector<int> remaining(static_cast<std::size_t>(num_nodes));
    std::vector<int> frontier;
    const auto is_2q = [&](int node) {
        return circuit::is_two_qubit(
            logical.at(static_cast<std::size_t>(node)).kind);
    };
    for (int node = 0; node < num_nodes; ++node) {
        remaining[node] = dag.graph().in_degree(node);
        if (remaining[node] == 0) frontier.push_back(node);
    }

    circuit::Circuit output(np, logical.num_clbits());
    output.copy_params_from(logical);
    int swaps_added = 0;
    const auto apply_swap = [&](int pa, int pb) {
        Instruction swap;
        swap.kind = circuit::GateKind::kSwap;
        swap.qubits = {pa, pb};
        output.append(std::move(swap));
        ++swaps_added;
        const int la = logical_of[pa];
        const int lb = logical_of[pb];
        if (la >= 0) phys_of[la] = pb;
        if (lb >= 0) phys_of[lb] = pa;
        std::swap(logical_of[pa], logical_of[pb]);
    };

    std::vector<int> lookahead;
    bool lookahead_valid = false;
    int executed_groups = 0;
    int stall_streak = 0;
    long long stall_iterations = 0;
    const long long stall_limit = 4LL * num_nodes * np + 1000;
    while (!frontier.empty()) {
        std::vector<int> blocked;
        std::vector<int> ready;
        bool executed_any = false;
        for (int node : frontier) {
            const auto& instr = logical.at(static_cast<std::size_t>(node));
            if (is_2q(node) &&
                !backend.are_adjacent(phys_of[instr.qubits[0]],
                                      phys_of[instr.qubits[1]])) {
                blocked.push_back(node);
                continue;
            }
            Instruction mapped = instr;
            for (auto& q : mapped.qubits) q = phys_of[q];
            output.append(std::move(mapped));
            executed_any = true;
            for (int succ : dag.graph().successors(node)) {
                if (--remaining[succ] == 0) ready.push_back(succ);
            }
        }
        if (executed_any) {
            frontier = std::move(blocked);
            frontier.insert(frontier.end(), ready.begin(), ready.end());
            lookahead_valid = false;
            stall_streak = 0;
            if (++executed_groups % options.decay_reset_interval == 0) {
                std::fill(decay.begin(), decay.end(), 0.0);
            }
            continue;
        }
        if (++stall_iterations >= stall_limit) {
            return util::Status::infeasible("router failed to make progress");
        }
        if (stall_streak >= std::max(0, options.stall_escape_after)) {
            const int oldest =
                *std::min_element(frontier.begin(), frontier.end());
            const auto& instr = logical.at(static_cast<std::size_t>(oldest));
            while (!backend.are_adjacent(phys_of[instr.qubits[0]],
                                         phys_of[instr.qubits[1]])) {
                const int pa = phys_of[instr.qubits[0]];
                const int pb = phys_of[instr.qubits[1]];
                int hop = -1;
                for (int nb : backend.topology().neighbors(pa)) {
                    if (distance(nb, pb) < distance(pa, pb)) {
                        hop = nb;
                        break;
                    }
                }
                if (hop < 0) {
                    return util::Status::infeasible("disconnected operands");
                }
                apply_swap(pa, hop);
            }
            stall_streak = 0;
            continue;
        }

        if (!lookahead_valid) {
            // Up to lookahead_size two-qubit gates past the frontier,
            // in BFS order over successors.
            lookahead.clear();
            std::vector<bool> seen(static_cast<std::size_t>(num_nodes), false);
            std::vector<int> queue;
            for (int node : frontier) {
                seen[node] = true;
                queue.push_back(node);
            }
            std::size_t head = 0;
            while (head < queue.size() &&
                   static_cast<int>(lookahead.size()) <
                       options.lookahead_size) {
                const int node = queue[head++];
                for (int succ : dag.graph().successors(node)) {
                    if (seen[succ]) continue;
                    seen[succ] = true;
                    queue.push_back(succ);
                    if (is_2q(succ)) {
                        lookahead.push_back(succ);
                        if (static_cast<int>(lookahead.size()) >=
                            options.lookahead_size) {
                            break;
                        }
                    }
                }
            }
            lookahead_valid = true;
        }

        std::vector<std::pair<int, int>> candidates;
        for (int node : frontier) {
            const auto& instr = logical.at(static_cast<std::size_t>(node));
            for (int operand : instr.qubits) {
                const int p = phys_of[operand];
                for (int nb : backend.topology().neighbors(p)) {
                    candidates.emplace_back(std::min(p, nb), std::max(p, nb));
                }
            }
        }
        std::sort(candidates.begin(), candidates.end());
        candidates.erase(std::unique(candidates.begin(), candidates.end()),
                         candidates.end());
        if (candidates.empty()) {
            return util::Status::infeasible("no candidate swaps");
        }

        double best_score = std::numeric_limits<double>::infinity();
        std::pair<int, int> best{-1, -1};
        for (const auto& [pa, pb] : candidates) {
            const auto mapped = [&](int q) {
                const int p = phys_of[q];
                return p == pa ? pb : p == pb ? pa : p;
            };
            const auto gate_distance = [&](int node) {
                const auto& instr = logical.at(static_cast<std::size_t>(node));
                return distance(mapped(instr.qubits[0]),
                                mapped(instr.qubits[1]));
            };
            double front_cost = 0.0;
            for (int node : frontier) front_cost += gate_distance(node);
            front_cost /= static_cast<double>(frontier.size());
            double look_cost = 0.0;
            if (!lookahead.empty()) {
                for (int node : lookahead) look_cost += gate_distance(node);
                look_cost *= options.lookahead_weight /
                             static_cast<double>(lookahead.size());
            }
            double link_bias = 0.0;
            if (options.error_aware && backend.calibration().has_link(pa, pb)) {
                link_bias = backend.calibration().link(pa, pb).cx_error;
            }
            const double score = transpile::combine_swap_score(
                front_cost, look_cost, std::max(decay[pa], decay[pb]) + 1.0,
                link_bias);
            if (score < best_score) {
                best_score = score;
                best = {pa, pb};
            }
        }
        apply_swap(best.first, best.second);
        decay[best.first] += options.decay_delta;
        decay[best.second] += options.decay_delta;
        ++stall_streak;
    }

    transpile::RoutingResult result;
    result.circuit = std::move(output);
    result.swaps_added = swaps_added;
    result.final_layout.assign(phys_of.begin(), phys_of.end());
    return result;
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
