/**
 * @file
 * Slow reference implementations shared by the tests: a node-level
 * transitive closure, the splice-pricing table computed on the
 * reference CircuitDag, the DAG reuse API (pair legality under
 * Conditions 1 and 2, pair enumeration, and the reuse rewrite), the
 * gate-level commuting reuse check, a SABRE router that rescores every
 * front-layer and window gate for every candidate SWAP, a baseline
 * transpiler that routes every refinement pass and every trial from
 * scratch with that router, an SR-CaQR that runs every variant trial to
 * the end and rescores the same way, and a seeded random-circuit
 * generator whose circuits exercise barriers, shared clbits and
 * conditioned gates.
 */
#ifndef CAQR_TESTS_ORACLE_H
#define CAQR_TESTS_ORACLE_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <queue>
#include <tuple>
#include <utility>
#include <vector>

#include "arch/backend.h"
#include "circuit/circuit.h"
#include "circuit/schedule.h"
#include "circuit/timing.h"
#include "circuit_dag.h"
#include "core/reuse_analysis.h"
#include "core/sr_caqr.h"
#include "digraph.h"
#include "graph/undirected_graph.h"
#include "transpile/decompose.h"
#include "transpile/layout.h"
#include "transpile/peephole.h"
#include "transpile/router.h"
#include "transpile/transpiler.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/status.h"

namespace caqr::oracle {

/**
 * Transitive closure of DAG @p graph as a bit matrix: bit v of row u
 * (read with Digraph::closure_bit) is set iff there is a
 * directed path u -> ... -> v of length >= 1. O(V*E/64).
 */
inline std::vector<std::vector<std::uint64_t>>
transitive_closure(const Digraph& graph)
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
splice_timing(const CircuitDag& dag,
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

/// True if (source -> target) satisfies Conditions 1 and 2 on @p dag.
/// Qubits with no operations are never part of a valid pair (there is
/// nothing to save).
inline bool
is_valid_reuse_pair(const CircuitDag& dag, int source, int target)
{
    const auto& circuit = dag.circuit();
    if (source == target) return false;
    if (source < 0 || source >= circuit.num_qubits()) return false;
    if (target < 0 || target >= circuit.num_qubits()) return false;
    if (dag.nodes_on_qubit(source).empty() ||
        dag.nodes_on_qubit(target).empty()) {
        return false;
    }
    // Conditions 1 and 2: no gate on `target` is shared with, or
    // precedes, a gate on `source`.
    return !dag.qubit_reaches(target, source);
}

/// All valid reuse pairs of @p dag in (source, target) order: O(k^2)
/// bit tests against the DAG's per-wire reachability.
inline std::vector<core::ReusePair>
find_reuse_pairs(const CircuitDag& dag)
{
    std::vector<int> active;
    for (int q = 0; q < dag.circuit().num_qubits(); ++q) {
        if (!dag.nodes_on_qubit(q).empty()) active.push_back(q);
    }
    std::vector<core::ReusePair> pairs;
    for (int source : active) {
        for (int target : active) {
            if (source != target && !dag.qubit_reaches(target, source)) {
                pairs.push_back(core::ReusePair{source, target});
            }
        }
    }
    return pairs;
}

/// Result of one reuse application.
struct TransformResult
{
    circuit::Circuit circuit;  ///< rewritten circuit, one wire fewer
    /// orig_of[new wire] = caller-provided identity of that wire (see
    /// apply_reuse's @p orig_of parameter).
    std::vector<int> orig_of;
};

/// Deterministic Kahn topological order (smallest node id first).
inline std::vector<int>
stable_topological_order(const Digraph& graph)
{
    const int n = graph.num_nodes();
    std::vector<int> remaining(static_cast<std::size_t>(n));
    std::priority_queue<int, std::vector<int>, std::greater<int>> ready;
    for (int u = 0; u < n; ++u) {
        remaining[u] = graph.in_degree(u);
        if (remaining[u] == 0) ready.push(u);
    }
    std::vector<int> order;
    order.reserve(static_cast<std::size_t>(n));
    while (!ready.empty()) {
        const int u = ready.top();
        ready.pop();
        order.push_back(u);
        for (int v : graph.successors(u)) {
            if (--remaining[v] == 0) ready.push(v);
        }
    }
    CAQR_CHECK(static_cast<int>(order.size()) == n,
               "reuse transform requires an acyclic extended DAG");
    return order;
}

/**
 * Applies reuse pair @p pair to @p input (must be valid per
 * is_valid_reuse_pair): splices the measure + conditional-X reset of
 * the source qubit, moves the target qubit's operations onto the source
 * wire, and compacts the freed wire away. Classical bits are untouched,
 * so outcome histograms of the result are directly comparable with the
 * input's. @p orig_of carries wire identities across chained
 * applications: pass {} on the first call (identity), then the previous
 * result's vector.
 *
 * If the source wire's last operation is a measurement, the reset is a
 * single conditional X on its clbit (the fast idiom of paper Fig 2b);
 * otherwise a measurement into a fresh scratch clbit is inserted first.
 */
inline TransformResult
apply_reuse(const circuit::Circuit& input, core::ReusePair pair,
            std::vector<int> orig_of = {})
{
    using circuit::Circuit;
    using circuit::GateKind;
    using circuit::Instruction;
    const CircuitDag dag(input);
    CAQR_CHECK(is_valid_reuse_pair(dag, pair.source, pair.target),
               "apply_reuse called with an invalid pair");
    if (orig_of.empty()) {
        orig_of.resize(static_cast<std::size_t>(input.num_qubits()));
        std::iota(orig_of.begin(), orig_of.end(), 0);
    }
    CAQR_CHECK(static_cast<int>(orig_of.size()) == input.num_qubits(),
               "orig_of size mismatch");

    // Extended DAG with the measurement/reset dummy node.
    Digraph extended = dag.graph();
    const int dummy = extended.add_node();
    for (int node : dag.nodes_on_qubit(pair.source)) {
        extended.add_edge(node, dummy);
    }
    for (int node : dag.nodes_on_qubit(pair.target)) {
        extended.add_edge(dummy, node);
    }
    const auto order = stable_topological_order(extended);

    // Does the source wire already end in a measurement?
    const auto& source_nodes = dag.nodes_on_qubit(pair.source);
    int source_measure_clbit = -1;
    if (!source_nodes.empty()) {
        const Instruction& last = input.at(
            static_cast<std::size_t>(source_nodes.back()));
        if (last.kind == GateKind::kMeasure) {
            source_measure_clbit = last.clbit;
        }
    }

    // Wire compaction: drop the target wire, shift higher wires down.
    auto new_wire = [&](int q) {
        if (q == pair.target) return -1;  // handled via remap to source
        return q > pair.target ? q - 1 : q;
    };
    const int source_wire = new_wire(pair.source);

    Circuit output(input.num_qubits() - 1, input.num_clbits());
    output.copy_params_from(input);
    for (int node : order) {
        if (node == dummy) {
            int clbit = source_measure_clbit;
            if (clbit < 0) {
                // Source wire never measured: measure into a scratch bit
                // so the conditional reset has a condition to read.
                clbit = output.add_clbit();
                output.measure(source_wire, clbit);
            }
            output.x_if(source_wire, clbit, 1);
            continue;
        }
        Instruction instr = input.at(static_cast<std::size_t>(node));
        for (auto& q : instr.qubits) {
            q = (q == pair.target) ? source_wire : new_wire(q);
        }
        output.append(std::move(instr));
    }

    TransformResult result;
    result.circuit = std::move(output);
    result.orig_of.resize(static_cast<std::size_t>(input.num_qubits() - 1));
    for (int q = 0; q < input.num_qubits(); ++q) {
        if (q == pair.target) continue;
        result.orig_of[static_cast<std::size_t>(new_wire(q))] =
            orig_of[static_cast<std::size_t>(q)];
    }
    return result;
}

/**
 * Commuting reuse-pair validity (paper §3.2.2) checked on the imposed
 * gate-level dependence graph itself, which `core::commuting_pairs_valid`
 * reduces to a graph over the pairs. One node per gate per layer and
 * one measurement node M per pair: every gate on a pair's source
 * precedes its M, which precedes every gate on its target; a qubit's
 * layer-l gates precede its layer-(l+1) gates through the mixer; and
 * consecutive handoffs on one wire order their Ms directly. Condition 1
 * and the qubit-level handoff chain are checked separately.
 */
inline bool
commuting_pairs_valid(const graph::UndirectedGraph& interaction,
                      const std::vector<core::ReusePair>& pairs,
                      int layers = 1)
{
    const int n = interaction.num_nodes();
    const int num_layers = std::max(1, layers);
    std::vector<int> target_of(static_cast<std::size_t>(n), -1);
    std::vector<int> source_of(static_cast<std::size_t>(n), -1);
    for (const auto& pair : pairs) {
        if (pair.source < 0 || pair.source >= n || pair.target < 0 ||
            pair.target >= n || pair.source == pair.target) {
            return false;
        }
        if (target_of[pair.source] >= 0) return false;  // two targets
        if (source_of[pair.target] >= 0) return false;  // two sources
        target_of[pair.source] = pair.target;
        source_of[pair.target] = pair.source;
    }

    // Condition 1 per pair.
    for (const auto& pair : pairs) {
        if (interaction.has_edge(pair.source, pair.target)) return false;
    }

    // Wire chains must be acyclic at the qubit level too: a handoff
    // cycle (a -> b, b -> a) is unschedulable even when the qubits
    // involved carry no gates.
    {
        Digraph chain(n);
        for (const auto& pair : pairs) {
            chain.add_edge(pair.source, pair.target);
        }
        if (chain.has_cycle()) return false;
    }

    // Node (g, l) = instance l of interaction edge g, then one
    // measurement node per pair; acyclic <=> Condition 2 holds.
    const auto& edges = interaction.edges();
    const int num_gates = static_cast<int>(edges.size());
    const int num_instances = num_gates * num_layers;
    Digraph dependence(num_instances + static_cast<int>(pairs.size()));
    auto instance = [num_gates](int g, int l) { return l * num_gates + g; };

    if (num_layers > 1) {
        std::vector<std::vector<int>> gates_on(static_cast<std::size_t>(n));
        for (int g = 0; g < num_gates; ++g) {
            const auto& [u, v] = edges[static_cast<std::size_t>(g)];
            gates_on[u].push_back(g);
            gates_on[v].push_back(g);
        }
        for (int q = 0; q < n; ++q) {
            for (int l = 0; l + 1 < num_layers; ++l) {
                for (int ga : gates_on[q]) {
                    for (int gb : gates_on[q]) {
                        dependence.add_edge(instance(ga, l),
                                            instance(gb, l + 1));
                    }
                }
            }
        }
    }

    for (std::size_t p = 0; p < pairs.size(); ++p) {
        const int m_node = num_instances + static_cast<int>(p);
        for (int g = 0; g < num_gates; ++g) {
            const auto& [u, v] = edges[static_cast<std::size_t>(g)];
            for (int l = 0; l < num_layers; ++l) {
                if (u == pairs[p].source || v == pairs[p].source) {
                    dependence.add_edge(instance(g, l), m_node);
                }
                if (u == pairs[p].target || v == pairs[p].target) {
                    dependence.add_edge(m_node, instance(g, l));
                }
            }
        }
        for (std::size_t q = 0; q < pairs.size(); ++q) {
            if (pairs[q].source == pairs[p].target) {
                dependence.add_edge(m_node,
                                    num_instances + static_cast<int>(q));
            }
        }
    }
    return !dependence.has_cycle();
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
    const CircuitDag dag(logical);
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
            if (++executed_groups % transpile::kDecayResetInterval == 0) {
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
            const auto* link = backend.find_link(pa, pb);
            if (options.error_aware && link != nullptr) {
                link_bias = backend.calibration().links[link->id].cx_error;
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

/**
 * The baseline pipeline as `transpile::transpile_or` computes it, but
 * with every refinement pass and every trial routed from scratch by
 * `route_full_rescore` (its own DAG each time), serially: no shared
 * anchor route and no SWAP bound. A trial the production pipeline prunes could never be
 * admissible, so the result is the one it returns.
 */
inline util::StatusOr<transpile::TranspileResult>
transpile_every_trial(const circuit::Circuit& logical,
                      const arch::Backend& backend,
                      const transpile::TranspileOptions& options = {})
{
    if (logical.num_qubits() > backend.num_qubits()) {
        return util::Status::infeasible("circuit does not fit");
    }
    circuit::Circuit native = options.keep_rzz
                                  ? transpile::decompose_ccx(logical)
                                  : transpile::decompose_to_native(logical);
    if (options.peephole) native = transpile::peephole_optimize(native);
    const transpile::Layout greedy = transpile::greedy_layout(native, backend);

    circuit::Circuit reversed(native.num_qubits(), native.num_clbits());
    reversed.copy_params_from(native);
    const auto& instructions = native.instructions();
    for (auto it = instructions.rbegin(); it != instructions.rend(); ++it) {
        reversed.append(*it);
    }
    transpile::Layout refined = greedy;
    for (int pass = 0; pass < options.layout_refine_passes; ++pass) {
        const auto forward =
            route_full_rescore(native, backend, refined, options.router);
        if (!forward.ok()) {
            refined = greedy;
            break;
        }
        const auto backward = route_full_rescore(
            reversed, backend, forward->final_layout, options.router);
        if (!backward.ok()) {
            refined = greedy;
            break;
        }
        refined = backward->final_layout;
    }

    struct Trial
    {
        transpile::Layout layout;
        util::Status status;
        bool completed = false;
        transpile::RoutingResult routed;
        int depth = 0;
        double duration_dt = 0.0;
        double esp = 0.0;
    };
    const int trials = std::max(1, options.trials);
    std::vector<Trial> runs(static_cast<std::size_t>(trials));
    for (int t = 0; t < trials; ++t) {
        Trial& run = runs[static_cast<std::size_t>(t)];
        if (t == 0) {
            run.layout = refined;
        } else if (t == 1) {
            run.layout = greedy;
        } else {
            run.layout = refined;
            util::Rng rng(options.seed, static_cast<std::uint64_t>(t));
            for (int k = 0; k < 1 + t / 4 && run.layout.size() >= 2; ++k) {
                const auto i = rng.next_below(run.layout.size());
                const auto j = rng.next_below(run.layout.size());
                std::swap(run.layout[i], run.layout[j]);
            }
        }
        auto routed =
            route_full_rescore(native, backend, run.layout, options.router);
        if (!routed.ok()) {
            run.status = routed.status();
            continue;
        }
        run.completed = true;
        run.routed = std::move(routed).value();
        run.depth = circuit::depth(run.routed.circuit);
        const arch::CalibratedDurations model(backend);
        run.duration_dt =
            circuit::Schedule(run.routed.circuit, model).makespan();
        run.esp = arch::estimated_success_probability(run.routed.circuit,
                                                      backend);
    }

    // The anchor (trial 1, or the only trial) holds the win; an
    // admissible challenger — no worse on SWAPs, depth and ESP — takes
    // it when lexicographically better. Without an anchor result, the
    // best completed trial wins.
    const std::size_t anchor = trials >= 2 ? 1 : 0;
    std::size_t winner = runs.size();
    if (runs[anchor].completed) {
        winner = anchor;
        const Trial& a = runs[anchor];
        const auto key = [](const Trial& r) {
            return std::make_tuple(r.routed.swaps_added, r.depth, -r.esp,
                                   r.duration_dt);
        };
        for (std::size_t i = 0; i < runs.size(); ++i) {
            const Trial& c = runs[i];
            if (i == anchor || !c.completed) continue;
            const bool admissible =
                c.routed.swaps_added <= a.routed.swaps_added &&
                c.depth <= a.depth && c.esp >= a.esp;
            if (admissible && key(c) < key(runs[winner])) winner = i;
        }
    } else {
        const auto key = [](const Trial& r) {
            return std::make_tuple(r.routed.swaps_added, r.depth,
                                   r.duration_dt);
        };
        for (std::size_t i = 0; i < runs.size(); ++i) {
            if (!runs[i].completed) continue;
            if (winner == runs.size() || key(runs[i]) < key(runs[winner])) {
                winner = i;
            }
        }
    }
    if (winner == runs.size()) return runs[anchor].status;

    Trial& w = runs[winner];
    transpile::TranspileResult result;
    result.circuit = std::move(w.routed.circuit);
    result.initial_layout = std::move(w.layout);
    result.final_layout = std::move(w.routed.final_layout);
    result.swaps_added = w.routed.swaps_added;
    result.depth = w.depth;
    result.duration_dt = w.duration_dt;
    result.esp = w.esp;
    return result;
}

/**
 * SR-CaQR as `core::sr_caqr_or` computes it, but with every variant
 * trial run to completion (no bound), serially, and every candidate
 * SWAP scored by re-summing the distance of every blocked front gate
 * and window gate under the hypothetical mapping. Placement scans the
 * distance matrix pair by pair. The input must fit @p backend; the
 * result is the one the production pass returns.
 */
inline core::SrCaqrResult
sr_caqr_exhaustive(const circuit::Circuit& input,
                   const arch::Backend& backend,
                   const core::SrCaqrOptions& options = {})
{
    using circuit::GateKind;
    using circuit::Instruction;

    const circuit::Circuit logical = transpile::decompose_ccx(input);
    CAQR_CHECK(logical.num_qubits() <= backend.num_qubits(),
               "circuit does not fit the backend");
    const CircuitDag dag(logical);
    const int num_nodes = dag.graph().num_nodes();
    const int nl = logical.num_qubits();
    const int np = backend.num_qubits();
    std::vector<double> weights;
    circuit::LogicalDurations durations;
    for (const auto& instr : logical.instructions()) {
        weights.push_back(durations.duration(instr));
    }
    const auto earliest = dag.graph().earliest_completion(weights);
    const auto latest = dag.graph().latest_completion(weights);
    std::vector<int> ops_per_qubit(static_cast<std::size_t>(nl), 0);
    std::vector<std::vector<int>> partners(static_cast<std::size_t>(nl));
    for (const auto& instr : logical.instructions()) {
        for (int q : instr.qubits) ++ops_per_qubit[q];
        if (!circuit::is_two_qubit(instr.kind)) continue;
        partners[instr.qubits[0]].push_back(instr.qubits[1]);
        partners[instr.qubits[1]].push_back(instr.qubits[0]);
    }
    const auto distance = [&](int a, int b) {
        const int d = backend.distance(a, b);
        return d < 0 ? np * 2 : d;
    };
    const auto gate = [&](int node) -> const Instruction& {
        return logical.at(static_cast<std::size_t>(node));
    };

    // One trial's settings: the caller's switches, reweighted and
    // relaxed per variant.
    struct TrialConfig
    {
        double lookahead_weight = 4.0;
        double swap_lookahead_weight = 0.5;
        double placement_pull = 0.0;
        double jitter = 0.0;
        std::uint64_t jitter_stream = 0;
        bool error_aware = true;
        bool delay_noncritical = true;
    };

    // One trial of the engine under the settings @p opt.
    const auto single = [&](const TrialConfig& opt) {
        util::Rng rng(options.seed, opt.jitter_stream);
        const auto jitter = [&] {
            return opt.jitter > 0.0 ? opt.jitter * rng.next_double() : 0.0;
        };
        circuit::Circuit output(np, logical.num_clbits());
        output.copy_params_from(logical);
        std::vector<int> phys_of(static_cast<std::size_t>(nl), -1);
        std::vector<int> logical_of(static_cast<std::size_t>(np), -1);
        std::vector<bool> ever_used(static_cast<std::size_t>(np), false);
        std::vector<int> remaining_ops = ops_per_qubit;
        int swaps_added = 0;
        int reuses = 0;

        const auto pick_seed = [&](int lq) {
            std::vector<int> placed;
            for (int other : partners[lq]) {
                if (phys_of[other] >= 0) placed.push_back(phys_of[other]);
            }
            int best = -1;
            double best_score = -std::numeric_limits<double>::infinity();
            for (int p = 0; p < np; ++p) {
                if (logical_of[p] >= 0) continue;
                double score;
                if (placed.empty()) {
                    long long total = 0;
                    for (int r = 0; r < np; ++r) {
                        const int d = backend.distance(p, r);
                        total += d < 0 ? np : d;
                    }
                    score = backend.topology().degree(p) -
                            static_cast<double>(total) / (np * np);
                } else {
                    double total = 0.0;
                    for (int partner : placed) {
                        const int d = backend.distance(p, partner);
                        total += d < 0 ? np : d;
                    }
                    score = -opt.lookahead_weight * total +
                            0.25 * backend.topology().degree(p);
                }
                if (opt.error_aware) {
                    score -= backend.calibration().qubit(p).readout_error;
                    double best_cx = 1.0;
                    for (int nb : backend.topology().neighbors(p)) {
                        best_cx = std::min(best_cx, backend.cx_error(p, nb));
                    }
                    score -= best_cx;
                }
                score -= jitter();
                if (score > best_score) {
                    best_score = score;
                    best = p;
                }
            }
            CAQR_CHECK(best >= 0, "no free physical qubit available");
            return best;
        };
        const auto pick_adjacent = [&](int lq, int partner_phys) {
            std::vector<int> future;
            if (opt.placement_pull > 0.0) {
                for (int other : partners[lq]) {
                    if (phys_of[other] >= 0 && phys_of[other] != partner_phys) {
                        future.push_back(phys_of[other]);
                    }
                }
            }
            int best = -1;
            double best_key = std::numeric_limits<double>::infinity();
            for (int p = 0; p < np; ++p) {
                if (logical_of[p] >= 0) continue;
                const int d = backend.distance(p, partner_phys);
                double key = static_cast<double>(d < 0 ? np : d);
                if (!future.empty()) {
                    double pull = 0.0;
                    for (int partner : future) pull += distance(p, partner);
                    key += opt.placement_pull * pull /
                           static_cast<double>(future.size());
                }
                if (ever_used[p]) key += 0.5;
                if (opt.error_aware) {
                    key += backend.calibration().qubit(p).readout_error;
                    if (const auto* link = backend.find_link(p, partner_phys)) {
                        key += backend.calibration().links[link->id].cx_error;
                    }
                }
                key += jitter();
                if (key < best_key) {
                    best_key = key;
                    best = p;
                }
            }
            CAQR_CHECK(best >= 0, "no free physical qubit available");
            return best;
        };
        const auto assign = [&](int lq, int phys) {
            phys_of[lq] = phys;
            if (logical_of[phys] >= 0 || ever_used[phys]) ++reuses;
            logical_of[phys] = lq;
            ever_used[phys] = true;
        };
        const auto apply_swap = [&](int pa, int pb) {
            Instruction swap;
            swap.kind = GateKind::kSwap;
            swap.qubits = {pa, pb};
            output.append(std::move(swap));
            ++swaps_added;
            ever_used[pa] = true;
            ever_used[pb] = true;
            const int la = logical_of[pa];
            const int lb = logical_of[pb];
            if (la >= 0) phys_of[la] = pb;
            if (lb >= 0) phys_of[lb] = pa;
            std::swap(logical_of[pa], logical_of[pb]);
        };
        const auto map_operands = [&](int node) {
            const Instruction& instr = gate(node);
            std::vector<int> unmapped;
            for (int q : instr.qubits) {
                if (phys_of[q] < 0) unmapped.push_back(q);
            }
            if (unmapped.size() == 2) {
                int first = unmapped[0];
                int second = unmapped[1];
                if (remaining_ops[second] > remaining_ops[first]) {
                    std::swap(first, second);
                }
                assign(first, pick_seed(first));
                assign(second, pick_adjacent(second, phys_of[first]));
            } else if (unmapped.size() == 1) {
                const int lq = unmapped[0];
                int partner_phys = -1;
                for (int q : instr.qubits) {
                    if (q != lq) partner_phys = phys_of[q];
                }
                assign(lq, partner_phys >= 0 ? pick_adjacent(lq, partner_phys)
                                             : pick_seed(lq));
            }
        };

        std::vector<int> preds_left(static_cast<std::size_t>(num_nodes));
        std::vector<int> frontier;
        for (int node = 0; node < num_nodes; ++node) {
            preds_left[node] = dag.graph().in_degree(node);
            if (preds_left[node] == 0) frontier.push_back(node);
        }
        std::vector<double> decay(static_cast<std::size_t>(np), 0.0);
        int executed_batches = 0;
        int swap_streak = 0;
        long long stall_guard = 0;
        const long long stall_limit = 4LL * num_nodes * np + 1000;
        while (!frontier.empty()) {
            std::vector<int> blocked;
            std::vector<int> ready_next;
            bool executed_any = false;
            for (int node : frontier) {
                const Instruction& instr = gate(node);
                bool ready = true;
                for (int q : instr.qubits) {
                    if (phys_of[q] < 0) ready = false;
                }
                if (ready && circuit::is_two_qubit(instr.kind)) {
                    ready = backend.are_adjacent(phys_of[instr.qubits[0]],
                                                 phys_of[instr.qubits[1]]);
                }
                if (!ready) {
                    blocked.push_back(node);
                    continue;
                }
                Instruction mapped = instr;
                for (auto& q : mapped.qubits) {
                    q = phys_of[q];
                    ever_used[q] = true;
                }
                output.append(std::move(mapped));
                // Reclaim operands with no remaining operations.
                for (int lq : instr.qubits) {
                    if (--remaining_ops[lq] > 0) continue;
                    const int phys = phys_of[lq];
                    if (instr.kind == GateKind::kMeasure) {
                        output.x_if(phys, instr.clbit, 1);
                    } else {
                        const int scratch = output.add_clbit();
                        output.measure(phys, scratch);
                        output.x_if(phys, scratch, 1);
                    }
                    logical_of[phys] = -1;
                    phys_of[lq] = -1;
                }
                executed_any = true;
                for (int succ : dag.graph().successors(node)) {
                    if (--preds_left[succ] == 0) ready_next.push_back(succ);
                }
            }
            frontier = std::move(blocked);
            frontier.insert(frontier.end(), ready_next.begin(),
                            ready_next.end());
            if (executed_any) {
                swap_streak = 0;
                if (++executed_batches % 5 == 0) {
                    std::fill(decay.begin(), decay.end(), 0.0);
                }
                continue;
            }
            CAQR_CHECK(stall_guard++ < stall_limit,
                       "SR-CaQR failed to make progress");

            std::vector<int> blocked_mapped;
            std::vector<int> need_mapping;
            for (int node : frontier) {
                bool unmapped = false;
                for (int q : gate(node).qubits) {
                    if (phys_of[q] < 0) unmapped = true;
                }
                (unmapped ? need_mapping : blocked_mapped).push_back(node);
            }
            std::vector<int> to_map;
            for (int node : need_mapping) {
                if (!opt.delay_noncritical ||
                    std::abs(earliest[node] - latest[node]) < 1e-9) {
                    to_map.push_back(node);
                }
            }
            if (to_map.empty() && blocked_mapped.empty()) {
                to_map.push_back(*std::min_element(
                    need_mapping.begin(), need_mapping.end(),
                    [&](int a, int b) { return latest[a] < latest[b]; }));
            }
            if (!to_map.empty()) {
                std::sort(to_map.begin(), to_map.end(), [&](int a, int b) {
                    return earliest[a] < earliest[b];
                });
                for (int node : to_map) map_operands(node);
                continue;
            }

            if (++swap_streak > 2 * np) {
                const int urgent = *std::min_element(
                    blocked_mapped.begin(), blocked_mapped.end(),
                    [&](int a, int b) { return latest[a] < latest[b]; });
                const auto& instr = gate(urgent);
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
                    CAQR_CHECK(hop >= 0, "no distance-reducing hop");
                    apply_swap(pa, hop);
                }
                swap_streak = 0;
                continue;
            }

            // Window: up to 20 mapped two-qubit gates past the
            // frontier, in BFS order over successors.
            std::vector<int> window;
            std::vector<int> queue = frontier;
            std::vector<bool> seen(static_cast<std::size_t>(num_nodes), false);
            for (int node : queue) seen[node] = true;
            std::size_t head = 0;
            while (head < queue.size() && window.size() < 20) {
                const int node = queue[head++];
                for (int succ : dag.graph().successors(node)) {
                    if (seen[succ]) continue;
                    seen[succ] = true;
                    queue.push_back(succ);
                    const auto& instr = gate(succ);
                    if (circuit::is_two_qubit(instr.kind) &&
                        phys_of[instr.qubits[0]] >= 0 &&
                        phys_of[instr.qubits[1]] >= 0) {
                        window.push_back(succ);
                    }
                }
            }

            std::vector<std::pair<int, int>> candidates;
            for (int node : blocked_mapped) {
                for (int operand : gate(node).qubits) {
                    const int p = phys_of[operand];
                    for (int nb : backend.topology().neighbors(p)) {
                        candidates.emplace_back(std::min(p, nb),
                                                std::max(p, nb));
                    }
                }
            }
            std::sort(candidates.begin(), candidates.end());
            candidates.erase(std::unique(candidates.begin(), candidates.end()),
                             candidates.end());
            CAQR_CHECK(!candidates.empty(), "no candidate swaps available");

            double best_score = std::numeric_limits<double>::infinity();
            std::pair<int, int> best{-1, -1};
            for (const auto& [pa, pb] : candidates) {
                const auto gate_distance = [&](int node) {
                    const auto& instr = gate(node);
                    const auto mapped = [&](int q) {
                        const int p = phys_of[q];
                        return p == pa ? pb : p == pb ? pa : p;
                    };
                    return distance(mapped(instr.qubits[0]),
                                    mapped(instr.qubits[1]));
                };
                double front_cost = 0.0;
                for (int node : blocked_mapped) {
                    front_cost += gate_distance(node);
                }
                front_cost /= static_cast<double>(blocked_mapped.size());
                double look_cost = 0.0;
                if (!window.empty()) {
                    for (int node : window) look_cost += gate_distance(node);
                    look_cost *= opt.swap_lookahead_weight /
                                 static_cast<double>(window.size());
                }
                double link_bias = 0.0;
                const auto* link = backend.find_link(pa, pb);
                if (opt.error_aware && link != nullptr) {
                    link_bias = backend.calibration().links[link->id].cx_error;
                }
                const double score =
                    transpile::combine_swap_score(
                        front_cost, look_cost,
                        std::max(decay[pa], decay[pb]) + 1.0, link_bias) +
                    jitter();
                if (score < best_score) {
                    best_score = score;
                    best = {pa, pb};
                }
            }
            apply_swap(best.first, best.second);
            decay[best.first] += 0.001;
            decay[best.second] += 0.001;
        }

        core::SrCaqrResult result;
        result.swaps_added = swaps_added;
        result.reuses = reuses;
        result.physical_qubits_used = static_cast<int>(
            std::count(ever_used.begin(), ever_used.end(), true));
        result.circuit = std::move(output);
        result.depth = circuit::depth(result.circuit);
        const arch::CalibratedDurations model(backend);
        result.duration_dt =
            circuit::Schedule(result.circuit, model).makespan();
        result.esp =
            arch::estimated_success_probability(result.circuit, backend);
        return result;
    };

    // The variant portfolio: 8 structural variants, then jitter runs.
    struct Variant
    {
        double lookahead, swap_lookahead, pull;
        bool distance_only, eager_mapping;
    };
    static constexpr Variant kVariants[] = {
        {1.0, 1.0, -1.0, false, false}, {0.5, 0.5, -1.0, false, false},
        {2.0, 2.0, -1.0, false, false}, {1.0, 0.25, -1.0, false, false},
        {1.0, 1.0, 0.5, false, false},  {1.0, 1.0, 1.0, true, false},
        {1.0, 0.5, 0.25, false, false}, {1.0, 1.0, 0.5, false, true}};
    static constexpr double kJitterAmps[] = {0.05, 0.15, 0.3, 0.6};
    std::vector<core::SrCaqrResult> results;
    for (std::size_t trial = 0;
         trial < static_cast<std::size_t>(std::max(1, options.trials));
         ++trial) {
        TrialConfig variant;
        variant.error_aware = options.error_aware;
        variant.delay_noncritical = options.delay_noncritical;
        if (trial < 8) {
            const Variant& v = kVariants[trial];
            variant.lookahead_weight *= v.lookahead;
            variant.swap_lookahead_weight *= v.swap_lookahead;
            if (v.pull >= 0.0) variant.placement_pull = v.pull;
            if (v.distance_only) variant.error_aware = false;
            if (v.eager_mapping) variant.delay_noncritical = false;
        } else {
            variant.jitter = kJitterAmps[(trial - 8) % 4];
            variant.jitter_stream = (trial - 8) / 4;
        }
        results.push_back(single(variant));
    }

    // Anchor: best of the first 4 by (SWAPs, duration). Winner: the
    // lexicographically best trial no worse than the anchor on SWAPs,
    // qubits, depth and ESP.
    std::size_t anchor = 0;
    for (std::size_t i = 1; i < std::min<std::size_t>(results.size(), 4); ++i) {
        const auto& r = results[i];
        const auto& a = results[anchor];
        if (r.swaps_added < a.swaps_added ||
            (r.swaps_added == a.swaps_added && r.duration_dt < a.duration_dt)) {
            anchor = i;
        }
    }
    const auto key = [&](std::size_t i) {
        const auto& r = results[i];
        return std::make_tuple(r.swaps_added, r.physical_qubits_used, r.depth,
                               -r.esp, r.duration_dt);
    };
    std::size_t winner = anchor;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto& r = results[i];
        const auto& a = results[anchor];
        const bool admissible =
            r.swaps_added <= a.swaps_added &&
            r.physical_qubits_used <= a.physical_qubits_used &&
            r.depth <= a.depth && r.esp >= a.esp;
        if (admissible && key(i) < key(winner)) winner = i;
    }
    return std::move(results[winner]);
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
