#include "core/commuting.h"

#include <algorithm>
#include <string>

#include "circuit/schedule.h"
#include "circuit/timing.h"
#include "graph/coloring.h"
#include "graph/digraph.h"
#include "graph/matching.h"
#include "util/logging.h"

namespace caqr::core {

namespace {

/// Per-qubit reuse roles derived from a pair set.
struct PairIndex
{
    std::vector<int> target_of;  ///< target_of[s] = t, or -1
    std::vector<int> source_of;  ///< source_of[t] = s, or -1

    explicit PairIndex(int n)
        : target_of(static_cast<std::size_t>(n), -1),
          source_of(static_cast<std::size_t>(n), -1)
    {
    }
};

/// Angle emission for the materializers: concrete RZZ/RX by default;
/// with `spec.symbolic` it registers per-layer params
/// gamma<l>/beta<l> (interleaved per layer, values = full rotation
/// angles 2γ/2β) on construction and emits symbolic gates instead.
struct AngleEmitter
{
    const CommutingSpec& spec;
    circuit::Circuit& circuit;
    std::vector<circuit::ParamRef> gamma_ref;
    std::vector<circuit::ParamRef> beta_ref;

    AngleEmitter(const CommutingSpec& s, circuit::Circuit& c, int num_layers)
        : spec(s), circuit(c)
    {
        if (!spec.symbolic) return;
        for (int l = 0; l < num_layers; ++l) {
            gamma_ref.push_back(circuit.add_param(
                "gamma" + std::to_string(l), 2.0 * spec.gamma_at(l)));
            beta_ref.push_back(circuit.add_param(
                "beta" + std::to_string(l), 2.0 * spec.beta_at(l)));
        }
    }

    void
    rzz(int layer, int a, int b)
    {
        if (spec.symbolic) {
            circuit.rzz_sym(gamma_ref[static_cast<std::size_t>(layer)], a, b);
        } else {
            circuit.rzz(2.0 * spec.gamma_at(layer), a, b);
        }
    }

    void
    rx(int layer, int q)
    {
        if (spec.symbolic) {
            circuit.rx_sym(beta_ref[static_cast<std::size_t>(layer)], q);
        } else {
            circuit.rx(2.0 * spec.beta_at(layer), q);
        }
    }
};

bool
build_index(int n, const std::vector<ReusePair>& pairs, PairIndex* index)
{
    for (const auto& pair : pairs) {
        if (pair.source < 0 || pair.source >= n || pair.target < 0 ||
            pair.target >= n || pair.source == pair.target) {
            return false;
        }
        if (index->target_of[pair.source] >= 0) return false;  // two targets
        if (index->source_of[pair.target] >= 0) return false;  // two sources
        index->target_of[pair.source] = pair.target;
        index->source_of[pair.target] = pair.source;
    }
    return true;
}

}  // namespace

bool
commuting_pairs_valid(const graph::UndirectedGraph& interaction,
                      const std::vector<ReusePair>& pairs, int layers)
{
    const int n = interaction.num_nodes();
    const int num_layers = std::max(1, layers);
    PairIndex index(n);
    if (!build_index(n, pairs, &index)) return false;

    // Condition 1 per pair.
    for (const auto& pair : pairs) {
        if (interaction.has_edge(pair.source, pair.target)) return false;
    }

    // Wire chains must be acyclic at the qubit level too: a handoff
    // cycle (a -> b, b -> a) is unschedulable even when the qubits
    // involved carry no gates.
    {
        graph::Digraph chain(n);
        for (const auto& pair : pairs) {
            chain.add_edge(pair.source, pair.target);
        }
        if (chain.has_cycle()) return false;
    }

    // Gate-level dependence graph over per-layer instances: node
    // (g, l) = instance l of interaction edge g, plus one measurement
    // node per pair; acyclic <=> Condition 2 holds.
    const auto& edges = interaction.edges();
    const int num_gates = static_cast<int>(edges.size());
    const int num_instances = num_gates * num_layers;
    graph::Digraph dependence(num_instances +
                              static_cast<int>(pairs.size()));
    auto instance = [num_gates](int g, int l) {
        return l * num_gates + g;
    };

    // A qubit's layer-(l+1) gates depend on its layer-l gates through
    // the mixer in between.
    if (num_layers > 1) {
        std::vector<std::vector<int>> gates_on(
            static_cast<std::size_t>(n));
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
        // Consecutive handoffs on the same wire order their
        // measurement nodes directly — required when the intermediate
        // qubit carries no gates to link them transitively.
        for (std::size_t q = 0; q < pairs.size(); ++q) {
            if (pairs[q].source == pairs[p].target) {
                dependence.add_edge(m_node,
                                    num_instances + static_cast<int>(q));
            }
        }
    }
    return !dependence.has_cycle();
}

CommutingSchedule
schedule_commuting(const CommutingSpec& spec,
                   const std::vector<ReusePair>& pairs,
                   const CommutingOptions& options)
{
    const auto& interaction = spec.interaction;
    const int n = interaction.num_nodes();
    CAQR_CHECK(commuting_pairs_valid(interaction, pairs, spec.layers),
               "invalid commuting reuse-pair set");

    PairIndex index(n);
    build_index(n, pairs, &index);

    const auto& edges = interaction.edges();
    const int num_gates = static_cast<int>(edges.size());
    const int num_layers = std::max(1, spec.layers);

    // Multi-layer QAOA: every edge carries one RZZ instance per layer
    // (instances ordered per edge); each qubit takes an RX mixer
    // between its layers.
    std::vector<int> layers_done(static_cast<std::size_t>(num_gates), 0);
    std::vector<int> layer_of(static_cast<std::size_t>(n), 0);
    std::vector<int> remaining_in_layer(static_cast<std::size_t>(n), 0);
    for (const auto& [u, v] : edges) {
        ++remaining_in_layer[u];
        ++remaining_in_layer[v];
    }

    // Wires: non-target qubits start on fresh wires; targets inherit
    // their source's wire after the reset.
    std::vector<int> wire_of(static_cast<std::size_t>(n), -1);
    std::vector<bool> enabled(static_cast<std::size_t>(n), false);
    std::vector<bool> finished(static_cast<std::size_t>(n), false);
    int next_wire = 0;
    for (int q = 0; q < n; ++q) {
        if (index.source_of[q] < 0) {
            wire_of[q] = next_wire++;
            enabled[q] = true;
        }
    }
    const int wires_used = next_wire;

    circuit::Circuit circuit(wires_used, n);
    AngleEmitter emit(spec, circuit, num_layers);
    for (int q = 0; q < n; ++q) {
        if (enabled[q]) circuit.h(wire_of[q]);
    }

    // Layer advance / finish sweep: a qubit whose current layer is
    // exhausted takes its mixer and moves on; on the last layer it is
    // measured and (for a reuse source) reset + handed off. Cascades
    // through gate-free chains.
    auto process_finishes = [&]() {
        bool progressed = false;
        bool again = true;
        while (again) {
            again = false;
            for (int q = 0; q < n; ++q) {
                if (finished[q] || !enabled[q] ||
                    remaining_in_layer[q] != 0) {
                    continue;
                }
                const int wire = wire_of[q];
                emit.rx(layer_of[q], wire);
                if (layer_of[q] + 1 < num_layers) {
                    ++layer_of[q];
                    remaining_in_layer[q] = interaction.degree(q);
                    progressed = true;
                    again = true;
                    continue;
                }
                circuit.measure(wire, q);
                finished[q] = true;
                progressed = true;
                const int target = index.target_of[q];
                if (target >= 0) {
                    circuit.x_if(wire, q, 1);
                    wire_of[target] = wire;
                    enabled[target] = true;
                    circuit.h(wire);
                    again = true;  // target may be gate-free
                }
            }
        }
        return progressed;
    };

    // Any pending reuse source q gets priority weight on its gates.
    auto gate_weight = [&](int g) -> long long {
        const auto& [u, v] = edges[static_cast<std::size_t>(g)];
        const bool unblocks = (index.target_of[u] >= 0 && !finished[u]) ||
                              (index.target_of[v] >= 0 && !finished[v]);
        return unblocks ? options.reuse_priority_weight : 1;
    };

    int rounds = 0;
    int gates_left = num_gates * num_layers;
    process_finishes();  // retire gate-free qubits immediately
    long long guard = 0;
    while (gates_left > 0) {
        CAQR_CHECK(guard++ <= 2LL * num_gates * num_layers +
                                  2LL * n * num_layers + 4,
                   "commuting scheduler failed to converge");

        // Step 2: eligible gate instances = both endpoints enabled and
        // sitting at the instance's layer.
        std::vector<graph::WeightedEdge> eligible;
        std::vector<int> gate_id;
        for (int g = 0; g < num_gates; ++g) {
            if (layers_done[g] >= num_layers) continue;
            const auto& [u, v] = edges[static_cast<std::size_t>(g)];
            if (!enabled[u] || !enabled[v]) continue;
            if (layer_of[u] != layers_done[g] ||
                layer_of[v] != layers_done[g]) {
                continue;
            }
            eligible.push_back(
                graph::WeightedEdge{u, v, gate_weight(g)});
            gate_id.push_back(g);
        }
        if (eligible.empty()) {
            // All remaining gates wait on a reuse handoff or a layer
            // advance.
            CAQR_CHECK(process_finishes(),
                       "commuting scheduler deadlocked");
            continue;
        }

        // Step 3: maximum-weight matching picks this round's layer.
        const bool exact =
            static_cast<int>(eligible.size()) <= options.exact_matching_limit;
        const auto matching =
            exact ? graph::max_weight_matching(n, eligible)
                  : graph::greedy_matching(n, eligible);

        bool any = false;
        for (std::size_t e = 0; e < eligible.size(); ++e) {
            const auto& edge = eligible[e];
            if (matching.mate[edge.u] != edge.v) continue;
            const int g = gate_id[e];
            if (layers_done[g] >= num_layers) continue;
            emit.rzz(layers_done[g], wire_of[edge.u], wire_of[edge.v]);
            ++layers_done[g];
            --remaining_in_layer[edge.u];
            --remaining_in_layer[edge.v];
            --gates_left;
            any = true;
        }
        if (!any) {
            // Matching refused every eligible gate (all weights would
            // be zero only if eligible was empty; be safe anyway):
            // schedule one eligible gate instance directly.
            const auto& edge = eligible.front();
            const int g = gate_id.front();
            emit.rzz(layers_done[g], wire_of[edge.u], wire_of[edge.v]);
            ++layers_done[g];
            --remaining_in_layer[edge.u];
            --remaining_in_layer[edge.v];
            --gates_left;
        }
        ++rounds;
        process_finishes();
    }
    process_finishes();
    for (int q = 0; q < n; ++q) {
        CAQR_CHECK(finished[q], "qubit left unfinished by scheduler");
    }

    CommutingSchedule result;
    result.wire_of = wire_of;
    result.wires_used = wires_used;
    result.rounds = rounds;
    result.depth = circuit::depth(circuit);
    circuit::LogicalDurations durations;
    result.duration_dt = circuit::critical_path(circuit, durations);
    result.circuit = std::move(circuit);
    return result;
}

namespace {

/// Max simultaneous liveness (activated vertices still waiting for an
/// unactivated neighbor) along an activation order — the wire demand
/// that order implies.
int
order_max_liveness(const graph::UndirectedGraph& graph,
                   const std::vector<int>& order)
{
    const int n = graph.num_nodes();
    std::vector<bool> activated(static_cast<std::size_t>(n), false);
    std::vector<int> missing(static_cast<std::size_t>(n));
    for (int q = 0; q < n; ++q) missing[q] = graph.degree(q);
    int live = 0;
    int peak = 0;
    for (int v : order) {
        activated[v] = true;
        if (missing[v] > 0) ++live;
        for (int u : graph.neighbors(v)) {
            if (--missing[u] == 0 && activated[u]) --live;
        }
        peak = std::max(peak, live);
    }
    return peak;
}

/**
 * Greedy vertex-separation (pathwidth-style) activation order: process
 * vertices so that the number of simultaneously "live" vertices —
 * activated but still waiting for an unactivated neighbor — stays
 * small. Wire demand equals max liveness along the order, so a good
 * order is exactly a good qubit-reuse plan for commuting circuits.
 *
 * Two greedy tie-breaking policies are tried (hub-first vs
 * neighborhood-consolidating); whichever yields the lower max liveness
 * wins — they dominate each other on different graph families.
 */
std::vector<int>
separation_order(const graph::UndirectedGraph& graph)
{
    const int n = graph.num_nodes();

    auto run_greedy = [&](bool consolidate) {
        std::vector<bool> activated(static_cast<std::size_t>(n), false);
        std::vector<int> missing(static_cast<std::size_t>(n));
        for (int q = 0; q < n; ++q) missing[q] = graph.degree(q);

        std::vector<int> order;
        order.reserve(static_cast<std::size_t>(n));
        for (int step = 0; step < n; ++step) {
            int best = -1;
            long long best_key = 0;
            for (int v = 0; v < n; ++v) {
                if (activated[v]) continue;
                int closes = 0;
                int active_neighbors = 0;
                for (int u : graph.neighbors(v)) {
                    if (!activated[u]) continue;
                    ++active_neighbors;
                    if (missing[u] == 1) ++closes;
                }
                const int opens = missing[v] > 0 ? 1 : 0;
                long long key;
                if (consolidate) {
                    // Minimize liveness delta, then stay inside the
                    // already-active neighborhood, then few missing,
                    // then low degree (finish local clusters first).
                    key = (static_cast<long long>(opens - closes) << 40) -
                          (static_cast<long long>(active_neighbors)
                           << 24) +
                          (static_cast<long long>(missing[v]) << 10) +
                          graph.degree(v);
                } else {
                    // Minimize liveness delta, then many closures, then
                    // few missing, then high degree (hubs early).
                    key = (static_cast<long long>(opens - closes) << 40) -
                          (static_cast<long long>(closes) << 24) +
                          (static_cast<long long>(missing[v]) << 10) -
                          graph.degree(v);
                }
                if (best < 0 || key < best_key) {
                    best = v;
                    best_key = key;
                }
            }
            activated[best] = true;
            for (int u : graph.neighbors(best)) --missing[u];
            order.push_back(best);
        }
        return order;
    };

    auto hub_first = run_greedy(false);
    auto consolidating = run_greedy(true);
    return order_max_liveness(graph, consolidating) <
                   order_max_liveness(graph, hub_first)
               ? consolidating
               : hub_first;
}

}  // namespace

std::optional<CommutingSchedule>
schedule_with_budget(const CommutingSpec& spec, int budget,
                     const CommutingOptions& options,
                     std::vector<ReusePair>* pairs_out)
{
    const auto& interaction = spec.interaction;
    const int n = interaction.num_nodes();
    CAQR_CHECK(budget >= 1, "wire budget must be positive");
    budget = std::min(budget, std::max(n, 1));

    const auto& edges = interaction.edges();
    const int num_gates = static_cast<int>(edges.size());
    const int num_layers = std::max(1, spec.layers);

    std::vector<int> layers_done(static_cast<std::size_t>(num_gates), 0);
    std::vector<int> layer_of(static_cast<std::size_t>(n), 0);
    std::vector<int> remaining_in_layer(static_cast<std::size_t>(n), 0);
    for (const auto& [u, v] : edges) {
        ++remaining_in_layer[u];
        ++remaining_in_layer[v];
    }

    std::vector<int> wire_of(static_cast<std::size_t>(n), -1);
    std::vector<bool> active(static_cast<std::size_t>(n), false);
    std::vector<bool> retired(static_cast<std::size_t>(n), false);
    std::vector<bool> started(static_cast<std::size_t>(n), false);
    std::vector<int> occupant(static_cast<std::size_t>(budget), -1);
    std::vector<int> free_wires;
    for (int w = budget - 1; w >= 0; --w) free_wires.push_back(w);

    circuit::Circuit circuit(budget, n);
    AngleEmitter emit(spec, circuit, num_layers);
    std::vector<ReusePair> pairs;
    int pending = n;
    int retired_count = 0;
    int rounds = 0;

    // Activation follows the vertex-separation order: wire demand then
    // equals the order's max liveness, which the greedy ordering keeps
    // near the graph's pathwidth.
    const auto order = separation_order(interaction);
    std::size_t order_pos = 0;

    auto activate_into_free_wires = [&]() {
        bool any = false;
        while (!free_wires.empty() && pending > 0) {
            while (order_pos < order.size() &&
                   started[order[order_pos]]) {
                ++order_pos;
            }
            CAQR_CHECK(order_pos < order.size(),
                       "pending count out of sync");
            const int q = order[order_pos++];
            const int wire = free_wires.back();
            free_wires.pop_back();
            if (occupant[wire] >= 0) {
                pairs.push_back(ReusePair{occupant[wire], q});
            }
            occupant[wire] = q;
            wire_of[q] = wire;
            active[q] = true;
            started[q] = true;
            --pending;
            circuit.h(wire);
            any = true;
        }
        return any;
    };

    // Layer advance / retirement: a qubit whose current layer is
    // exhausted takes its mixer; on the last layer it is measured and
    // its wire freed (reset only when another tenant is coming).
    auto retire_finished = [&]() {
        bool any = false;
        for (int q = 0; q < n; ++q) {
            if (!active[q] || remaining_in_layer[q] != 0) continue;
            const int wire = wire_of[q];
            emit.rx(layer_of[q], wire);
            if (layer_of[q] + 1 < num_layers) {
                ++layer_of[q];
                remaining_in_layer[q] = interaction.degree(q);
                any = true;
                continue;
            }
            circuit.measure(wire, q);
            if (pending > 0) {
                circuit.x_if(wire, q, 1);  // reset for the next tenant
            }
            active[q] = false;
            retired[q] = true;
            ++retired_count;
            free_wires.push_back(wire);
            any = true;
        }
        return any;
    };

    long long guard = 0;
    while (retired_count < n) {
        CAQR_CHECK(guard++ <= 4LL * num_gates * num_layers +
                                  4LL * n * num_layers + 8,
                   "budget scheduler failed to converge");
        bool progress = retire_finished();
        progress |= activate_into_free_wires();

        // One matching round over gate instances with both endpoints
        // active at the instance's layer; weights favor
        // near-retirement endpoints so wires free up quickly (within a
        // cardinality-dominant band).
        std::vector<graph::WeightedEdge> eligible;
        std::vector<int> gate_id;
        const long long base_weight =
            static_cast<long long>(interaction.max_degree()) + 2;
        for (int g = 0; g < num_gates; ++g) {
            if (layers_done[g] >= num_layers) continue;
            const auto& [u, v] = edges[static_cast<std::size_t>(g)];
            if (!active[u] || !active[v]) continue;
            if (layer_of[u] != layers_done[g] ||
                layer_of[v] != layers_done[g]) {
                continue;
            }
            const long long urgency =
                base_weight -
                std::min(remaining_in_layer[u], remaining_in_layer[v]);
            eligible.push_back(graph::WeightedEdge{
                u, v, base_weight + std::max(1LL, urgency)});
            gate_id.push_back(g);
        }
        if (!eligible.empty()) {
            const bool exact = static_cast<int>(eligible.size()) <=
                               options.exact_matching_limit;
            const auto matching =
                exact ? graph::max_weight_matching(n, eligible)
                      : graph::greedy_matching(n, eligible);
            for (std::size_t e = 0; e < eligible.size(); ++e) {
                const auto& edge = eligible[e];
                if (matching.mate[edge.u] != edge.v) continue;
                const int g = gate_id[e];
                if (layers_done[g] >= num_layers) continue;
                emit.rzz(layers_done[g], wire_of[edge.u], wire_of[edge.v]);
                ++layers_done[g];
                --remaining_in_layer[edge.u];
                --remaining_in_layer[edge.v];
                progress = true;
            }
            ++rounds;
        }

        if (!progress) return std::nullopt;  // deadlocked at this budget
    }

    if (pairs_out != nullptr) *pairs_out = pairs;

    int wires_touched = 0;
    for (int w = 0; w < budget; ++w) {
        if (occupant[w] >= 0) ++wires_touched;
    }

    CommutingSchedule result;
    result.wire_of = wire_of;
    result.wires_used = wires_touched;
    result.rounds = rounds;
    result.depth = circuit::depth(circuit);
    circuit::LogicalDurations durations;
    result.duration_dt = circuit::critical_path(circuit, durations);
    result.circuit = std::move(circuit);
    return result;
}

int
min_qubits_by_coloring(const graph::UndirectedGraph& interaction,
                       int exact_limit)
{
    if (interaction.num_nodes() == 0) return 0;
    const auto coloring =
        interaction.num_nodes() <= exact_limit
            ? graph::exact_coloring(interaction)
            : graph::dsatur_coloring(interaction);
    return coloring.num_colors;
}

}  // namespace caqr::core
