#include "core/commuting.h"

#include <algorithm>
#include <string>
#include <utility>

#include "circuit/schedule.h"
#include "circuit/timing.h"
#include "graph/coloring.h"
#include "graph/matching.h"
#include "util/logging.h"

namespace caqr::core {

namespace {

/// Weight `schedule_commuting` gives a gate that unblocks a pending
/// reuse (>1 per paper Step 2); every other gate weighs 1.
constexpr long long kReusePriorityWeight = 4;

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

/**
 * The gate-instance rounds both schedulers share. Every edge carries
 * one RZZ instance per layer (instances ordered per edge) and each
 * qubit takes an RX mixer after each of its layers. The schedulers
 * only decide when a qubit joins a wire (`wire_of`, `on_wire`), what
 * happens once it finishes, and how gates are weighted.
 *
 * Angles are concrete by default; with `spec.symbolic` the circuit
 * registers per-layer params gamma<l>/beta<l> (interleaved per layer,
 * values = full rotation angles 2γ/2β) and the gates carry them.
 */
struct GateRounds
{
    /// Outcome of `advance` for one qubit.
    enum class Step { kBusy, kNextLayer, kDone };

    const CommutingSpec& spec;
    const int num_layers;
    circuit::Circuit circuit;
    std::vector<int> wire_of;             ///< problem qubit -> wire, or -1
    std::vector<bool> on_wire;            ///< placed and not yet measured
    std::vector<int> layer_of;            ///< qubit's current layer
    std::vector<int> remaining_in_layer;  ///< its gates left in that layer
    std::vector<int> layers_done;         ///< per edge: instances emitted
    int rounds = 0;                       ///< non-empty matching rounds
    std::vector<circuit::ParamRef> gamma_ref;
    std::vector<circuit::ParamRef> beta_ref;

    GateRounds(const CommutingSpec& s, int wires)
        : spec(s),
          num_layers(std::max(1, s.layers)),
          circuit(wires, s.interaction.num_nodes()),
          wire_of(static_cast<std::size_t>(s.interaction.num_nodes()), -1),
          on_wire(wire_of.size(), false),
          layer_of(wire_of.size(), 0),
          remaining_in_layer(wire_of.size(), 0),
          layers_done(s.interaction.edges().size(), 0)
    {
        for (const auto& [u, v] : spec.interaction.edges()) {
            ++remaining_in_layer[u];
            ++remaining_in_layer[v];
        }
        if (!spec.symbolic) return;
        for (int l = 0; l < num_layers; ++l) {
            gamma_ref.push_back(circuit.add_param(
                "gamma" + std::to_string(l), 2.0 * spec.gamma_at(l)));
            beta_ref.push_back(circuit.add_param(
                "beta" + std::to_string(l), 2.0 * spec.beta_at(l)));
        }
    }

    /// Layer advance: once on-wire qubit @p q has no gate left in its
    /// current layer, emits its mixer and moves it to the next layer
    /// (kNextLayer), or reports its last layer done (kDone; the caller
    /// measures it). kBusy otherwise.
    Step
    advance(int q)
    {
        if (!on_wire[q] || remaining_in_layer[q] != 0) return Step::kBusy;
        const int layer = layer_of[q];
        if (spec.symbolic) {
            circuit.rx_sym(beta_ref[static_cast<std::size_t>(layer)],
                           wire_of[q]);
        } else {
            circuit.rx(2.0 * spec.beta_at(layer), wire_of[q]);
        }
        if (layer + 1 == num_layers) return Step::kDone;
        ++layer_of[q];
        remaining_in_layer[q] = spec.interaction.degree(q);
        return Step::kNextLayer;
    }

    /// One round of paper Steps 2-3: the eligible gate instances (both
    /// endpoints on a wire and at the instance's layer), weighted by
    /// @p weight(u, v) > 0, go through a maximum-weight matching
    /// (Blossom up to `exact_matching_limit` eligible gates, greedy
    /// above) and the matched ones are emitted. Returns how many were;
    /// 0 only when no gate was eligible.
    template <typename Weight>
    int
    match_round(const CommutingOptions& options, Weight weight)
    {
        const auto& edges = spec.interaction.edges();
        std::vector<graph::WeightedEdge> eligible;
        std::vector<int> gate_id;
        for (std::size_t g = 0; g < edges.size(); ++g) {
            // A gate done with every layer is past each qubit's layer.
            const auto& [u, v] = edges[g];
            if (!on_wire[u] || !on_wire[v] ||
                layer_of[u] != layers_done[g] ||
                layer_of[v] != layers_done[g]) {
                continue;
            }
            eligible.push_back(graph::WeightedEdge{u, v, weight(u, v)});
            gate_id.push_back(static_cast<int>(g));
        }
        if (eligible.empty()) return 0;

        const int n = spec.interaction.num_nodes();
        const auto matching =
            static_cast<int>(eligible.size()) <= options.exact_matching_limit
                ? graph::max_weight_matching(n, eligible)
                : graph::greedy_matching(n, eligible);
        int emitted = 0;
        for (std::size_t e = 0; e < eligible.size(); ++e) {
            const int u = eligible[e].u;
            const int v = eligible[e].v;
            if (matching.mate[u] != v) continue;
            const int layer = layers_done[gate_id[e]]++;
            if (spec.symbolic) {
                circuit.rzz_sym(gamma_ref[static_cast<std::size_t>(layer)],
                                wire_of[u], wire_of[v]);
            } else {
                circuit.rzz(2.0 * spec.gamma_at(layer), wire_of[u],
                            wire_of[v]);
            }
            --remaining_in_layer[u];
            --remaining_in_layer[v];
            ++emitted;
        }
        // Every weight is positive, so both matchers take at least one
        // edge of a non-empty round.
        CAQR_CHECK(emitted > 0, "matching scheduled no eligible gate");
        ++rounds;
        return emitted;
    }

    /// Times the finished circuit and hands it over.
    CommutingSchedule
    finish(int wires_used)
    {
        CommutingSchedule result;
        result.wire_of = std::move(wire_of);
        result.wires_used = wires_used;
        result.rounds = rounds;
        result.depth = circuit::depth(circuit);
        circuit::LogicalDurations durations;
        result.duration_dt = circuit::critical_path(circuit, durations);
        result.circuit = std::move(circuit);
        return result;
    }
};

}  // namespace

bool
commuting_pairs_valid(const graph::UndirectedGraph& interaction,
                      const std::vector<ReusePair>& pairs, int layers)
{
    const int n = interaction.num_nodes();
    PairIndex index(n);
    if (!build_index(n, pairs, &index)) return false;

    // The pair graph of the header, each pair named by its source
    // qubit: s -> s' when s' lies within `layers` hops of s's target.
    // One BFS per pair, cut at that depth.
    const int max_hops = std::max(1, layers);
    std::vector<std::vector<int>> successors(static_cast<std::size_t>(n));
    std::vector<int> in_degree(static_cast<std::size_t>(n), 0);
    std::vector<int> hops(static_cast<std::size_t>(n), -1);
    std::vector<int> ball;
    for (int s = 0; s < n; ++s) {
        const int target = index.target_of[s];
        if (target < 0) continue;
        ball.assign(1, target);
        hops[target] = 0;
        for (std::size_t i = 0; i < ball.size(); ++i) {
            const int u = ball[i];
            if (hops[u] == max_hops) continue;
            for (int v : interaction.neighbors(u)) {
                if (hops[v] >= 0) continue;
                hops[v] = hops[u] + 1;
                ball.push_back(v);
            }
        }
        for (int u : ball) {
            hops[u] = -1;
            if (index.target_of[u] < 0) continue;
            successors[s].push_back(u);
            ++in_degree[u];
        }
    }

    // Kahn: acyclic iff every pair leaves the ready list.
    std::vector<int> ready;
    for (const auto& pair : pairs) {
        if (in_degree[pair.source] == 0) ready.push_back(pair.source);
    }
    std::size_t ordered = 0;
    while (!ready.empty()) {
        const int s = ready.back();
        ready.pop_back();
        ++ordered;
        for (int next : successors[s]) {
            if (--in_degree[next] == 0) ready.push_back(next);
        }
    }
    return ordered == pairs.size();
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

    // Wires: non-target qubits (one per pair fewer than n, targets being
    // distinct) start on fresh wires; targets inherit their source's
    // wire after the reset.
    const int wires_used = n - static_cast<int>(pairs.size());
    GateRounds state(spec, wires_used);
    auto& circuit = state.circuit;
    int next_wire = 0;
    for (int q = 0; q < n; ++q) {
        if (index.source_of[q] >= 0) continue;
        state.wire_of[q] = next_wire++;
        state.on_wire[q] = true;
        circuit.h(state.wire_of[q]);
    }

    // A qubit done with its last layer is measured and, for a reuse
    // source, reset and handed off. Cascades through gate-free chains
    // and layers.
    int finished = 0;
    auto process_finishes = [&]() {
        bool progressed = false;
        bool again = true;
        while (again) {
            again = false;
            for (int q = 0; q < n; ++q) {
                const auto step = state.advance(q);
                if (step == GateRounds::Step::kBusy) continue;
                progressed = true;
                if (step == GateRounds::Step::kNextLayer) {
                    again = true;
                    continue;
                }
                const int wire = state.wire_of[q];
                circuit.measure(wire, q);
                state.on_wire[q] = false;
                ++finished;
                const int target = index.target_of[q];
                if (target >= 0) {
                    circuit.x_if(wire, q, 1);
                    state.wire_of[target] = wire;
                    state.on_wire[target] = true;
                    circuit.h(wire);
                    again = true;  // target may be gate-free
                }
            }
        }
        return progressed;
    };

    // An eligible gate's endpoints are still on their wires, so a reuse
    // source among them has not handed off yet.
    auto weight = [&](int u, int v) {
        return index.target_of[u] >= 0 || index.target_of[v] >= 0
                   ? kReusePriorityWeight
                   : 1LL;
    };

    const long long instances =
        static_cast<long long>(interaction.num_edges()) * state.num_layers;
    long long gates_left = instances;
    process_finishes();  // retire gate-free qubits immediately
    long long guard = 0;
    while (gates_left > 0) {
        CAQR_CHECK(guard++ <= 2 * instances + 2LL * n * state.num_layers + 4,
                   "commuting scheduler failed to converge");
        const int scheduled = state.match_round(options, weight);
        if (scheduled == 0) {
            // All remaining gates wait on a reuse handoff or a layer
            // advance.
            CAQR_CHECK(process_finishes(), "commuting scheduler deadlocked");
            continue;
        }
        gates_left -= scheduled;
        process_finishes();
    }
    process_finishes();
    CAQR_CHECK(finished == n, "qubit left unfinished by scheduler");
    return state.finish(wires_used);
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

    GateRounds state(spec, budget);
    auto& circuit = state.circuit;
    std::vector<int> occupant(static_cast<std::size_t>(budget), -1);
    std::vector<int> free_wires;
    for (int w = budget - 1; w >= 0; --w) free_wires.push_back(w);

    std::vector<ReusePair> pairs;
    int pending = n;
    int retired = 0;

    // Activation follows the vertex-separation order: wire demand then
    // equals the order's max liveness, which the greedy ordering keeps
    // near the graph's pathwidth.
    const auto order = separation_order(interaction);
    std::size_t order_pos = 0;

    auto activate_into_free_wires = [&]() {
        bool any = false;
        while (!free_wires.empty() && pending > 0) {
            // A qubit has a wire from its activation on.
            while (order_pos < order.size() &&
                   state.wire_of[order[order_pos]] >= 0) {
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
            state.wire_of[q] = wire;
            state.on_wire[q] = true;
            --pending;
            circuit.h(wire);
            any = true;
        }
        return any;
    };

    // A qubit done with its last layer is measured and its wire freed
    // (reset only when another tenant is coming).
    auto retire_finished = [&]() {
        bool any = false;
        for (int q = 0; q < n; ++q) {
            const auto step = state.advance(q);
            if (step == GateRounds::Step::kBusy) continue;
            any = true;
            if (step == GateRounds::Step::kNextLayer) continue;
            const int wire = state.wire_of[q];
            circuit.measure(wire, q);
            if (pending > 0) {
                circuit.x_if(wire, q, 1);  // reset for the next tenant
            }
            state.on_wire[q] = false;
            ++retired;
            free_wires.push_back(wire);
        }
        return any;
    };

    // Weights favor near-retirement endpoints so wires free up quickly
    // (within a cardinality-dominant band).
    const long long base_weight =
        static_cast<long long>(interaction.max_degree()) + 2;
    auto weight = [&](int u, int v) {
        const long long urgency =
            base_weight - std::min(state.remaining_in_layer[u],
                                   state.remaining_in_layer[v]);
        return base_weight + std::max(1LL, urgency);
    };

    const long long instances =
        static_cast<long long>(interaction.num_edges()) * state.num_layers;
    long long guard = 0;
    while (retired < n) {
        CAQR_CHECK(guard++ <= 4 * instances + 4LL * n * state.num_layers + 8,
                   "budget scheduler failed to converge");
        bool progress = retire_finished();
        progress |= activate_into_free_wires();
        progress |= state.match_round(options, weight) > 0;
        if (!progress) return std::nullopt;  // deadlocked at this budget
    }

    if (pairs_out != nullptr) *pairs_out = std::move(pairs);
    const auto wires_touched = static_cast<int>(
        std::count_if(occupant.begin(), occupant.end(),
                      [](int q) { return q >= 0; }));
    return state.finish(wires_touched);
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
