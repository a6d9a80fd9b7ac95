#include "transpile/transpiler.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "transpile/decompose.h"
#include "transpile/peephole.h"
#include "transpile/sabre.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace caqr::transpile {

namespace {

/// What every route of one request shares, built once: the native
/// circuit, its reverse (only when refinement runs: the backward
/// direction of bidirectional layout refinement), the `GateGraph` of
/// each, and the greedy layout. The graphs point into the circuits, so
/// the object is neither copied nor moved.
struct RoutingInputs
{
    RoutingInputs(circuit::Circuit native_circuit,
                  const arch::Backend& backend, bool with_reversed)
        : native(std::move(native_circuit)),
          reversed(with_reversed ? native.reversed() : circuit::Circuit()),
          native_graph(native),
          reversed_graph(reversed),
          base_layout(greedy_layout(native, backend))
    {
    }

    RoutingInputs(const RoutingInputs&) = delete;
    RoutingInputs& operator=(const RoutingInputs&) = delete;

    const circuit::Circuit native;
    const circuit::Circuit reversed;
    const GateGraph native_graph;
    const GateGraph reversed_graph;
    const Layout base_layout;
};

/// One trial's outcome. `completed` distinguishes a routed result from
/// a failure (genuine infeasibility or incumbent pruning).
struct TrialOutcome
{
    bool completed = false;
    bool pruned = false;
    util::Status status;
    RoutingResult routed;
    arch::MappedScore score;
};

/// The outcome of one route: on success, the routed circuit and its
/// score.
TrialOutcome
measure_trial(util::StatusOr<RoutingResult> routed,
              const arch::Backend& backend)
{
    TrialOutcome outcome;
    if (!routed.ok()) {
        outcome.status = routed.status();
        outcome.pruned =
            outcome.status.message().find("swap budget exceeded") !=
            std::string::npos;
        return outcome;
    }
    outcome.completed = true;
    outcome.routed = std::move(routed).value();
    util::trace::Span measure("transpile.metrics");
    outcome.score = arch::score_mapped(outcome.routed.circuit, backend);
    return outcome;
}

/// Bidirectional refinement: forward-route, then route the reversed
/// circuit from the forward pass's final layout; the backward pass's
/// final layout is a better *initial* layout for the real forward run.
/// The first forward pass routes the greedy layout unbounded — exactly
/// the anchor trial — so when @p anchor is given it is that pass, and
/// is not routed again. A forward pass that adds no SWAP ends the
/// refinement: every two-qubit gate was adjacent under its layout, and
/// the reversed circuit has the same gates, so every later route is
/// SWAP-free too and hands that layout back. Falls back to the greedy
/// layout if a pass fails (e.g. a pathological device); the caller's
/// trials surface the real error. Adds each route it runs to @p routes.
Layout
refine_layout(const RoutingInputs& in, const arch::Backend& backend,
              const TranspileOptions& options, const TrialOutcome* anchor,
              RouterScratch& scratch, int& routes)
{
    Layout layout = in.base_layout;
    for (int pass = 0; pass < options.layout_refine_passes; ++pass) {
        Layout forward_final;
        if (pass == 0 && anchor != nullptr) {
            if (!anchor->completed) return in.base_layout;
            if (anchor->routed.swaps_added == 0) return layout;
            forward_final = anchor->routed.final_layout;
        } else {
            auto forward = route_or(in.native_graph, backend, layout,
                                    options.router, &scratch);
            ++routes;
            if (!forward.ok()) return in.base_layout;
            if (forward->swaps_added == 0) return layout;
            forward_final = std::move(forward->final_layout);
        }
        auto backward = route_or(in.reversed_graph, backend, forward_final,
                                 options.router, &scratch);
        ++routes;
        if (!backward.ok()) return in.base_layout;
        layout = std::move(backward->final_layout);
    }
    return layout;
}

/// Full pipeline run; the caller has already checked that the circuit
/// fits the backend.
util::StatusOr<TranspileResult>
run_transpile(const circuit::Circuit& logical, const arch::Backend& backend,
              const TranspileOptions& options)
{
    util::trace::Span span("transpile");

    // Guaranteed copy elision builds the inputs in place, inside the
    // span.
    const RoutingInputs in = [&] {
        util::trace::Span prepare("transpile.prepare");
        circuit::Circuit native = options.keep_rzz
                                      ? decompose_ccx(logical)
                                      : decompose_to_native(logical);
        if (options.peephole) native = peephole_optimize(native);
        return RoutingInputs(std::move(native), backend,
                             options.layout_refine_passes > 0);
    }();

    const int trials = std::max(1, options.trials);
    const auto num_trials = static_cast<std::size_t>(trials);
    int routes = 0;

    // The anchor trial routes the plain greedy layout — the legacy
    // single-trial pipeline — and doubles as the pruning bound: it
    // runs unpruned, and its SWAP count becomes the shared incumbent
    // every other trial is cut against the moment its running count
    // *strictly* exceeds it. Every trial that ties or beats the anchor
    // therefore completes, which keeps the dominance-based winner
    // selection below bit-identical at any thread count. With two or
    // more trials it is routed first, on this thread: it is also
    // refinement's first forward pass, and the incumbent is armed
    // before any other trial starts.
    const bool anchor_first = trials >= 2;
    const std::size_t anchor = anchor_first ? 1 : 0;
    std::atomic<int> incumbent{std::numeric_limits<int>::max()};
    RouterScratch scratch;
    TrialOutcome anchor_outcome;
    if (anchor_first) {
        anchor_outcome = measure_trial(
            route_or(in.native_graph, backend, in.base_layout,
                     options.router, &scratch),
            backend);
        ++routes;
        if (anchor_outcome.completed) {
            incumbent.store(anchor_outcome.routed.swaps_added,
                            std::memory_order_relaxed);
        }
    }
    const Layout refined_layout =
        refine_layout(in, backend, options,
                      anchor_first ? &anchor_outcome : nullptr, scratch,
                      routes);

    // Per-trial initial layouts, fixed up front so they never depend on
    // execution order. Trial 0 = refined layout, trial 1 = unrefined
    // greedy anchor, trials >= 2 = seeded transpositions of the refined
    // layout with independent Rng substreams (deeper trials perturb
    // harder).
    std::vector<Layout> layouts(num_trials);
    for (int trial = 0; trial < trials; ++trial) {
        const auto t = static_cast<std::size_t>(trial);
        if (trial == 0) {
            layouts[t] = refined_layout;
        } else if (trial == 1) {
            layouts[t] = in.base_layout;
        } else {
            Layout layout = refined_layout;
            util::Rng rng(options.seed, static_cast<std::uint64_t>(trial));
            const int transpositions = 1 + trial / 4;
            for (int k = 0; k < transpositions && layout.size() >= 2; ++k) {
                const auto i =
                    static_cast<std::size_t>(rng.next_below(layout.size()));
                const auto j =
                    static_cast<std::size_t>(rng.next_below(layout.size()));
                std::swap(layout[i], layout[j]);
            }
            layouts[t] = std::move(layout);
        }
    }

    // Trial t has trial source[t]'s outcome: its own, or, when the
    // anchor or a lower-index trial has an equal layout, that of the
    // anchor or the lowest such trial. Such a repeat is not routed.
    // Routing is a pure function of the graph, backend, layout and
    // options, and the incumbent is fixed before any trial starts, so
    // a repeat would reproduce its source; winner selection's strict
    // `<` never lets it displace that source.
    std::vector<std::size_t> source(num_trials);
    std::size_t repeated = 0;
    for (std::size_t t = 0; t < num_trials; ++t) {
        source[t] = t;
        if (t == anchor) continue;
        if (layouts[t] == layouts[anchor]) {
            source[t] = anchor;
        } else {
            for (std::size_t s = 0; s < t; ++s) {
                if (layouts[s] == layouts[t]) {
                    source[t] = s;
                    break;
                }
            }
        }
        if (source[t] != t) ++repeated;
    }

    auto run_trial = [&](std::size_t t) {
        // The anchor was routed above; a repeat is not routed.
        if ((anchor_first && t == anchor) || source[t] != t) {
            return TrialOutcome{};
        }
        RouterScratch trial_scratch;
        return measure_trial(
            route_or(in.native_graph, backend, layouts[t], options.router,
                     &trial_scratch, anchor_first ? &incumbent : nullptr),
            backend);
    };

    // The trials still to route: every one but an anchor routed above
    // and the repeats.
    const std::size_t raced = num_trials - repeated - (anchor_first ? 1 : 0);
    routes += static_cast<int>(raced);
    std::optional<util::ThreadPool> spawned;
    std::vector<TrialOutcome> outcomes = util::fan_out(
        num_trials,
        std::min(util::ThreadPool::resolve_threads(options.num_threads),
                 static_cast<int>(raced)),
        options.pool, spawned, run_trial);
    if (anchor_first) outcomes[anchor] = std::move(anchor_outcome);

    // A repeat counts as its source's outcome.
    int pruned_trials = 0;
    long long trial_swaps_total = 0;
    for (std::size_t t = 0; t < num_trials; ++t) {
        const TrialOutcome& outcome = outcomes[source[t]];
        if (!outcome.completed) {
            if (outcome.pruned) ++pruned_trials;
            continue;
        }
        trial_swaps_total += outcome.routed.swaps_added;
        util::metrics::global().observe(
            "transpile.swaps_per_trial",
            static_cast<double>(outcome.routed.swaps_added));
    }

    // Winner selection: a challenger is *admissible* when it is no
    // worse than the anchor on every quality metric the regression
    // gate tracks (SWAPs, depth, ESP); among admissible trials the
    // lexicographically best (fewest SWAPs, lowest depth, highest
    // ESP, shortest duration, lowest index) wins — widening the trial
    // portfolio can only improve the result, never trade one tracked
    // metric for another. The scan runs over a deterministic
    // completed set (the anchor is unpruned; anything tying or
    // beating its SWAP count always completes; a pruned trial is
    // never admissible), so the winner is thread-count-independent.
    std::size_t winner = num_trials;
    if (outcomes[anchor].completed) {
        winner = anchor;
        const TrialOutcome& a = outcomes[anchor];
        for (std::size_t i = 0; i < num_trials; ++i) {
            if (i == winner || !outcomes[i].completed) continue;
            const TrialOutcome& c = outcomes[i];
            const bool admissible =
                c.routed.swaps_added <= a.routed.swaps_added &&
                c.score.depth <= a.score.depth && c.score.esp >= a.score.esp;
            if (!admissible) continue;
            const TrialOutcome& w = outcomes[winner];
            const auto key = [](const TrialOutcome& o) {
                return std::make_tuple(o.routed.swaps_added, o.score.depth,
                                       -o.score.esp, o.score.duration_dt);
            };
            if (key(c) < key(w)) winner = i;
        }
    } else {
        // Anchor failed. It is never pruned, so the failure is
        // genuine for its layout; another trial's layout may still
        // route — fall back to (fewest SWAPs, lowest depth, shortest
        // duration, lowest index) over whatever completed.
        for (std::size_t i = 0; i < num_trials; ++i) {
            if (!outcomes[i].completed) continue;
            if (winner == num_trials) {
                winner = i;
                continue;
            }
            const auto key = [](const TrialOutcome& o) {
                return std::make_tuple(o.routed.swaps_added, o.score.depth,
                                       o.score.duration_dt);
            };
            if (key(outcomes[i]) < key(outcomes[winner])) winner = i;
        }
    }
    if (winner == num_trials) {
        // No trial completed. The anchor runs unpruned and only its
        // completion arms the incumbent, so every failure here is
        // genuine; report the anchor's.
        return outcomes[anchor].status;
    }

    auto& metrics = util::metrics::global();
    metrics.add("transpile.layout_trials", trials);
    metrics.add("transpile.routes", routes);
    metrics.add("transpile.layouts_repeated", static_cast<double>(repeated));
    metrics.add("transpile.trial_swaps",
                static_cast<double>(trial_swaps_total));
    metrics.add("transpile.best_swaps", outcomes[winner].routed.swaps_added);
    metrics.add("transpile.trials_pruned", pruned_trials);

    TrialOutcome& w = outcomes[winner];
    TranspileResult best;
    best.circuit = std::move(w.routed.circuit);
    best.initial_layout = std::move(layouts[winner]);
    best.final_layout = std::move(w.routed.final_layout);
    best.swaps_added = w.routed.swaps_added;
    best.depth = w.score.depth;
    best.duration_dt = w.score.duration_dt;
    best.esp = w.score.esp;
    return best;
}

}  // namespace

util::StatusOr<TranspileResult>
transpile_or(const circuit::Circuit& logical, const arch::Backend& backend,
             const TranspileOptions& options)
{
    if (logical.num_qubits() > backend.num_qubits()) {
        return util::Status::infeasible(
            "circuit needs " + std::to_string(logical.num_qubits()) +
            " qubits but backend '" + backend.name() + "' has " +
            std::to_string(backend.num_qubits()));
    }
    return run_transpile(logical, backend, options);
}

}  // namespace caqr::transpile
