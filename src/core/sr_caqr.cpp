#include "core/sr_caqr.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <optional>
#include <tuple>

#include "circuit/schedule.h"
#include "circuit/timing.h"
#include "transpile/decompose.h"
#include "transpile/router.h"
#include "transpile/sabre.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace caqr::core {

namespace {

using circuit::Circuit;
using circuit::GateKind;
using circuit::Instruction;

/// Read-only analysis of one request's circuit, built once and shared
/// by every trial (serial or raced): the CCX-lowered circuit, its
/// dependency graph and earliest/latest completion times, and per-qubit
/// gate counts and two-qubit partners.
struct SrPlan
{
    explicit SrPlan(const Circuit& input);
    SrPlan(const SrPlan&) = delete;
    SrPlan& operator=(const SrPlan&) = delete;

    const Circuit logical;
    const transpile::GateGraph graph;  // over `logical`
    /// Per instruction under `LogicalDurations`: its ASAP finish time,
    /// and the latest finish that keeps the makespan.
    std::vector<double> earliest;
    std::vector<double> latest;
    /// Total operation count per logical qubit (for "map the qubit with
    /// more gates first", paper §3.3.1 Step 2).
    std::vector<int> ops_per_qubit;
    /// partners[q]: the other operand of every two-qubit gate on q, in
    /// program order — one entry per gate, so repeated gates weigh
    /// more.
    std::vector<std::vector<int>> partners;
};

SrPlan::SrPlan(const Circuit& input)
    : logical(transpile::decompose_ccx(input)), graph(logical)
{
    // Instruction i's longest path to the end, itself included, is its
    // finish time in the ASAP schedule of the reversed circuit.
    const circuit::LogicalDurations durations;
    const circuit::Schedule forward(logical, durations);
    const Circuit reversed = logical.reversed();
    const circuit::Schedule backward(reversed, durations);
    const std::size_t n = logical.size();
    earliest.resize(n);
    latest.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        earliest[i] = forward.finish(i);
        latest[i] = backward.makespan() - backward.finish(n - 1 - i) +
                    forward.duration_of(i);
    }

    const auto nq = static_cast<std::size_t>(logical.num_qubits());
    ops_per_qubit.assign(nq, 0);
    partners.resize(nq);
    for (const auto& instr : logical.instructions()) {
        for (int q : instr.qubits) ++ops_per_qubit[q];
        if (!circuit::is_two_qubit(instr.kind)) continue;
        for (int q : instr.qubits) {
            for (int other : instr.qubits) {
                if (other != q) partners[q].push_back(other);
            }
        }
    }
}

/// Base weight of the distance to already-placed partners when seeding
/// a placement; it dominates connectivity, so new qubits land next to
/// the qubits they will talk to.
constexpr double kLookaheadWeight = 4.0;
/// Base weight of the lookahead window in SWAP scoring.
constexpr double kSwapLookaheadWeight = 0.5;

/// The heuristic settings of one variant trial.
struct TrialConfig
{
    double lookahead_weight = kLookaheadWeight;
    double swap_lookahead_weight = kSwapLookaheadWeight;
    /// Pull of a new placement toward the qubit's already-placed
    /// *future* interaction partners (0 = place purely by distance to
    /// the current partner, the paper's Step 2). Positive values trade
    /// a longer first hop for fewer SWAPs later.
    double placement_pull = 0.0;
    /// Amplitude of seeded tie-break jitter on placement keys and SWAP
    /// scores (0 = fully greedy): equal-cost decisions explore
    /// different branches, drawn from `Rng(seed, jitter_stream)`.
    double jitter = 0.0;
    std::uint64_t jitter_stream = 0;
    bool error_aware = true;
    bool delay_noncritical = true;
};

/// The variant portfolio: multipliers of the base weights, a placement
/// pull, and relaxations of the caller's switches. The first 4 are the
/// historical portfolio; 5-8 widen the sweep.
struct Variant
{
    double lookahead;
    double swap_lookahead;
    double pull;         ///< placement_pull override (< 0 keeps 0)
    bool distance_only;  ///< drop the error-aware placement bias
    bool eager_mapping;  ///< drop the delay-noncritical rule
};
constexpr Variant kVariants[] = {
    {1.0, 1.0, -1.0, false, false}, {0.5, 0.5, -1.0, false, false},
    {2.0, 2.0, -1.0, false, false}, {1.0, 0.25, -1.0, false, false},
    {1.0, 1.0, 0.5, false, false},  {1.0, 1.0, 1.0, true, false},
    {1.0, 0.5, 0.25, false, false}, {1.0, 1.0, 0.5, false, true}};
constexpr std::size_t kNumVariants = std::size(kVariants);

/// Trials beyond the structural portfolio are seeded-jitter runs, SR's
/// analogue of SABRE multi-seed trials. Amplitudes cycle small -> large
/// so early extra trials stay close to the greedy solution.
constexpr double kJitterAmps[] = {0.05, 0.15, 0.3, 0.6};

/// Trial @p trial's settings under the caller's @p options.
TrialConfig
trial_config(const SrCaqrOptions& options, std::size_t trial)
{
    TrialConfig config;
    config.error_aware = options.error_aware;
    config.delay_noncritical = options.delay_noncritical;
    if (trial < kNumVariants) {
        const Variant& v = kVariants[trial];
        config.lookahead_weight *= v.lookahead;
        config.swap_lookahead_weight *= v.swap_lookahead;
        if (v.pull >= 0.0) config.placement_pull = v.pull;
        // Structural variants only *relax* requested features, so a
        // caller who disabled them still gets what they asked for.
        if (v.distance_only) config.error_aware = false;
        if (v.eager_mapping) config.delay_noncritical = false;
    } else {
        const std::size_t j = trial - kNumVariants;
        config.jitter = kJitterAmps[j % std::size(kJitterAmps)];
        config.jitter_stream = j / std::size(kJitterAmps);
    }
    return config;
}

/// The anchor's SWAP and physical-qubit counts. Both only grow during
/// a trial, so a trial that exceeds either can no longer be admissible
/// and stops early.
struct SrBound
{
    int swaps;
    int qubits;
};

/**
 * One SR-CaQR trial's state, and SR's policy for the shared SABRE loop
 * (paper §3.3.1): operands are placed on demand (Step 2, with the
 * delaying rule), a qubit is reclaimed once its last gate has run
 * (Step 4), and the stall escape force-routes the most urgent blocked
 * gate (lowest latest completion time).
 */
struct SrState
{
    static constexpr bool kPlacesOnDemand = true;
    static constexpr bool kWindowStopsAtCap = false;

    const SrPlan* plan;
    const arch::Backend* backend;
    const TrialConfig* config;
    const SrBound* bound = nullptr;  // none: run every trial to the end

    Circuit output;
    /// The loop's scratch; its phys_of is -1 for an unplaced qubit.
    transpile::RouterScratch routing;
    std::vector<bool> ever_used;   // physical touched at least once
    int qubits_used = 0;           // true slots of ever_used
    std::vector<int> remaining_ops;  // per logical qubit
    util::Rng* jitter_rng = nullptr;  // set when config->jitter > 0
    int reuses = 0;
    std::vector<int> to_map;  // place() worklist

    bool place(const std::vector<int>& frontier,
               const std::vector<int>& blocked);
    void on_execute(const Instruction& instr);
    void on_swap(int pa, int pb);
    int
    escape_gate(const std::vector<int>& blocked) const
    {
        const auto& latest = plan->latest;
        return *std::min_element(
            blocked.begin(), blocked.end(),
            [&](int a, int b) { return latest[a] < latest[b]; });
    }
    bool adds_noise() const { return jitter_rng != nullptr; }
    /// Seeded tie-break noise added to a placement key / SWAP score.
    double
    noise() const
    {
        if (jitter_rng == nullptr) return 0.0;
        return config->jitter * jitter_rng->next_double();
    }
    bool
    over_budget(int swaps) const
    {
        return bound != nullptr &&
               (swaps > bound->swaps || qubits_used > bound->qubits);
    }
};

/// Free physical qubits = not currently hosting a logical qubit.
bool
is_free(const SrState& state, int phys)
{
    return state.routing.logical_of[phys] < 0;
}

/// Seeds the first operand of a gate: a free physical qubit that is
/// well connected and close to the device center; lookahead pulls it
/// toward already-mapped future partners.
int
pick_seed_phys(const SrState& state, int logical_q)
{
    const auto& backend = *state.backend;
    const auto& topology = backend.topology();
    const int np = backend.num_qubits();
    const auto& phys_of = state.routing.phys_of;

    // Distance rows of logical_q's future partners that are already
    // mapped (one per gate, so repeated partners weigh more).
    std::vector<const int*> partner_rows;
    for (int other : state.plan->partners[logical_q]) {
        if (phys_of[other] >= 0) {
            partner_rows.push_back(backend.distance_row(phys_of[other]));
        }
    }

    int best = -1;
    double best_score = -std::numeric_limits<double>::infinity();
    for (int p = 0; p < np; ++p) {
        if (!is_free(state, p)) continue;
        double score;
        if (partner_rows.empty()) {
            // No placed partner: well-connected central qubit.
            score = topology.degree(p) -
                    static_cast<double>(backend.total_distance(p)) /
                        (np * np);
        } else {
            // Placed partners dominate: sit as close to them as
            // possible, with connectivity as a mild tie-break.
            int total_dist = 0;
            for (const int* row : partner_rows) {
                total_dist += row[p] < 0 ? np : row[p];
            }
            score = -state.config->lookahead_weight * total_dist +
                    0.25 * topology.degree(p);
        }
        if (state.config->error_aware) {
            score -= backend.calibration().qubit(p).readout_error;
            score -= backend.best_incident_cx_error(p);
        }
        score -= state.noise();
        if (score > best_score) {
            best_score = score;
            best = p;
        }
    }
    CAQR_CHECK(best >= 0, "no free physical qubit available");
    return best;
}

/// Places the second operand next to an already-mapped partner:
/// minimum distance, then error tie-breaks (paper Step 2). When
/// `placement_pull` is positive, the choice is additionally pulled
/// toward @p logical_q's already-placed *future* partners, trading a
/// slightly longer first hop for fewer SWAPs later.
int
pick_adjacent_phys(const SrState& state, int logical_q, int partner_phys)
{
    const auto& backend = *state.backend;
    const int np = backend.num_qubits();
    const auto& phys_of = state.routing.phys_of;

    std::vector<const int*> future_rows;
    if (state.config->placement_pull > 0.0) {
        for (int other : state.plan->partners[logical_q]) {
            if (phys_of[other] >= 0 && phys_of[other] != partner_phys) {
                future_rows.push_back(backend.distance_row(phys_of[other]));
            }
        }
    }

    const int* partner_row = backend.distance_row(partner_phys);
    int best = -1;
    double best_key = std::numeric_limits<double>::infinity();
    for (int p = 0; p < np; ++p) {
        if (!is_free(state, p)) continue;
        const int d = partner_row[p];
        double key = static_cast<double>(d < 0 ? np : d);
        if (!future_rows.empty()) {
            int pull = 0;
            for (const int* row : future_rows) {
                pull += arch::routing_distance(row[p], np);
            }
            key += state.config->placement_pull * pull /
                   static_cast<double>(future_rows.size());
        }
        // A reclaimed wire serializes behind its reset: prefer a fresh
        // wire at equal distance, reuse when it is strictly closer.
        if (state.ever_used[p]) key += 0.5;
        if (state.config->error_aware) {
            key += backend.calibration().qubit(p).readout_error;
            if (d == 1) key += backend.cx_error(partner_phys, p);
        }
        key += state.noise();
        if (key < best_key) {
            best_key = key;
            best = p;
        }
    }
    CAQR_CHECK(best >= 0, "no free physical qubit available");
    return best;
}

/// Records that physical qubit @p phys has been touched.
void
mark_used(SrState& state, int phys)
{
    if (state.ever_used[phys]) return;
    state.ever_used[phys] = true;
    ++state.qubits_used;
}

void
assign(SrState& state, int logical_q, int phys)
{
    auto& logical_of = state.routing.logical_of;
    state.routing.phys_of[logical_q] = phys;
    if (logical_of[phys] >= 0 || state.ever_used[phys]) {
        // Reassigning a previously-used wire = a qubit reuse event.
        ++state.reuses;
    }
    logical_of[phys] = logical_q;
    mark_used(state, phys);
}

/// Places the unplaced operands of @p instr per paper Step 2.
void
map_operands(SrState& state, const Instruction& instr)
{
    const auto& phys_of = state.routing.phys_of;
    std::vector<int> unmapped;
    for (int q : instr.qubits) {
        if (phys_of[q] < 0) unmapped.push_back(q);
    }
    if (unmapped.size() == 2) {
        // Busier qubit first (it constrains the future more).
        int first = unmapped[0];
        int second = unmapped[1];
        if (state.remaining_ops[second] > state.remaining_ops[first]) {
            std::swap(first, second);
        }
        assign(state, first, pick_seed_phys(state, first));
        assign(state, second,
               pick_adjacent_phys(state, second, phys_of[first]));
    } else if (unmapped.size() == 1) {
        const int lq = unmapped[0];
        int partner_phys = -1;
        for (int q : instr.qubits) {
            if (q != lq) partner_phys = phys_of[q];
        }
        assign(state, lq,
               partner_phys >= 0
                   ? pick_adjacent_phys(state, lq, partner_phys)
                   : pick_seed_phys(state, lq));
    }
}

/// Mapping decisions (paper Step 2): critical gates with unplaced
/// operands are placed now; non-critical ones stay delayed while
/// routed gates can still make progress. Returns whether anything was
/// placed.
bool
SrState::place(const std::vector<int>& frontier,
               const std::vector<int>& blocked)
{
    const auto& earliest = plan->earliest;
    const auto& latest = plan->latest;
    to_map.clear();
    int most_urgent = -1;
    for (std::size_t i = 0, b = 0; i < frontier.size(); ++i) {
        const int node = frontier[i];
        // blocked is the placed subsequence of frontier.
        if (b < blocked.size() && blocked[b] == node) {
            ++b;
            continue;
        }
        if (!config->delay_noncritical ||
            std::abs(earliest[node] - latest[node]) < 1e-9) {
            to_map.push_back(node);
        }
        if (most_urgent < 0 || latest[node] < latest[most_urgent]) {
            most_urgent = node;
        }
    }
    if (to_map.empty() && blocked.empty()) {
        // Everything is delayed: force the most urgent gate.
        to_map.push_back(most_urgent);
    }
    std::sort(to_map.begin(), to_map.end(), [&](int a, int b) {
        return earliest[a] < earliest[b];
    });
    for (int node : to_map) {
        map_operands(*this, plan->logical.at(static_cast<std::size_t>(node)));
    }
    return !to_map.empty();
}

/// Reclaims operand qubits that have no remaining operations
/// (paper Step 4): conditional reset, then back to the free pool.
void
SrState::on_execute(const Instruction& instr)
{
    for (int lq : instr.qubits) {
        if (--remaining_ops[lq] > 0) continue;

        const int phys = routing.phys_of[lq];
        // Reset so the wire re-enters the pool clean: conditional X on
        // the just-written clbit when the last op was a measurement,
        // otherwise measure into a scratch bit first.
        if (instr.kind == GateKind::kMeasure) {
            output.x_if(phys, instr.clbit, 1);
        } else {
            const int scratch = output.add_clbit();
            output.measure(phys, scratch);
            output.x_if(phys, scratch, 1);
        }
        routing.logical_of[phys] = -1;
        routing.phys_of[lq] = -1;
    }
}

void
SrState::on_swap(int pa, int pb)
{
    mark_used(*this, pa);
    mark_used(*this, pb);
}

/// One trial's outcome: a scored result, or none when the trial was
/// pruned or failed (`status`), plus the SABRE loop's stall counts.
struct SrTrial
{
    util::Status status;
    std::optional<SrCaqrResult> result;
    transpile::SabreStats stats;
};

/// One trial of the engine: the shared SABRE loop under SR's policy
/// with @p config's settings. With a @p bound, the trial is pruned as
/// soon as it has more SWAPs or more physical qubits than the bound.
SrTrial
sr_caqr_single(const SrPlan& plan, const arch::Backend& backend,
               const TrialConfig& config, std::uint64_t seed,
               const SrBound* bound)
{
    const Circuit& logical = plan.logical;
    const int np = backend.num_qubits();
    util::Rng jitter_rng(seed, config.jitter_stream);

    SrState state;
    state.plan = &plan;
    state.backend = &backend;
    state.config = &config;
    state.bound = bound;
    if (config.jitter > 0.0) state.jitter_rng = &jitter_rng;
    state.output = Circuit(np, logical.num_clbits());
    state.output.copy_params_from(logical);
    state.routing.phys_of.assign(
        static_cast<std::size_t>(logical.num_qubits()), -1);
    state.routing.logical_of.assign(static_cast<std::size_t>(np), -1);
    state.ever_used.assign(static_cast<std::size_t>(np), false);
    state.remaining_ops = plan.ops_per_qubit;

    // A speculative SWAP streak of 2 * np escapes; the window, decay
    // and reset interval are the router's defaults.
    transpile::RouterOptions sabre;
    sabre.lookahead_weight = config.swap_lookahead_weight;
    sabre.error_aware = config.error_aware;
    sabre.stall_escape_after = 2 * np;
    transpile::SabreLoop loop(plan.graph, backend, sabre, state.routing,
                              state.output, state);
    SrTrial trial;
    trial.status = loop.run();
    trial.stats = loop.stats();
    if (!trial.status.ok()) {
        // A pruned trial has no result, and is no failure.
        if (trial.stats.pruned) trial.status = util::Status();
        return trial;
    }

    SrCaqrResult& result = trial.result.emplace();
    result.swaps_added = trial.stats.swaps_added;
    result.reuses = state.reuses;
    result.physical_qubits_used = state.qubits_used;
    result.circuit = std::move(state.output);
    // ESP is part of the winner selection, so the trial scores itself,
    // inside the (possibly racing) trial.
    const arch::MappedScore score = arch::score_mapped(result.circuit, backend);
    result.depth = score.depth;
    result.duration_dt = score.duration_dt;
    result.esp = score.esp;
    return trial;
}

/// Full variant-trials run; the caller has already checked that the
/// circuit fits the backend. A trial that fails fails the run, with
/// the failure of the lowest-index one.
util::StatusOr<SrCaqrResult>
run_sr_caqr(const Circuit& input, const arch::Backend& backend,
            const SrCaqrOptions& options)
{
    util::trace::Span span("sr_caqr");

    const int trials = std::max(1, options.trials);
    const SrPlan plan(input);
    CAQR_CHECK(plan.logical.num_qubits() <= backend.num_qubits(),
               "circuit does not fit the backend");

    auto run_variant = [&](std::size_t trial, const SrBound* bound) {
        util::trace::Span trial_span("sr_caqr.trial");
        return sr_caqr_single(plan, backend, trial_config(options, trial),
                              options.seed, bound);
    };

    const int threads = std::min(
        util::ThreadPool::resolve_threads(options.num_threads), trials);
    std::optional<util::ThreadPool> spawned;
    // Trials [first, last), in index order whatever the thread count.
    auto run_trials = [&](std::size_t first, std::size_t last,
                          const SrBound* bound) {
        return util::fan_out(last - first, threads, options.pool, spawned,
                             [&](std::size_t i) {
                                 return run_variant(first + i, bound);
                             });
    };

    // Winner selection, in two index-ordered stages (fan_out returns
    // results in variant order, so both are thread-count-independent).
    //
    // Stage 1 — anchor: the historical portfolio's winner (the first 4
    // variants, fewest SWAPs then shortest duration). These trials run
    // first and to completion.
    const std::size_t legacy = std::min<std::size_t>(trials, 4);
    std::vector<SrTrial> results = run_trials(0, legacy, nullptr);
    const auto failure = [&]() -> const util::Status* {
        for (const SrTrial& trial : results) {
            if (!trial.status.ok()) return &trial.status;
        }
        return nullptr;
    };
    if (const util::Status* status = failure()) return *status;
    std::size_t anchor = 0;
    for (std::size_t i = 1; i < legacy; ++i) {
        const SrCaqrResult& r = *results[i].result;
        const SrCaqrResult& w = *results[anchor].result;
        if (r.swaps_added < w.swaps_added ||
            (r.swaps_added == w.swaps_added &&
             r.duration_dt < w.duration_dt)) {
            anchor = i;
        }
    }

    // Stage 2 — challenge: a trial is *admissible* when it is no worse
    // than the anchor on every quality metric the regression gate
    // tracks (SWAPs, physical qubits, depth, ESP); among admissible
    // trials the lexicographically best (fewest SWAPs, fewest qubits,
    // lowest depth, highest ESP, shortest duration, lowest index)
    // wins. Because admissibility is judged against the anchor — not
    // the running winner — one challenger can never shadow another,
    // and the final answer always dominates the legacy result: the
    // wider portfolio can only improve, never trade one tracked
    // metric for another. The remaining trials run bounded by the
    // anchor's SWAP and qubit counts: both only grow, so a trial
    // pruned for exceeding either could not have been admissible.
    const SrBound bound{results[anchor].result->swaps_added,
                        results[anchor].result->physical_qubits_used};
    auto challengers =
        run_trials(legacy, static_cast<std::size_t>(trials), &bound);
    std::move(challengers.begin(), challengers.end(),
              std::back_inserter(results));
    if (const util::Status* status = failure()) return *status;

    int pruned = 0;
    std::size_t winner = anchor;
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (!results[i].result) {
            ++pruned;
            continue;
        }
        if (i == winner) continue;
        const SrCaqrResult& r = *results[i].result;
        const SrCaqrResult& a = *results[anchor].result;
        const bool admissible =
            r.swaps_added <= a.swaps_added &&
            r.physical_qubits_used <= a.physical_qubits_used &&
            r.depth <= a.depth && r.esp >= a.esp;
        if (!admissible) continue;
        const auto key = [](const SrCaqrResult& x) {
            return std::make_tuple(x.swaps_added, x.physical_qubits_used,
                                   x.depth, -x.esp, x.duration_dt);
        };
        if (key(r) < key(*results[winner].result)) winner = i;
    }
    SrCaqrResult best = std::move(*results[winner].result);

    long long stall_iterations = 0;
    long long stall_escapes = 0;
    for (const SrTrial& trial : results) {
        stall_iterations += trial.stats.stall_iterations;
        stall_escapes += trial.stats.stall_escapes;
    }
    auto& metrics = util::metrics::global();
    metrics.add("sr_caqr.variant_trials", trials);
    metrics.add("sr_caqr.trials_pruned", pruned);
    metrics.add("sr_caqr.stall_iterations",
                static_cast<double>(stall_iterations));
    metrics.add("sr_caqr.stall_escapes", static_cast<double>(stall_escapes));
    metrics.add("sr_caqr.swaps_added", best.swaps_added);
    metrics.add("sr_caqr.reuses", best.reuses);
    return best;
}

}  // namespace

util::StatusOr<SrCaqrResult>
sr_caqr_or(const Circuit& logical, const arch::Backend& backend,
           const SrCaqrOptions& options)
{
    if (logical.num_qubits() > backend.num_qubits()) {
        return util::Status::infeasible(
            "circuit needs " + std::to_string(logical.num_qubits()) +
            " qubits but backend '" + backend.name() + "' has " +
            std::to_string(backend.num_qubits()));
    }
    return run_sr_caqr(logical, backend, options);
}

util::StatusOr<SrCaqrResult>
sr_caqr_commuting_or(const CommutingSpec& spec, const arch::Backend& backend,
                     const SrCaqrOptions& options,
                     const QsCommutingOptions& qs_options)
{
    // The zero-reuse probe materializes one wire per problem node, so
    // the workload fits iff the node count does.
    if (spec.interaction.num_nodes() > backend.num_qubits()) {
        return util::Status::infeasible(
            "workload needs " +
            std::to_string(spec.interaction.num_nodes()) +
            " qubits but backend '" + backend.name() + "' has " +
            std::to_string(backend.num_qubits()));
    }

    // Step 1 (paper §3.3.2): sweep reuse levels with QS-CaQR and
    // materialize their partial orders. The "sweet point" is the level
    // whose *mapped* circuit minimizes SWAPs (duration as tie-break) —
    // SWAP reduction is SR-CaQR's objective. An unreachable qs target
    // propagates as infeasible.
    auto qs = qs_caqr_commuting_or(spec, qs_options);
    if (!qs.ok()) return qs.status();

    // Steps 2-4, at every reuse level (the sweep is one version per
    // count): the materialized circuits carry the imposed reuse
    // dependencies; the regular engine applies delaying, error-aware
    // mapping, and reclamation on top of each.
    std::optional<SrCaqrResult> best;
    for (const auto& version : qs->versions) {
        auto result = run_sr_caqr(version.schedule.circuit, backend, options);
        if (!result.ok()) return result.status();
        if (!best || result->swaps_added < best->swaps_added ||
            (result->swaps_added == best->swaps_added &&
             result->duration_dt < best->duration_dt)) {
            best = std::move(result).value();
        }
    }
    return best ? std::move(*best) : SrCaqrResult{};
}

}  // namespace caqr::core
