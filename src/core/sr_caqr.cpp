#include "core/sr_caqr.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <optional>
#include <tuple>

#include "circuit/dag.h"
#include "circuit/schedule.h"
#include "circuit/timing.h"
#include "transpile/decompose.h"
#include "transpile/router.h"
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
/// by every trial (serial or raced): the CCX-lowered circuit, its DAG
/// and earliest/latest completion times, and per-qubit gate counts and
/// two-qubit partners.
struct SrPlan
{
    explicit SrPlan(const Circuit& input);
    SrPlan(const SrPlan&) = delete;
    SrPlan& operator=(const SrPlan&) = delete;

    const Circuit logical;
    const circuit::CircuitDag dag;  // over `logical`
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
    : logical(transpile::decompose_ccx(input)), dag(logical)
{
    circuit::LogicalDurations durations;
    std::vector<double> weights;
    weights.reserve(logical.size());
    for (const auto& instr : logical.instructions()) {
        weights.push_back(durations.duration(instr));
    }
    earliest = dag.graph().earliest_completion(weights);
    latest = dag.graph().latest_completion(weights);

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

/// Mutable compilation state for the SR-CaQR engine.
struct SrState
{
    const SrPlan* plan;
    const arch::Backend* backend;
    const SrCaqrOptions* options;

    Circuit output;
    std::vector<int> phys_of;      // logical -> physical or -1
    std::vector<int> logical_of;   // physical -> logical or -1
    std::vector<bool> ever_used;   // physical touched at least once
    int qubits_used = 0;           // true slots of ever_used
    std::vector<int> remaining_ops;  // per logical qubit
    util::Rng* jitter_rng = nullptr;  // set when options->jitter > 0
    int swaps_added = 0;
    int reuses = 0;
};

/// The anchor's SWAP and physical-qubit counts. Both only grow during
/// a trial, so a trial that exceeds either can no longer be admissible
/// and stops early.
struct SrBound
{
    int swaps;
    int qubits;
};

/// Seeded tie-break noise added to a placement key / SWAP score.
double
jitter_of(const SrState& state)
{
    if (state.jitter_rng == nullptr) return 0.0;
    return state.options->jitter * state.jitter_rng->next_double();
}

/// Free physical qubits = not currently hosting a logical qubit.
bool
is_free(const SrState& state, int phys)
{
    return state.logical_of[phys] < 0;
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

    // Distance rows of logical_q's future partners that are already
    // mapped (one per gate, so repeated partners weigh more).
    std::vector<const int*> partner_rows;
    for (int other : state.plan->partners[logical_q]) {
        if (state.phys_of[other] >= 0) {
            partner_rows.push_back(backend.distance_row(state.phys_of[other]));
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
            score = -state.options->lookahead_weight * total_dist +
                    0.25 * topology.degree(p);
        }
        if (state.options->error_aware) {
            score -= backend.calibration().qubit(p).readout_error;
            score -= backend.best_incident_cx_error(p);
        }
        score -= jitter_of(state);
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

    std::vector<const int*> future_rows;
    if (state.options->placement_pull > 0.0) {
        for (int other : state.plan->partners[logical_q]) {
            if (state.phys_of[other] >= 0 &&
                state.phys_of[other] != partner_phys) {
                future_rows.push_back(
                    backend.distance_row(state.phys_of[other]));
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
            key += state.options->placement_pull * pull /
                   static_cast<double>(future_rows.size());
        }
        // A reclaimed wire serializes behind its reset: prefer a fresh
        // wire at equal distance, reuse when it is strictly closer.
        if (state.ever_used[p]) key += 0.5;
        if (state.options->error_aware) {
            key += backend.calibration().qubit(p).readout_error;
            if (d == 1) {
                for (const auto& link : backend.links(partner_phys)) {
                    if (link.neighbor == p) key += link.cx_error;
                }
            }
        }
        key += jitter_of(state);
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
    state.phys_of[logical_q] = phys;
    if (state.logical_of[phys] >= 0 || state.ever_used[phys]) {
        // Reassigning a previously-used wire = a qubit reuse event.
        ++state.reuses;
    }
    state.logical_of[phys] = logical_q;
    mark_used(state, phys);
}

/// Applies a SWAP on physical link (pa, pb), updating the mapping.
void
apply_swap(SrState& state, int pa, int pb)
{
    Instruction swap_instr;
    swap_instr.kind = GateKind::kSwap;
    swap_instr.qubits = {pa, pb};
    state.output.append(std::move(swap_instr));
    ++state.swaps_added;
    mark_used(state, pa);
    mark_used(state, pb);

    const int la = state.logical_of[pa];
    const int lb = state.logical_of[pb];
    if (la >= 0) state.phys_of[la] = pb;
    if (lb >= 0) state.phys_of[lb] = pa;
    std::swap(state.logical_of[pa], state.logical_of[pb]);
}

/// Emits one logical instruction (operands must be mapped & routed).
void
emit(SrState& state, const Instruction& instr)
{
    Instruction mapped = instr;
    for (auto& q : mapped.qubits) {
        CAQR_CHECK(state.phys_of[q] >= 0, "emitting unmapped qubit");
        q = state.phys_of[q];
        mark_used(state, q);
    }
    state.output.append(std::move(mapped));
}

/// Reclaims operand qubits that have no remaining operations
/// (paper Step 4): conditional reset, then back to the free pool.
void
reclaim_finished(SrState& state, const Instruction& executed,
                 const Instruction& logical_instr)
{
    for (std::size_t slot = 0; slot < logical_instr.qubits.size();
         ++slot) {
        const int lq = logical_instr.qubits[slot];
        if (--state.remaining_ops[lq] > 0) continue;

        const int phys = state.phys_of[lq];
        // Reset so the wire re-enters the pool clean: conditional X on
        // the just-written clbit when the last op was a measurement,
        // otherwise measure into a scratch bit first.
        if (logical_instr.kind == GateKind::kMeasure) {
            state.output.x_if(phys, executed.clbit, 1);
        } else {
            const int scratch = state.output.add_clbit();
            state.output.measure(phys, scratch);
            state.output.x_if(phys, scratch, 1);
        }
        state.logical_of[phys] = -1;
        state.phys_of[lq] = -1;
    }
}

}  // namespace

namespace {

std::optional<SrCaqrResult> sr_caqr_single(const SrPlan& plan,
                                           const arch::Backend& backend,
                                           const SrCaqrOptions& options,
                                           const SrBound* bound);

/// Full variant-trials run; the caller has already checked that the
/// circuit fits the backend.
SrCaqrResult
run_sr_caqr(const Circuit& input, const arch::Backend& backend,
            const SrCaqrOptions& options)
{
    util::trace::Span span("sr_caqr");

    // Heuristic-perturbation trials around the placement and SWAP
    // scoring weights. The first 4 variants are the historical
    // portfolio; 5-8 widen the sweep now that trials race on the
    // thread pool. The winner selection below guarantees any trial
    // count >= 4 is weakly better than the pre-PR-9 behavior on every
    // tracked quality metric.
    struct Variant
    {
        double lookahead;
        double swap_lookahead;
        double pull;         ///< placement_pull override (< 0 keeps it)
        bool distance_only;  ///< drop the error-aware placement bias
        bool eager_mapping;  ///< drop the delay-noncritical rule
    };
    static constexpr Variant kVariants[] = {
        {1.0, 1.0, -1.0, false, false}, {0.5, 0.5, -1.0, false, false},
        {2.0, 2.0, -1.0, false, false}, {1.0, 0.25, -1.0, false, false},
        {1.0, 1.0, 0.5, false, false},  {1.0, 1.0, 1.0, true, false},
        {1.0, 0.5, 0.25, false, false}, {1.0, 1.0, 0.5, false, true}};
    constexpr int kNumVariants =
        static_cast<int>(sizeof(kVariants) / sizeof(kVariants[0]));

    // Trials beyond the structural portfolio are seeded-jitter runs:
    // small tie-break noise on placement keys and SWAP scores lets
    // equal-cost decisions explore different branches — SR's analogue
    // of SABRE multi-seed trials. Amplitudes cycle small -> large so
    // early extra trials stay close to the greedy solution.
    static constexpr double kJitterAmps[] = {0.05, 0.15, 0.3, 0.6};

    const int trials = std::max(1, options.trials);
    const SrPlan plan(input);
    CAQR_CHECK(plan.logical.num_qubits() <= backend.num_qubits(),
               "circuit does not fit the backend");

    // A trial's result plus its estimated success probability — ESP is
    // part of the winner selection below, so it is computed inside the
    // (possibly racing) trial rather than serially afterwards, from the
    // same calibrated schedule that gives the trial's duration. A
    // pruned trial has no result.
    struct TrialResult
    {
        std::optional<SrCaqrResult> result;
        double esp = 0.0;
    };
    auto run_variant = [&](std::size_t trial, const SrBound* bound) {
        // Rebind the owning request on this (possibly pool) thread so
        // raced variants from concurrent requests keep their spans
        // attributed to the right request.
        util::trace::RequestScope request_scope(options.request_ctx,
                                                options.capture);
        util::trace::Span trial_span("sr_caqr.trial");
        SrCaqrOptions variant = options;
        if (trial < static_cast<std::size_t>(kNumVariants)) {
            variant.lookahead_weight *= kVariants[trial].lookahead;
            variant.swap_lookahead_weight *=
                kVariants[trial].swap_lookahead;
            if (kVariants[trial].pull >= 0.0) {
                variant.placement_pull = kVariants[trial].pull;
            }
            // Structural variants only *relax* requested features, so
            // a caller who disabled them still gets what they asked
            // for.
            if (kVariants[trial].distance_only) {
                variant.error_aware = false;
            }
            if (kVariants[trial].eager_mapping) {
                variant.delay_noncritical = false;
            }
        } else {
            const std::size_t j =
                trial - static_cast<std::size_t>(kNumVariants);
            variant.jitter = kJitterAmps[j % 4];
            variant.jitter_stream = j / 4;
        }
        TrialResult out;
        out.result = sr_caqr_single(plan, backend, variant, bound);
        if (!out.result) return out;
        SrCaqrResult& result = *out.result;
        result.depth = circuit::depth(result.circuit);
        arch::CalibratedDurations model(backend);
        const circuit::Schedule schedule(result.circuit, model);
        result.duration_dt = schedule.makespan();
        out.esp = arch::estimated_success_probability(result.circuit,
                                                      backend, schedule);
        return out;
    };

    const int threads =
        util::ThreadPool::resolve_threads(options.num_threads);
    util::ThreadPool* pool = nullptr;
    std::optional<util::ThreadPool> transient;
    if (trials > 1 && threads > 1) {
        pool = options.pool != nullptr && options.pool->size() > 0
                   ? options.pool
                   : &transient.emplace(std::min(threads, trials) - 1);
    }
    // Trials [first, last), in index order whatever the thread count.
    auto run_trials = [&](std::size_t first, std::size_t last,
                          const SrBound* bound) {
        const auto run = [&](std::size_t i) {
            return run_variant(first + i, bound);
        };
        if (pool != nullptr) return pool->map(last - first, run);
        std::vector<TrialResult> batch;
        batch.reserve(last - first);
        for (std::size_t i = 0; i < last - first; ++i) {
            batch.push_back(run(i));
        }
        return batch;
    };

    // Winner selection, in two index-ordered stages (map() returns
    // results in variant order, so both are thread-count-independent).
    //
    // Stage 1 — anchor: the historical portfolio's winner (the first 4
    // variants, fewest SWAPs then shortest duration), i.e. exactly what
    // the narrower pre-PR-9 sweep produced. These trials run first and
    // to completion.
    const std::size_t legacy = std::min<std::size_t>(trials, 4);
    std::vector<TrialResult> results = run_trials(0, legacy, nullptr);
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
            r.depth <= a.depth && results[i].esp >= results[anchor].esp;
        if (!admissible) continue;
        const SrCaqrResult& w = *results[winner].result;
        const auto key = [&](const SrCaqrResult& x, double esp) {
            return std::make_tuple(x.swaps_added, x.physical_qubits_used,
                                   x.depth, -esp, x.duration_dt);
        };
        if (key(r, results[i].esp) < key(w, results[winner].esp)) {
            winner = i;
        }
    }
    SrCaqrResult best = std::move(*results[winner].result);

    auto& metrics = util::metrics::global();
    metrics.add("sr_caqr.variant_trials", trials);
    metrics.add("sr_caqr.trials_pruned", pruned);
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

namespace {

/// One trial of the engine. With a @p bound, returns nullopt as soon as
/// the trial has more SWAPs or more physical qubits than the bound.
std::optional<SrCaqrResult>
sr_caqr_single(const SrPlan& plan, const arch::Backend& backend,
               const SrCaqrOptions& options, const SrBound* bound)
{
    const Circuit& logical = plan.logical;
    const circuit::CircuitDag& dag = plan.dag;
    const auto& earliest = plan.earliest;
    const auto& latest = plan.latest;

    util::Rng jitter_rng(options.seed, options.jitter_stream);

    SrState state;
    state.plan = &plan;
    state.backend = &backend;
    state.options = &options;
    if (options.jitter > 0.0) state.jitter_rng = &jitter_rng;
    state.output = Circuit(backend.num_qubits(), logical.num_clbits());
    state.output.copy_params_from(logical);
    state.phys_of.assign(static_cast<std::size_t>(logical.num_qubits()),
                         -1);
    state.logical_of.assign(
        static_cast<std::size_t>(backend.num_qubits()), -1);
    state.ever_used.assign(
        static_cast<std::size_t>(backend.num_qubits()), false);
    state.remaining_ops = plan.ops_per_qubit;

    const int num_nodes = dag.graph().num_nodes();
    std::vector<int> preds_left(static_cast<std::size_t>(num_nodes));
    std::vector<int> frontier;
    for (int node = 0; node < num_nodes; ++node) {
        preds_left[node] = dag.graph().in_degree(node);
        if (preds_left[node] == 0) frontier.push_back(node);
    }

    // Maps the unmapped operands of @p node per paper Step 2.
    auto map_operands = [&](int node) {
        const Instruction& instr =
            logical.at(static_cast<std::size_t>(node));
        std::vector<int> unmapped;
        for (int q : instr.qubits) {
            if (state.phys_of[q] < 0) unmapped.push_back(q);
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
                   pick_adjacent_phys(state, second,
                                      state.phys_of[first]));
        } else if (unmapped.size() == 1) {
            const int lq = unmapped[0];
            int partner_phys = -1;
            for (int q : instr.qubits) {
                if (q != lq) partner_phys = state.phys_of[q];
            }
            assign(state, lq,
                   partner_phys >= 0
                       ? pick_adjacent_phys(state, lq, partner_phys)
                       : pick_seed_phys(state, lq));
        }
    };

    // Lookahead window: upcoming two-qubit gates (successor closure of
    // the frontier) whose operands are already mapped. A SWAP changes
    // neither the frontier nor which qubits are mapped, so the window
    // and the stall index are rebuilt only after a gate executes or an
    // operand is mapped.
    constexpr int kLookaheadSize = 20;
    std::vector<int> window;
    std::vector<int> bfs_queue;
    std::vector<std::uint32_t> seen_stamp(static_cast<std::size_t>(num_nodes),
                                          0);
    std::uint32_t generation = 0;
    transpile::StallIndex stall;
    bool stall_valid = false;
    auto rebuild_stall = [&](const std::vector<int>& blocked_mapped) {
        window.clear();
        bfs_queue.assign(frontier.begin(), frontier.end());
        if (++generation == 0) {
            // Stamp wrap-around: invalidate every stale stamp once.
            std::fill(seen_stamp.begin(), seen_stamp.end(), 0u);
            generation = 1;
        }
        for (int node : bfs_queue) seen_stamp[node] = generation;
        std::size_t head = 0;
        while (head < bfs_queue.size() &&
               static_cast<int>(window.size()) < kLookaheadSize) {
            const int node = bfs_queue[head++];
            for (int succ : dag.graph().successors(node)) {
                if (seen_stamp[succ] == generation) continue;
                seen_stamp[succ] = generation;
                bfs_queue.push_back(succ);
                const auto& instr =
                    logical.at(static_cast<std::size_t>(succ));
                if (circuit::is_two_qubit(instr.kind) &&
                    state.phys_of[instr.qubits[0]] >= 0 &&
                    state.phys_of[instr.qubits[1]] >= 0) {
                    window.push_back(succ);
                }
            }
        }
        stall.build(logical, blocked_mapped, window);
        stall_valid = true;
    };

    std::vector<double> decay(
        static_cast<std::size_t>(backend.num_qubits()), 0.0);
    int executed_batches = 0;
    int swap_streak = 0;
    long long stall_guard = 0;
    const long long stall_limit =
        4LL * num_nodes * backend.num_qubits() + 1000;
    std::vector<int> still_blocked;
    std::vector<int> newly_ready;
    std::vector<int> blocked_mapped;
    std::vector<int> need_mapping;
    std::vector<int> to_map;
    std::vector<transpile::SwapCandidate> candidates;

    while (!frontier.empty()) {
        if (bound != nullptr && (state.swaps_added > bound->swaps ||
                                 state.qubits_used > bound->qubits)) {
            return std::nullopt;
        }

        // A) Execute every frontier gate that is mapped and
        // hardware-compliant; this retires qubits as early as possible.
        still_blocked.clear();
        newly_ready.clear();
        bool executed_any = false;
        for (int node : frontier) {
            const Instruction& instr =
                logical.at(static_cast<std::size_t>(node));
            bool ready = true;
            for (int q : instr.qubits) {
                if (state.phys_of[q] < 0) ready = false;
            }
            if (ready && circuit::is_two_qubit(instr.kind)) {
                ready = backend.are_adjacent(state.phys_of[instr.qubits[0]],
                                             state.phys_of[instr.qubits[1]]);
            }
            if (!ready) {
                still_blocked.push_back(node);
                continue;
            }
            emit(state, instr);
            reclaim_finished(state, instr, instr);
            executed_any = true;
            for (int succ : dag.graph().successors(node)) {
                if (--preds_left[succ] == 0) newly_ready.push_back(succ);
            }
        }
        if (executed_any) {
            frontier.swap(still_blocked);
            frontier.insert(frontier.end(), newly_ready.begin(),
                            newly_ready.end());
            stall_valid = false;
            swap_streak = 0;
            if (++executed_batches % 5 == 0) {
                std::fill(decay.begin(), decay.end(), 0.0);
            }
            continue;
        }
        CAQR_CHECK(stall_guard++ < stall_limit,
                   "SR-CaQR failed to make progress");

        // B) Mapping decisions: critical gates with unmapped operands
        // map now; non-critical ones stay delayed while routed gates
        // can still make progress (paper Step 2's delaying rule).
        blocked_mapped.clear();
        need_mapping.clear();
        for (int node : frontier) {
            const Instruction& instr =
                logical.at(static_cast<std::size_t>(node));
            bool unmapped = false;
            for (int q : instr.qubits) {
                if (state.phys_of[q] < 0) unmapped = true;
            }
            (unmapped ? need_mapping : blocked_mapped).push_back(node);
        }
        to_map.clear();
        for (int node : need_mapping) {
            if (!options.delay_noncritical ||
                std::abs(earliest[node] - latest[node]) < 1e-9) {
                to_map.push_back(node);
            }
        }
        if (to_map.empty() && blocked_mapped.empty()) {
            // Everything is delayed: force the most urgent gate.
            CAQR_CHECK(!need_mapping.empty(), "frontier inconsistent");
            to_map.push_back(*std::min_element(
                need_mapping.begin(), need_mapping.end(),
                [&](int a, int b) { return latest[a] < latest[b]; }));
        }
        if (!to_map.empty()) {
            std::sort(to_map.begin(), to_map.end(), [&](int a, int b) {
                return earliest[a] < earliest[b];
            });
            for (int node : to_map) map_operands(node);
            stall_valid = false;
            continue;  // re-scan: mapped gates may now be executable
        }

        // C) All frontier gates are mapped but blocked: pick one SWAP
        // with SABRE-style scoring over the blocked set + lookahead.
        // If speculative SWAPs fail to unblock anything for too long
        // (heuristic livelock), force-route the most urgent gate with
        // strictly distance-reducing hops — guaranteed progress.
        if (++swap_streak > 2 * backend.num_qubits()) {
            const int urgent = *std::min_element(
                blocked_mapped.begin(), blocked_mapped.end(),
                [&](int a, int b) { return latest[a] < latest[b]; });
            const auto& instr =
                logical.at(static_cast<std::size_t>(urgent));
            while (!backend.are_adjacent(state.phys_of[instr.qubits[0]],
                                         state.phys_of[instr.qubits[1]])) {
                const int pa = state.phys_of[instr.qubits[0]];
                const int pb = state.phys_of[instr.qubits[1]];
                int best_nb = -1;
                for (int nb : backend.topology().neighbors(pa)) {
                    if (arch::safe_distance(backend, nb, pb) <
                        arch::safe_distance(backend, pa, pb)) {
                        best_nb = nb;
                        break;
                    }
                }
                CAQR_CHECK(best_nb >= 0, "no distance-reducing hop");
                apply_swap(state, pa, best_nb);
            }
            swap_streak = 0;
            continue;
        }
        if (!stall_valid) rebuild_stall(blocked_mapped);

        // Candidate SWAPs: links touching a blocked gate's operand,
        // sorted by (pa, pb) and deduplicated — the jitter draws below
        // follow this order.
        candidates.clear();
        for (int node : blocked_mapped) {
            const auto& instr =
                logical.at(static_cast<std::size_t>(node));
            for (int operand : instr.qubits) {
                const int p = state.phys_of[operand];
                for (const auto& link : backend.links(p)) {
                    candidates.push_back({std::min(p, link.neighbor),
                                          std::max(p, link.neighbor),
                                          link.cx_error});
                }
            }
        }
        std::sort(candidates.begin(), candidates.end());
        candidates.erase(std::unique(candidates.begin(), candidates.end()),
                         candidates.end());
        CAQR_CHECK(!candidates.empty(), "no candidate swaps available");

        const auto [front_base, look_base] =
            stall.measure(backend, state.phys_of);
        const double look_scale =
            window.empty() ? 0.0
                           : options.swap_lookahead_weight /
                                 static_cast<double>(window.size());

        // Score SWAP (pa, pb): lower is better. Jitter is drawn once per
        // candidate, in candidate order.
        double best_score = std::numeric_limits<double>::infinity();
        std::pair<int, int> best{-1, -1};
        for (const auto& [pa, pb, cx_error] : candidates) {
            const auto [front_delta, look_delta] =
                stall.delta(backend, state.phys_of, state.logical_of[pa],
                            state.logical_of[pb], pa, pb);
            const double front_cost =
                static_cast<double>(front_base + front_delta) /
                static_cast<double>(stall.num_front());
            const double look_cost =
                static_cast<double>(look_base + look_delta) * look_scale;
            const double link_bias = options.error_aware ? cx_error : 0.0;
            // Same combiner as the baseline router: the error-aware
            // bias sits inside the decayed product (PR-9 fix).
            const double score =
                transpile::combine_swap_score(
                    front_cost, look_cost,
                    std::max(decay[pa], decay[pb]) + 1.0, link_bias) +
                jitter_of(state);
            if (score < best_score) {
                best_score = score;
                best = {pa, pb};
            }
        }
        apply_swap(state, best.first, best.second);
        decay[best.first] += 0.001;
        decay[best.second] += 0.001;
    }

    SrCaqrResult result;
    result.swaps_added = state.swaps_added;
    result.reuses = state.reuses;
    result.physical_qubits_used = state.qubits_used;
    result.circuit = std::move(state.output);
    return result;
}

}  // namespace

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

    // Probe every reuse level (the sweep is one version per count).
    std::vector<std::size_t> probe(qs->versions.size());
    for (std::size_t i = 0; i < probe.size(); ++i) probe[i] = i;

    // Steps 2-4: the materialized circuits carry the imposed reuse
    // dependencies; the regular engine applies delaying, error-aware
    // mapping, and reclamation on top of each.
    SrCaqrResult best_result;
    bool have_best = false;
    for (std::size_t index : probe) {
        auto result = run_sr_caqr(qs->versions[index].schedule.circuit,
                                  backend, options);
        const bool better =
            !have_best ||
            result.swaps_added < best_result.swaps_added ||
            (result.swaps_added == best_result.swaps_added &&
             result.duration_dt < best_result.duration_dt);
        if (better) {
            best_result = std::move(result);
            have_best = true;
        }
    }
    return best_result;
}

}  // namespace caqr::core
