#include "core/qs_caqr.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <map>
#include <memory>
#include <utility>

#include "circuit/dag.h"
#include "circuit/timing.h"
#include "core/reuse_transform.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace caqr::core {

namespace {

/// Fills metrics of a version from its circuit.
void
fill_version_metrics(QsVersion* version)
{
    circuit::CircuitDag dag(version->circuit);
    version->qubits = version->circuit.active_qubit_count();
    version->depth = dag.depth();
    circuit::LogicalDurations durations;
    version->duration_dt = dag.duration(durations);
}

/// Lazily-constructed thread pool shared by the commuting sweeps of one
/// search. The pool is only spun up once a step actually has enough
/// parallel work to amortize it (tiny searches stay serial end to end).
struct EvalContext
{
    int threads = 1;
    std::unique_ptr<util::ThreadPool> pool;

    util::ThreadPool*
    acquire()
    {
        if (threads > 1 && pool == nullptr) {
            pool = std::make_unique<util::ThreadPool>(threads - 1);
        }
        return pool.get();
    }
};

}  // namespace

const QsVersion&
QsCaqrResult::best_by_depth() const
{
    CAQR_CHECK(!versions.empty(), "no versions generated");
    const QsVersion* best = &versions.front();
    for (const auto& version : versions) {
        if (version.depth < best->depth) best = &version;
    }
    return *best;
}

const QsVersion&
QsCaqrResult::best_by_duration() const
{
    CAQR_CHECK(!versions.empty(), "no versions generated");
    const QsVersion* best = &versions.front();
    for (const auto& version : versions) {
        if (version.duration_dt < best->duration_dt) best = &version;
    }
    return *best;
}

namespace {

/// Pair-selection policy for one greedy sweep.
enum class SweepPolicy {
    /// Minimize the post-splice critical path (the paper's §3.2.1 rule).
    kMetricFirst,
    /// Prefer the earliest-finishing target, breaking ties by critical
    /// path. This chains wires in temporal order and avoids the
    /// "crossed merge" dead ends that pure cost greed can steer into,
    /// reliably reaching the minimum qubit count (e.g. BV_n -> 2).
    kOrderFirst,
};

/**
 * One greedy sweep: each step prices every valid pair in closed form
 * (splice_timing) and commits the best one under @p policy. The step
 * and candidate totals reach the metrics registry once, at the end.
 */
std::vector<QsVersion>
run_sweep(const circuit::Circuit& circuit, const QsCaqrOptions& options,
          SweepPolicy policy)
{
    std::vector<QsVersion> versions;

    QsVersion original;
    original.circuit = circuit;
    original.orig_of.resize(static_cast<std::size_t>(circuit.num_qubits()));
    for (int q = 0; q < circuit.num_qubits(); ++q) {
        original.orig_of[static_cast<std::size_t>(q)] = q;
    }
    fill_version_metrics(&original);
    versions.push_back(std::move(original));

    circuit::LogicalDurations durations;
    circuit::UnitDepthModel unit;
    const bool by_duration = options.metric == ReuseMetric::kDuration;
    const double dummy_weight =
        by_duration ? circuit::LogicalDurations::kMeasure +
                          circuit::LogicalDurations::kConditionedGate
                    : 1.0;
    const circuit::DurationModel& model =
        by_duration ? static_cast<const circuit::DurationModel&>(durations)
                    : static_cast<const circuit::DurationModel&>(unit);

    std::size_t steps = 0;
    std::size_t candidates = 0;
    while (options.target_qubits < 0 ||
           versions.back().qubits > options.target_qubits) {
        const auto& current = versions.back();
        circuit::CircuitDag dag(current.circuit);
        const auto pairs = find_reuse_pairs(dag);
        if (pairs.empty()) break;
        ++steps;
        candidates += pairs.size();
        const auto timing = splice_timing(dag, model);

        // Ties go to the first candidate in (source, target) order.
        double best_primary = std::numeric_limits<double>::infinity();
        double best_secondary = std::numeric_limits<double>::infinity();
        ReusePair best{};
        for (const auto& pair : pairs) {
            double primary =
                timing.spliced_critical_path(pair, dummy_weight);
            double secondary = timing.qubit_finish[pair.target];
            if (policy == SweepPolicy::kOrderFirst) {
                std::swap(primary, secondary);
            }
            if (primary < best_primary - 1e-9 ||
                (primary < best_primary + 1e-9 &&
                 secondary < best_secondary - 1e-9)) {
                best_primary = primary;
                best_secondary = secondary;
                best = pair;
            }
        }

        QsVersion next;
        next.applied = current.applied;
        next.applied.push_back(
            ReusePair{current.orig_of[static_cast<std::size_t>(best.source)],
                      current.orig_of[static_cast<std::size_t>(best.target)]});
        auto transformed = apply_reuse(dag, best, current.orig_of);
        next.circuit = std::move(transformed.circuit);
        next.orig_of = std::move(transformed.orig_of);
        fill_version_metrics(&next);
        versions.push_back(std::move(next));
    }
    auto& metrics = util::metrics::global();
    metrics.add("qs_caqr.steps", static_cast<double>(steps));
    metrics.add("qs_caqr.candidates", static_cast<double>(candidates));
    return versions;
}

/// Best-effort run (no target validation): squeezes as far as the
/// budget allows and records whether the target was reached.
QsCaqrResult
run_qs_caqr(const circuit::Circuit& circuit, const QsCaqrOptions& options)
{
    util::trace::Span span("qs_caqr");
    // Two sweeps explore complementary regions of the search space
    // (paper: "we explore the search space of qubit reuse ... and
    // choose the best reuse strategy"): the cost-greedy sweep finds
    // efficient shallow savings, the order-preserving sweep reaches
    // deep savings. Merge by qubit count, best metric wins.
    const auto metric_sweep =
        run_sweep(circuit, options, SweepPolicy::kMetricFirst);
    const auto order_sweep =
        run_sweep(circuit, options, SweepPolicy::kOrderFirst);

    const bool by_duration = options.metric == ReuseMetric::kDuration;
    auto metric_of = [by_duration](const QsVersion& version) {
        return by_duration ? version.duration_dt
                           : static_cast<double>(version.depth);
    };

    std::map<int, const QsVersion*> by_count;
    for (const auto* sweep : {&metric_sweep, &order_sweep}) {
        for (const auto& version : *sweep) {
            auto [it, inserted] = by_count.try_emplace(version.qubits,
                                                       &version);
            if (!inserted && metric_of(version) < metric_of(*it->second)) {
                it->second = &version;
            }
        }
    }

    QsCaqrResult result;
    for (auto it = by_count.rbegin(); it != by_count.rend(); ++it) {
        result.versions.push_back(*it->second);
    }
    result.reached_target =
        options.target_qubits < 0 ||
        result.versions.back().qubits <= options.target_qubits;
    return result;
}

}  // namespace

util::StatusOr<QsCaqrResult>
qs_caqr_or(const circuit::Circuit& circuit, const QsCaqrOptions& options)
{
    if (options.target_qubits < -1 || options.target_qubits == 0) {
        return util::Status::invalid_argument(
            "target_qubits must be positive or -1 (minimum), got " +
            std::to_string(options.target_qubits));
    }
    QsCaqrResult result = run_qs_caqr(circuit, options);
    if (!result.reached_target) {
        return util::Status::infeasible(
            "cannot reach " + std::to_string(options.target_qubits) +
            " qubits (minimum is " +
            std::to_string(result.versions.back().qubits) + ")");
    }
    return result;
}

namespace {

/// One greedy commuting sweep. When @p evaluate_candidates is true
/// every valid candidate (up to the budget) is scheduled — across the
/// evaluation pool when one is available — and the cheapest (by
/// duration, ties to the heuristically-first candidate) wins, the
/// paper's §3.2.2 evaluation. When false, candidates follow the
/// *temporal order* of the current schedule — source retiring earliest,
/// target retiring latest — and the first valid one is committed.
/// Temporal chaining never crosses the schedule's time arrow, so it
/// reaches the deep-saving region (paper Fig 3: 64 -> ~5 qubits) that
/// duration greed dead-ends before. The candidate and evaluation
/// totals reach the metrics registry once, at the end.
std::vector<QsCommutingVersion>
run_commuting_sweep(const CommutingSpec& spec,
                    const QsCommutingOptions& options,
                    bool evaluate_candidates, EvalContext* ctx)
{
    const auto& interaction = spec.interaction;
    const int n = interaction.num_nodes();

    std::vector<QsCommutingVersion> versions;
    QsCommutingVersion base;
    base.schedule = schedule_commuting(spec, {}, options.scheduling);
    base.qubits = base.schedule.wires_used;
    versions.push_back(std::move(base));

    std::vector<bool> is_source(static_cast<std::size_t>(n), false);
    std::vector<bool> is_target(static_cast<std::size_t>(n), false);

    std::size_t candidates_seen = 0;
    std::size_t schedules_evaluated = 0;
    std::size_t pool_tasks = 0;
    std::size_t serial_tasks = 0;
    while (options.target_qubits < 0 ||
           versions.back().qubits > options.target_qubits) {
        const auto& current = versions.back();

        // Retirement position of each problem qubit in the current
        // schedule (= position of its measurement).
        std::vector<int> retire_pos(static_cast<std::size_t>(n), 0);
        for (std::size_t i = 0; i < current.schedule.circuit.size();
             ++i) {
            const auto& instr = current.schedule.circuit.at(i);
            if (instr.kind == circuit::GateKind::kMeasure &&
                instr.clbit >= 0 && instr.clbit < n) {
                retire_pos[instr.clbit] = static_cast<int>(i);
            }
        }

        struct Candidate
        {
            ReusePair pair;
            long long heuristic;
        };
        std::vector<Candidate> candidates;
        for (int s = 0; s < n; ++s) {
            if (is_source[s]) continue;
            for (int t = 0; t < n; ++t) {
                if (s == t || is_target[t]) continue;
                if (interaction.has_edge(s, t)) continue;
                long long heuristic;
                if (evaluate_candidates) {
                    // Cheap-first pre-ranking for the evaluation budget.
                    heuristic =
                        interaction.degree(s) + interaction.degree(t);
                } else {
                    // Temporal order: earliest-retiring source first,
                    // latest-retiring target first.
                    const long long span = static_cast<long long>(
                        current.schedule.circuit.size() + 1);
                    heuristic = static_cast<long long>(retire_pos[s]) *
                                    span -
                                retire_pos[t];
                }
                candidates.push_back({ReusePair{s, t}, heuristic});
            }
        }
        if (candidates.empty()) break;
        candidates_seen += candidates.size();
        std::stable_sort(candidates.begin(), candidates.end(),
                         [](const Candidate& a, const Candidate& b) {
                             return a.heuristic < b.heuristic;
                         });

        const Candidate* best = nullptr;
        CommutingSchedule best_schedule;
        if (evaluate_candidates) {
            // The first max_candidates *valid* candidates in heuristic
            // order form the evaluation batch (identical to the serial
            // walk, which skipped cyclic candidates without charging
            // them to the budget).
            std::vector<const Candidate*> valid;
            std::vector<std::vector<ReusePair>> pair_sets;
            for (const auto& candidate : candidates) {
                if (static_cast<int>(valid.size()) >=
                    options.max_candidates) {
                    break;
                }
                auto pairs = current.pairs;
                pairs.push_back(candidate.pair);
                if (!commuting_pairs_valid(interaction, pairs,
                                           spec.layers)) {
                    continue;
                }
                valid.push_back(&candidate);
                pair_sets.push_back(std::move(pairs));
            }
            if (valid.empty()) break;  // every candidate was cyclic

            auto schedule_one = [&](std::size_t i) {
                return schedule_commuting(spec, pair_sets[i],
                                          options.scheduling);
            };
            schedules_evaluated += valid.size();
            std::vector<CommutingSchedule> schedules;
            util::ThreadPool* pool =
                (ctx != nullptr && valid.size() >= 4) ? ctx->acquire()
                                                      : nullptr;
            if (pool != nullptr) {
                pool_tasks += valid.size();
                schedules = pool->map(valid.size(), schedule_one);
            } else {
                serial_tasks += valid.size();
                schedules.reserve(valid.size());
                for (std::size_t i = 0; i < valid.size(); ++i) {
                    schedules.push_back(schedule_one(i));
                }
            }
            // Min duration, ties to the lowest candidate index — the
            // same winner the serial strict-< walk picked.
            std::size_t best_index = 0;
            for (std::size_t i = 1; i < schedules.size(); ++i) {
                if (schedules[i].duration_dt <
                    schedules[best_index].duration_dt) {
                    best_index = i;
                }
            }
            best = valid[best_index];
            best_schedule = std::move(schedules[best_index]);
        } else {
            for (const auto& candidate : candidates) {
                auto pairs = current.pairs;
                pairs.push_back(candidate.pair);
                if (!commuting_pairs_valid(interaction, pairs,
                                           spec.layers)) {
                    continue;
                }
                best = &candidate;
                best_schedule =
                    schedule_commuting(spec, pairs, options.scheduling);
                break;  // temporal: take the first valid candidate
            }
            if (best == nullptr) break;  // every candidate was cyclic
        }

        QsCommutingVersion next;
        next.pairs = current.pairs;
        next.pairs.push_back(best->pair);
        next.schedule = std::move(best_schedule);
        next.qubits = next.schedule.wires_used;
        is_source[best->pair.source] = true;
        is_target[best->pair.target] = true;
        versions.push_back(std::move(next));
    }
    auto& metrics = util::metrics::global();
    metrics.add("qs_commuting.candidates",
                static_cast<double>(candidates_seen));
    metrics.add("qs_commuting.schedules_evaluated",
                static_cast<double>(schedules_evaluated));
    metrics.add("qs_commuting.pool_tasks", static_cast<double>(pool_tasks));
    metrics.add("qs_commuting.serial_tasks",
                static_cast<double>(serial_tasks));
    return versions;
}

/// Best-effort commuting run; see run_qs_caqr.
QsCommutingResult
run_qs_caqr_commuting(const CommutingSpec& spec,
                      const QsCommutingOptions& options)
{
    util::trace::Span span("qs_caqr_commuting");
    QsCommutingResult result;
    result.coloring_bound = min_qubits_by_coloring(spec.interaction);

    EvalContext ctx;
    ctx.threads = util::ThreadPool::resolve_threads(options.num_threads);

    const auto eval_sweep = run_commuting_sweep(
        spec, options, /*evaluate_candidates=*/true, &ctx);
    const auto chain_sweep = run_commuting_sweep(
        spec, options, /*evaluate_candidates=*/false, &ctx);

    // Budget-directed phase: the incremental sweeps dead-end once the
    // accumulated dependence graph makes every further pair cyclic;
    // direct budget scheduling (paper §2.2) reaches the deep-saving
    // region down toward the coloring bound.
    std::vector<QsCommutingVersion> budget_versions;
    {
        int start = spec.interaction.num_nodes();
        for (const auto* sweep : {&eval_sweep, &chain_sweep}) {
            if (!sweep->empty()) {
                start = std::min(start, sweep->back().qubits);
            }
        }
        const int floor_count =
            std::max(1, options.target_qubits >= 0
                            ? options.target_qubits
                            : result.coloring_bound);
        for (int budget = start - 1; budget >= floor_count; --budget) {
            std::vector<ReusePair> pairs;
            auto schedule = schedule_with_budget(spec, budget,
                                                 options.scheduling,
                                                 &pairs);
            if (!schedule.has_value()) break;  // infeasible below here
            QsCommutingVersion version;
            version.pairs = std::move(pairs);
            version.schedule = std::move(*schedule);
            version.qubits = version.schedule.wires_used;
            budget_versions.push_back(std::move(version));
        }
        util::metrics::global().add(
            "qs_commuting.budget_schedules",
            static_cast<double>(budget_versions.size()));
    }

    std::map<int, const QsCommutingVersion*> by_count;
    for (const auto* sweep :
         std::initializer_list<const std::vector<QsCommutingVersion>*>{
             &eval_sweep, &chain_sweep, &budget_versions}) {
        for (const auto& version : *sweep) {
            auto [it, inserted] =
                by_count.try_emplace(version.qubits, &version);
            if (!inserted && version.schedule.duration_dt <
                                 it->second->schedule.duration_dt) {
                it->second = &version;
            }
        }
    }
    for (auto it = by_count.rbegin(); it != by_count.rend(); ++it) {
        result.versions.push_back(*it->second);
    }

    result.reached_target =
        options.target_qubits < 0 ||
        result.versions.back().qubits <= options.target_qubits;
    return result;
}

}  // namespace

util::StatusOr<QsCommutingResult>
qs_caqr_commuting_or(const CommutingSpec& spec,
                     const QsCommutingOptions& options)
{
    if (options.target_qubits < -1 || options.target_qubits == 0) {
        return util::Status::invalid_argument(
            "target_qubits must be positive or -1 (minimum), got " +
            std::to_string(options.target_qubits));
    }
    QsCommutingResult result = run_qs_caqr_commuting(spec, options);
    if (!result.reached_target) {
        return util::Status::infeasible(
            "cannot reach " + std::to_string(options.target_qubits) +
            " qubits (coloring bound is " +
            std::to_string(result.coloring_bound) + ")");
    }
    return result;
}

}  // namespace caqr::core
