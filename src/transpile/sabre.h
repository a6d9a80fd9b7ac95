/**
 * @file
 * The SABRE routing loop (Li, Ding & Xie, ASPLOS'19), run by both the
 * baseline router (`route_or`) and SR-CaQR, which paper §3.3.1 defines
 * as this loop plus on-demand placement and reclamation of finished
 * qubits.
 *
 * `SabreLoop<Policy>` owns everything the two share: the frontier and
 * its execute pass, the lookahead window and the `StallIndex` over it,
 * decay and its reset every `kDecayResetInterval` executed batches, the
 * stall limit, the shortest-path stall escape, candidate collection,
 * delta scoring with the lowest-(pa, pb) tie-break, and SWAP emission.
 * The policy supplies the rest, at compile time:
 *
 *  - `kPlacesOnDemand`: operands start unplaced (`phys_of` -1). A gate
 *    runs, is scored and enters the window only once its operands are
 *    placed. The ready gates are then two lists, both in arrival order:
 *    `frontier` holds those with every operand placed, `unplaced` the
 *    rest, so the execute pass and the SWAP step never visit a gate
 *    that is waiting to be placed. `place(unplaced, blocked)` runs on a
 *    stalled iteration after the stall-limit check and before the
 *    escape; when it places anything, the gates it placed move into
 *    `frontier` by arrival (a merge), and the loop re-scans. A gate's
 *    placed status changes only there: at most one ready gate sits on
 *    a qubit, and a qubit is reclaimed only once it has no gates left.
 *    The window's BFS starts from the arrival-order merge of both
 *    lists, so every order is that of one combined frontier.
 *  - `kWindowStopsAtCap`: the window stops the moment it holds
 *    `lookahead_size` gates. Otherwise the cap is checked only before a
 *    node is expanded, so the window can overshoot it.
 *  - `on_execute(instr)` runs after each gate is emitted, `on_swap(pa,
 *    pb)` after each SWAP, and `escape_gate(blocked)` picks the gate the
 *    escape force-routes.
 *  - When `adds_noise()`, `noise()` is added to each candidate's score,
 *    drawn in sorted (pa, pb) order; the loop sorts only then.
 *  - `over_budget(swaps)`, checked after each SWAP and each placement,
 *    stops the run as pruned.
 *
 * The loop walks a `GateGraph`: the gate-dependency edges in one flat
 * successor table, built once per circuit.
 *
 * All loop state lives in a reusable `RouterScratch`, so the hot loop
 * allocates nothing after warm-up. SWAPs move the mapping but not the
 * frontier, so the window and its stall index are rebuilt only when a
 * gate runs or an operand is placed. A candidate SWAP is scored by the
 * integer change of only the gates on the two logical qubits it moves;
 * integer sums and the tie-break make the choice exactly that of
 * rescoring every gate over the sorted candidate set with a strict `<`.
 */
#ifndef CAQR_TRANSPILE_SABRE_H
#define CAQR_TRANSPILE_SABRE_H

#include <algorithm>
#include <iterator>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "arch/backend.h"
#include "circuit/circuit.h"
#include "transpile/router.h"
#include "util/status.h"

namespace caqr::transpile {

/**
 * The gate-dependency edges of a circuit (paper §3.2.1), built in one
 * program-order pass and stored as a successor table: each instruction
 * keeps its predecessor count and its successors in ascending order.
 * Instruction i depends on
 *  - if i is a barrier: every instruction since the previous barrier,
 *    or that barrier when there are none;
 *  - otherwise: the last instruction on each of its qubits, its clbit
 *    and its condition bit that comes after the last barrier, each
 *    counted once; with none of those, the last barrier.
 * These are exactly the edges of the reference dependency DAG the
 * tests check this table against (`tests/circuit_dag.h`).
 */
class GateGraph
{
  public:
    /// Builds the table; @p circuit must outlive this object.
    explicit GateGraph(const circuit::Circuit& circuit);

    const circuit::Circuit& circuit() const { return *circuit_; }
    int num_nodes() const { return static_cast<int>(in_degree_.size()); }
    int in_degree(int node) const { return in_degree_[node]; }
    std::span<const int>
    successors(int node) const
    {
        return std::span<const int>(succ_).subspan(
            succ_start_[node], succ_start_[node + 1] - succ_start_[node]);
    }

  private:
    const circuit::Circuit* circuit_;
    std::vector<int> in_degree_;
    /// successors(u) = succ_[succ_start_[u] .. succ_start_[u + 1]).
    std::vector<int> succ_start_;
    std::vector<int> succ_;
};

/// What one SabreLoop run did.
struct SabreStats
{
    int swaps_added = 0;
    /// Iterations that executed no gate: placements, escapes and
    /// heuristic SWAPs.
    long long stall_iterations = 0;
    long long stall_escapes = 0;
    /// Ready gates the execute passes examined, summed over passes
    /// (on-demand placement only).
    long long frontier_visits = 0;
    bool pruned = false;  ///< the policy's budget stopped the run
};

template <typename Policy>
class SabreLoop
{
  public:
    /// Routes the circuit of @p graph onto @p backend, appending to
    /// @p output. The caller sets `scratch.phys_of` and
    /// `scratch.logical_of`; the loop resets the rest of @p scratch:
    /// buffers already large enough are reused as-is, and the
    /// generation-stamped sets survive across runs without clearing.
    SabreLoop(const GateGraph& graph, const arch::Backend& backend,
              const RouterOptions& options, RouterScratch& scratch,
              circuit::Circuit& output, Policy& policy)
        : graph_(graph), backend_(backend), options_(options), s_(scratch),
          output_(output), policy_(policy)
    {
        const int num_nodes = graph_.num_nodes();
        const auto nn = static_cast<std::size_t>(num_nodes);
        s_.decay.assign(static_cast<std::size_t>(backend_.num_qubits()),
                        0.0);
        s_.remaining_preds.resize(nn);
        s_.is_2q.resize(nn);
        s_.frontier.clear();
        s_.unplaced.clear();
        if constexpr (Policy::kPlacesOnDemand) s_.arrival.resize(nn);
        for (int node = 0; node < num_nodes; ++node) {
            s_.remaining_preds[node] = graph_.in_degree(node);
            if (s_.remaining_preds[node] == 0) make_ready(node);
            s_.is_2q[node] = circuit::is_two_qubit(gate(node).kind) ? 1 : 0;
        }
        if (s_.seen_stamp.size() < nn) s_.seen_stamp.resize(nn, 0);
        const auto nl = static_cast<std::size_t>(backend_.num_links());
        if (s_.link_stamp.size() < nl) s_.link_stamp.resize(nl, 0);
        s_.lookahead_valid = false;
    }

    /// Runs until every gate has executed; call once. Reports
    /// `kInfeasible` when no progress is possible, or when the policy's
    /// budget stopped the run (`stats().pruned`).
    util::Status
    run()
    {
        int executed_batches = 0;
        int stall_streak = 0;
        const long long stall_limit =
            4LL * graph_.num_nodes() * backend_.num_qubits() + 1000;
        while (has_ready()) {
            if (execute_ready()) {
                s_.lookahead_valid = false;
                stall_streak = 0;
                if (++executed_batches % kDecayResetInterval == 0) {
                    std::fill(s_.decay.begin(), s_.decay.end(), 0.0);
                }
                continue;
            }
            if (++stats_.stall_iterations >= stall_limit) {
                return util::Status::infeasible(
                    "routing made no progress (disconnected device?)");
            }
            // The blocked gates the step scores: the frontier, every
            // operand of which is placed.
            const std::vector<int>& blocked = s_.frontier;
            if constexpr (Policy::kPlacesOnDemand) {
                if (policy_.place(s_.unplaced, blocked)) {
                    admit_placed();
                    s_.lookahead_valid = false;
                    if (policy_.over_budget(stats_.swaps_added)) {
                        return pruned();
                    }
                    continue;
                }
            }

            if (stall_streak >= std::max(0, options_.stall_escape_after)) {
                // stall_streak heuristic SWAPs have unblocked nothing.
                ++stats_.stall_escapes;
                util::Status status = escape(policy_.escape_gate(blocked));
                if (!status.ok()) return status;
                stall_streak = 0;
                continue;
            }
            if (!s_.lookahead_valid) refresh_window(blocked);
            const auto [pa, pb] = best_swap(blocked);
            if (pa < 0) {
                return util::Status::infeasible(
                    "no candidate swaps available (isolated qubit?)");
            }
            apply_swap(pa, pb);
            s_.decay[pa] += options_.decay_delta;
            s_.decay[pb] += options_.decay_delta;
            ++stall_streak;
            if (policy_.over_budget(stats_.swaps_added)) return pruned();
        }
        return util::Status();
    }

    const SabreStats& stats() const { return stats_; }

  private:
    const circuit::Instruction&
    gate(int node) const
    {
        return graph_.circuit().at(static_cast<std::size_t>(node));
    }

    bool
    placed(const circuit::Instruction& instr) const
    {
        for (int q : instr.qubits) {
            if (s_.phys_of[q] < 0) return false;
        }
        return true;
    }

    bool
    has_ready() const
    {
        if constexpr (Policy::kPlacesOnDemand) {
            if (!s_.unplaced.empty()) return true;
        }
        return !s_.frontier.empty();
    }

    bool
    by_arrival(int a, int b) const
    {
        return s_.arrival[a] < s_.arrival[b];
    }

    /// Adds @p node, whose predecessors have all run, to the ready
    /// gates: under on-demand placement, stamped with its arrival and
    /// kept apart while an operand is unplaced.
    void
    make_ready(int node)
    {
        if constexpr (Policy::kPlacesOnDemand) {
            s_.arrival[node] = arrivals_++;
            if (!placed(gate(node))) {
                s_.unplaced.push_back(node);
                return;
            }
        }
        s_.frontier.push_back(node);
    }

    /// Moves the unplaced gates that `place` placed into the frontier,
    /// merged by arrival.
    void
    admit_placed()
    {
        s_.newly_ready.clear();
        std::size_t kept = 0;
        for (int node : s_.unplaced) {
            if (placed(gate(node))) {
                s_.newly_ready.push_back(node);
            } else {
                s_.unplaced[kept++] = node;
            }
        }
        s_.unplaced.resize(kept);
        s_.merged.clear();
        std::merge(s_.frontier.begin(), s_.frontier.end(),
                   s_.newly_ready.begin(), s_.newly_ready.end(),
                   std::back_inserter(s_.merged),
                   [this](int a, int b) { return by_arrival(a, b); });
        s_.frontier.swap(s_.merged);
    }

    util::Status
    pruned()
    {
        stats_.pruned = true;
        return util::Status::infeasible(
            "swap budget exceeded (pruned by racing trial)");
    }

    /// Emits every frontier gate that can run now and advances the
    /// frontier past them. Returns whether any ran.
    bool
    execute_ready()
    {
        s_.still_blocked.clear();
        s_.newly_ready.clear();
        if constexpr (Policy::kPlacesOnDemand) {
            stats_.frontier_visits +=
                static_cast<long long>(s_.frontier.size());
        }
        for (int node : s_.frontier) {
            const auto& instr = gate(node);
            const bool runnable =
                !s_.is_2q[node] ||
                backend_.are_adjacent(s_.phys_of[instr.qubits[0]],
                                      s_.phys_of[instr.qubits[1]]);
            if (!runnable) {
                s_.still_blocked.push_back(node);
                continue;
            }
            circuit::Instruction mapped = instr;
            for (auto& q : mapped.qubits) q = s_.phys_of[q];
            output_.append(std::move(mapped));
            policy_.on_execute(instr);
            for (int succ : graph_.successors(node)) {
                if (--s_.remaining_preds[succ] == 0) {
                    s_.newly_ready.push_back(succ);
                }
            }
        }
        if (s_.still_blocked.size() == s_.frontier.size()) return false;
        s_.frontier.swap(s_.still_blocked);
        if constexpr (Policy::kPlacesOnDemand) {
            for (int node : s_.newly_ready) make_ready(node);
        } else {
            s_.frontier.insert(s_.frontier.end(), s_.newly_ready.begin(),
                               s_.newly_ready.end());
        }
        return true;
    }

    /// Rebuilds the lookahead window — upcoming two-qubit gates with
    /// every operand placed, reachable from the ready gates, in BFS
    /// order — and the stall index over @p blocked and the window.
    void
    refresh_window(const std::vector<int>& blocked)
    {
        const auto full = [&] {
            return static_cast<int>(s_.lookahead.size()) >=
                   options_.lookahead_size;
        };
        s_.lookahead.clear();
        s_.bfs_queue.clear();
        if (++s_.generation == 0) {
            // Stamp wrap-around: invalidate every stale stamp once.
            std::fill(s_.seen_stamp.begin(), s_.seen_stamp.end(), 0u);
            s_.generation = 1;
        }
        if constexpr (Policy::kPlacesOnDemand) {
            std::merge(s_.frontier.begin(), s_.frontier.end(),
                       s_.unplaced.begin(), s_.unplaced.end(),
                       std::back_inserter(s_.bfs_queue),
                       [this](int a, int b) { return by_arrival(a, b); });
            for (int node : s_.bfs_queue) s_.seen_stamp[node] = s_.generation;
        } else {
            for (int node : s_.frontier) {
                s_.seen_stamp[node] = s_.generation;
                s_.bfs_queue.push_back(node);
            }
        }
        std::size_t head = 0;
        while (head < s_.bfs_queue.size() && !full()) {
            const int node = s_.bfs_queue[head++];
            for (int succ : graph_.successors(node)) {
                if (s_.seen_stamp[succ] == s_.generation) continue;
                s_.seen_stamp[succ] = s_.generation;
                s_.bfs_queue.push_back(succ);
                if (!s_.is_2q[succ]) continue;
                if constexpr (Policy::kPlacesOnDemand) {
                    if (!placed(gate(succ))) continue;
                }
                s_.lookahead.push_back(succ);
                if constexpr (Policy::kWindowStopsAtCap) {
                    if (full()) break;
                }
            }
        }
        s_.lookahead_valid = true;
        s_.stall.build(graph_.circuit(), blocked, s_.lookahead);
    }

    /// Force-routes @p node along a shortest path. Every hop strictly
    /// reduces the distance between its operands, so progress is
    /// guaranteed on a connected device.
    util::Status
    escape(int node)
    {
        const auto& instr = gate(node);
        while (!backend_.are_adjacent(s_.phys_of[instr.qubits[0]],
                                      s_.phys_of[instr.qubits[1]])) {
            const int pa = s_.phys_of[instr.qubits[0]];
            const int pb = s_.phys_of[instr.qubits[1]];
            int hop = -1;
            for (int nb : backend_.topology().neighbors(pa)) {
                if (arch::safe_distance(backend_, nb, pb) <
                    arch::safe_distance(backend_, pa, pb)) {
                    hop = nb;
                    break;
                }
            }
            if (hop < 0) {
                return util::Status::infeasible(
                    "gate operands lie in disconnected components of the "
                    "coupling graph");
            }
            apply_swap(pa, hop);
            if (policy_.over_budget(stats_.swaps_added)) return pruned();
        }
        return util::Status();
    }

    /// The lowest-scoring SWAP on a link touching an operand of
    /// @p blocked, or {-1, -1} when there is none.
    std::pair<int, int>
    best_swap(const std::vector<int>& blocked)
    {
        // Each link once (a per-link generation stamp), from the
        // backend's per-endpoint table of link ids.
        if (++s_.link_generation == 0) {
            std::fill(s_.link_stamp.begin(), s_.link_stamp.end(), 0u);
            s_.link_generation = 1;
        }
        s_.candidates.clear();
        for (int node : blocked) {
            for (int operand : gate(node).qubits) {
                const int p = s_.phys_of[operand];
                for (const auto& link : backend_.links(p)) {
                    if (s_.link_stamp[link.id] == s_.link_generation) {
                        continue;
                    }
                    s_.link_stamp[link.id] = s_.link_generation;
                    s_.candidates.push_back(
                        {std::min(p, link.neighbor),
                         std::max(p, link.neighbor),
                         backend_.calibration().links[link.id].cx_error});
                }
            }
        }
        const bool noisy = policy_.adds_noise();
        if (noisy) std::sort(s_.candidates.begin(), s_.candidates.end());

        const auto [front_base, look_base] =
            s_.stall.measure(backend_, s_.phys_of);
        const double look_scale =
            s_.lookahead.empty()
                ? 0.0
                : options_.lookahead_weight /
                      static_cast<double>(s_.lookahead.size());
        double best_score = std::numeric_limits<double>::infinity();
        std::pair<int, int> best{-1, -1};
        for (const auto& [pa, pb, cx_error] : s_.candidates) {
            const auto [front_delta, look_delta] =
                s_.stall.delta(backend_, s_.phys_of, s_.logical_of[pa],
                               s_.logical_of[pb], pa, pb);
            const double front_cost =
                static_cast<double>(front_base + front_delta) /
                static_cast<double>(s_.stall.num_front());
            const double look_cost =
                static_cast<double>(look_base + look_delta) * look_scale;
            // Small bias toward reliable links; never dominates distance.
            const double link_bias = options_.error_aware ? cx_error : 0.0;
            double score = combine_swap_score(
                front_cost, look_cost,
                std::max(s_.decay[pa], s_.decay[pb]) + 1.0, link_bias);
            if (noisy) score += policy_.noise();
            if (score < best_score ||
                (score == best_score && std::pair(pa, pb) < best)) {
                best_score = score;
                best = {pa, pb};
            }
        }
        return best;
    }

    /// Emits a SWAP on physical link (pa, pb) and updates the mapping.
    void
    apply_swap(int pa, int pb)
    {
        circuit::Instruction swap;
        swap.kind = circuit::GateKind::kSwap;
        swap.qubits = {pa, pb};
        output_.append(std::move(swap));
        ++stats_.swaps_added;
        policy_.on_swap(pa, pb);

        const int la = s_.logical_of[pa];
        const int lb = s_.logical_of[pb];
        if (la >= 0) s_.phys_of[la] = pb;
        if (lb >= 0) s_.phys_of[lb] = pa;
        std::swap(s_.logical_of[pa], s_.logical_of[pb]);
    }

    const GateGraph& graph_;
    const arch::Backend& backend_;
    const RouterOptions& options_;
    RouterScratch& s_;
    circuit::Circuit& output_;
    Policy& policy_;
    SabreStats stats_;
    int arrivals_ = 0;  ///< arrival stamps handed out
};

}  // namespace caqr::transpile

#endif  // CAQR_TRANSPILE_SABRE_H
