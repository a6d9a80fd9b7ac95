#include "transpile/router.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "circuit/dag.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace caqr::transpile {

namespace {

using circuit::Circuit;
using circuit::GateKind;
using circuit::Instruction;

/// Sizes and resets @p s for one routing run. Buffers already large
/// enough are reused as-is; the generation-stamped seen set survives
/// across runs without clearing.
void
prepare_scratch(RouterScratch& s, const Circuit& logical,
                const circuit::CircuitDag& dag,
                const arch::Backend& backend, const Layout& initial)
{
    const int num_nodes = dag.graph().num_nodes();
    const auto nn = static_cast<std::size_t>(num_nodes);
    const auto np = static_cast<std::size_t>(backend.num_qubits());

    s.phys_of.assign(initial.begin(), initial.end());
    s.logical_of.assign(np, -1);
    for (int l = 0; l < logical.num_qubits(); ++l) {
        s.logical_of[initial[l]] = l;
    }
    s.decay.assign(np, 0.0);

    s.remaining_preds.resize(nn);
    s.is_2q.resize(nn);
    s.frontier.clear();
    for (int node = 0; node < num_nodes; ++node) {
        s.remaining_preds[node] = dag.graph().in_degree(node);
        if (s.remaining_preds[node] == 0) s.frontier.push_back(node);
        s.is_2q[node] =
            circuit::is_two_qubit(
                logical.at(static_cast<std::size_t>(node)).kind)
                ? 1
                : 0;
    }
    if (s.seen_stamp.size() < nn) s.seen_stamp.resize(nn, 0);
    const auto nl = static_cast<std::size_t>(backend.num_links());
    if (s.link_stamp.size() < nl) s.link_stamp.resize(nl, 0);
    s.lookahead_valid = false;
}

/// Rebuilds the cached lookahead window: up to lookahead_size upcoming
/// two-qubit gates reachable from the frontier (successor closure, BFS
/// order), and the stall scoring index over the frontier and the
/// window. Called only when the frontier advanced — consecutive stall
/// iterations reuse both, since SWAPs change the mapping but not the
/// frontier or the DAG.
void
refresh_lookahead(RouterScratch& s, const Circuit& logical,
                  const circuit::CircuitDag& dag,
                  const RouterOptions& options)
{
    s.lookahead.clear();
    s.bfs_queue.clear();
    if (++s.generation == 0) {
        // Stamp wrap-around: invalidate every stale stamp once.
        std::fill(s.seen_stamp.begin(), s.seen_stamp.end(), 0u);
        s.generation = 1;
    }
    for (int node : s.frontier) {
        s.seen_stamp[node] = s.generation;
        s.bfs_queue.push_back(node);
    }
    std::size_t head = 0;
    while (head < s.bfs_queue.size() &&
           static_cast<int>(s.lookahead.size()) < options.lookahead_size) {
        const int node = s.bfs_queue[head++];
        for (int succ : dag.graph().successors(node)) {
            if (s.seen_stamp[succ] == s.generation) continue;
            s.seen_stamp[succ] = s.generation;
            s.bfs_queue.push_back(succ);
            if (s.is_2q[succ]) {
                s.lookahead.push_back(succ);
                if (static_cast<int>(s.lookahead.size()) >=
                    options.lookahead_size) {
                    break;
                }
            }
        }
    }
    s.lookahead_valid = true;
    s.stall.build(logical, s.frontier, s.lookahead);
}

/// Applies a SWAP on physical link (pa, pb): emits the gate and
/// updates the logical <-> physical mapping.
void
apply_swap(RouterScratch& s, Circuit& output, int pa, int pb,
           int& swaps_added)
{
    Instruction swap_instr;
    swap_instr.kind = GateKind::kSwap;
    swap_instr.qubits = {pa, pb};
    output.append(std::move(swap_instr));
    ++swaps_added;

    const int la = s.logical_of[pa];
    const int lb = s.logical_of[pb];
    if (la >= 0) s.phys_of[la] = pb;
    if (lb >= 0) s.phys_of[lb] = pa;
    std::swap(s.logical_of[pa], s.logical_of[pb]);
}

}  // namespace

void
StallIndex::build(const Circuit& logical, const std::vector<int>& front,
                  const std::vector<int>& window)
{
    gates_.clear();
    for (const auto* nodes : {&front, &window}) {
        for (int node : *nodes) {
            const auto& instr = logical.at(static_cast<std::size_t>(node));
            gates_.push_back({instr.qubits[0], instr.qubits[1], 0});
        }
    }
    num_front_ = front.size();
    // Counting sort into CSR rows.
    qubit_start_.assign(static_cast<std::size_t>(logical.num_qubits()) + 1,
                        0);
    for (const auto& gate : gates_) {
        ++qubit_start_[gate.q0];
        ++qubit_start_[gate.q1];
    }
    for (std::size_t q = 1; q < qubit_start_.size(); ++q) {
        qubit_start_[q] += qubit_start_[q - 1];
    }
    qubit_gates_.resize(2 * gates_.size());
    for (int k = 0; k < static_cast<int>(gates_.size()); ++k) {
        qubit_gates_[--qubit_start_[gates_[k].q0]] = k;
        qubit_gates_[--qubit_start_[gates_[k].q1]] = k;
    }
}

std::pair<int, int>
StallIndex::measure(const arch::Backend& backend,
                    const std::vector<int>& phys_of)
{
    const int np = backend.num_qubits();
    int front = 0;
    int window = 0;
    for (std::size_t k = 0; k < gates_.size(); ++k) {
        auto& gate = gates_[k];
        gate.distance = arch::routing_distance(
            backend.distance_row(phys_of[gate.q0])[phys_of[gate.q1]], np);
        (k < num_front_ ? front : window) += gate.distance;
    }
    return {front, window};
}

std::pair<int, int>
StallIndex::delta(const arch::Backend& backend,
                  const std::vector<int>& phys_of, int la, int lb, int pa,
                  int pb) const
{
    const int np = backend.num_qubits();
    int front = 0;
    int window = 0;
    const auto move = [&](int l, int other, int to) {
        const int* row = backend.distance_row(to);
        for (int i = qubit_start_[l]; i < qubit_start_[l + 1]; ++i) {
            const int k = qubit_gates_[i];
            const auto& gate = gates_[k];
            const int partner = gate.q0 == l ? gate.q1 : gate.q0;
            if (partner == other) continue;
            const int change =
                arch::routing_distance(row[phys_of[partner]], np) -
                gate.distance;
            (static_cast<std::size_t>(k) < num_front_ ? front : window) +=
                change;
        }
    };
    if (la >= 0) move(la, lb, pb);
    if (lb >= 0) move(lb, la, pa);
    return {front, window};
}

double
combine_swap_score(double front_cost, double look_cost,
                   double decay_factor, double link_bias)
{
    return decay_factor * (front_cost + look_cost + link_bias);
}

util::StatusOr<RoutingResult>
route_or(const circuit::CircuitDag& dag, const arch::Backend& backend,
         const Layout& initial, const RouterOptions& options,
         RouterScratch* scratch, const std::atomic<int>* swap_bound)
{
    const Circuit& logical = dag.circuit();
    if (!is_valid_layout(initial, logical, backend)) {
        return util::Status::invalid_argument("invalid initial layout");
    }

    util::trace::Span span("router.route");

    std::optional<RouterScratch> local;
    if (scratch == nullptr) scratch = &local.emplace();
    RouterScratch& s = *scratch;
    prepare_scratch(s, logical, dag, backend, initial);

    Circuit output(backend.num_qubits(), logical.num_clbits());
    output.copy_params_from(logical);

    int swaps_added = 0;
    int executed_groups = 0;
    int stall_streak = 0;
    long long stall_iterations = 0;
    long long stall_escapes = 0;
    const long long stall_limit =
        4LL * dag.graph().num_nodes() * backend.num_qubits() + 1000;

    // Cost-bound pruning for raced trials: abort once this run has
    // strictly more SWAPs than the incumbent — it can no longer win.
    auto over_budget = [&] {
        return swap_bound != nullptr &&
               swaps_added >
                   swap_bound->load(std::memory_order_relaxed);
    };

    // Emits one logical instruction through the current mapping.
    auto emit = [&](const Instruction& instr) {
        Instruction mapped = instr;
        for (auto& q : mapped.qubits) q = s.phys_of[q];
        output.append(std::move(mapped));
    };

    while (!s.frontier.empty()) {
        // Execute everything currently executable.
        s.still_blocked.clear();
        s.newly_ready.clear();
        bool executed_any = false;
        for (int node : s.frontier) {
            const auto& instr =
                logical.at(static_cast<std::size_t>(node));
            bool runnable = !s.is_2q[node];
            if (!runnable) {
                runnable = backend.are_adjacent(
                    s.phys_of[instr.qubits[0]],
                    s.phys_of[instr.qubits[1]]);
            }
            if (!runnable) {
                s.still_blocked.push_back(node);
                continue;
            }
            emit(instr);
            executed_any = true;
            for (int succ : dag.graph().successors(node)) {
                if (--s.remaining_preds[succ] == 0) {
                    s.newly_ready.push_back(succ);
                }
            }
        }
        if (executed_any) {
            s.frontier.swap(s.still_blocked);
            s.frontier.insert(s.frontier.end(), s.newly_ready.begin(),
                              s.newly_ready.end());
            s.lookahead_valid = false;
            stall_streak = 0;
            if (++executed_groups % options.decay_reset_interval == 0) {
                std::fill(s.decay.begin(), s.decay.end(), 0.0);
            }
            continue;
        }

        // All frontier gates are blocked two-qubit gates.
        if (++stall_iterations >= stall_limit) {
            return util::Status::infeasible(
                "router failed to make progress "
                "(disconnected device?)");
        }

        if (stall_streak >= std::max(0, options.stall_escape_after)) {
            // Stall escape: the heuristic has inserted stall_streak
            // SWAPs without unblocking anything. Force-route the
            // oldest blocked gate (lowest instruction index) with a
            // shortest-path SWAP chain — strictly distance-reducing,
            // so progress is guaranteed on a connected device.
            ++stall_escapes;
            const int oldest =
                *std::min_element(s.frontier.begin(), s.frontier.end());
            const auto& instr =
                logical.at(static_cast<std::size_t>(oldest));
            while (!backend.are_adjacent(s.phys_of[instr.qubits[0]],
                                         s.phys_of[instr.qubits[1]])) {
                const int pa = s.phys_of[instr.qubits[0]];
                const int pb = s.phys_of[instr.qubits[1]];
                int hop = -1;
                for (int nb : backend.topology().neighbors(pa)) {
                    if (arch::safe_distance(backend, nb, pb) <
                        arch::safe_distance(backend, pa, pb)) {
                        hop = nb;
                        break;
                    }
                }
                if (hop < 0) {
                    return util::Status::infeasible(
                        "gate operands lie in disconnected components "
                        "of the coupling graph");
                }
                apply_swap(s, output, pa, hop, swaps_added);
                if (over_budget()) {
                    return util::Status::infeasible(
                        "swap budget exceeded (pruned by racing "
                        "trial)");
                }
            }
            stall_streak = 0;
            continue;
        }

        if (!s.lookahead_valid) refresh_lookahead(s, logical, dag, options);

        // Candidate swaps: the links touching a blocked operand, each
        // once (a per-link generation stamp), in collection order. The
        // scan below breaks exact score ties by the lowest (pa, pb), so
        // the order does not matter.
        if (++s.link_generation == 0) {
            std::fill(s.link_stamp.begin(), s.link_stamp.end(), 0u);
            s.link_generation = 1;
        }
        s.candidates.clear();
        for (int node : s.frontier) {
            const auto& instr =
                logical.at(static_cast<std::size_t>(node));
            for (int operand : instr.qubits) {
                const int p = s.phys_of[operand];
                for (const auto& link : backend.links(p)) {
                    if (s.link_stamp[link.id] == s.link_generation) continue;
                    s.link_stamp[link.id] = s.link_generation;
                    s.candidates.push_back({std::min(p, link.neighbor),
                                            std::max(p, link.neighbor),
                                            link.cx_error});
                }
            }
        }
        if (s.candidates.empty()) {
            return util::Status::infeasible(
                "no candidate swaps available (isolated qubit?)");
        }

        const auto [front_base, look_base] =
            s.stall.measure(backend, s.phys_of);
        const double look_scale =
            s.lookahead.empty()
                ? 0.0
                : options.lookahead_weight /
                      static_cast<double>(s.lookahead.size());

        // Score SWAP (pa, pb): lower is better; an exact tie goes to
        // the lowest (pa, pb).
        double best_score = std::numeric_limits<double>::infinity();
        std::pair<int, int> best{-1, -1};
        for (const auto& [pa, pb, cx_error] : s.candidates) {
            const auto [front_delta, look_delta] = s.stall.delta(
                backend, s.phys_of, s.logical_of[pa], s.logical_of[pb], pa,
                pb);
            const double front_cost =
                static_cast<double>(front_base + front_delta) /
                static_cast<double>(s.stall.num_front());
            const double look_cost =
                static_cast<double>(look_base + look_delta) * look_scale;
            // Small bias toward reliable links; never dominates
            // distance.
            const double link_bias = options.error_aware ? cx_error : 0.0;
            const double decay_factor =
                std::max(s.decay[pa], s.decay[pb]) + 1.0;
            const double score = combine_swap_score(
                front_cost, look_cost, decay_factor, link_bias);
            if (score < best_score ||
                (score == best_score && std::pair(pa, pb) < best)) {
                best_score = score;
                best = {pa, pb};
            }
        }

        apply_swap(s, output, best.first, best.second, swaps_added);
        s.decay[best.first] += options.decay_delta;
        s.decay[best.second] += options.decay_delta;
        ++stall_streak;
        if (over_budget()) {
            return util::Status::infeasible(
                "swap budget exceeded (pruned by racing trial)");
        }
    }

    auto& metrics = util::metrics::global();
    metrics.add("router.swaps_added", swaps_added);
    // Stall iterations = frontier passes that executed no gate and had
    // to fall through to SWAP selection.
    metrics.add("router.stall_iterations",
                static_cast<double>(stall_iterations));
    metrics.add("router.stall_escapes", static_cast<double>(stall_escapes));

    RoutingResult result;
    result.circuit = std::move(output);
    result.swaps_added = swaps_added;
    result.final_layout.assign(s.phys_of.begin(), s.phys_of.end());
    return result;
}

bool
is_hardware_compliant(const Circuit& physical,
                      const arch::Backend& backend)
{
    if (physical.num_qubits() > backend.num_qubits()) return false;
    for (const auto& instr : physical.instructions()) {
        if (!circuit::is_two_qubit(instr.kind)) continue;
        if (!backend.are_adjacent(instr.qubits[0], instr.qubits[1])) {
            return false;
        }
    }
    return true;
}

}  // namespace caqr::transpile
