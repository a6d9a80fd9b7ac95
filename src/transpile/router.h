/**
 * @file
 * SABRE-style SWAP routing (Li, Ding & Xie, ASPLOS'19), the algorithmic
 * family behind Qiskit's optimization-level-3 routing — our stand-in
 * for the paper's Qiskit baseline.
 *
 * `route_or` runs the SABRE loop of `transpile/sabre.h` — the one loop
 * SR-CaQR also runs — with every operand placed up front by the
 * initial layout. The loop walks the gate-dependency graph with a front
 * layer, executes hardware-compliant gates eagerly, and otherwise
 * inserts the SWAP that minimizes a distance heuristic over the front
 * layer plus a lookahead window, with per-qubit decay to avoid
 * ping-ponging. After `stall_escape_after` consecutive heuristic SWAPs
 * that execute nothing, it escapes the stall deterministically by
 * force-routing the oldest blocked gate along a shortest path.
 *
 * `route_or` takes the circuit's prebuilt `GateGraph` (`transpile/sabre.h`),
 * so a caller that routes one circuit many times (the transpiler's
 * refinement passes and trials) builds the graph once.
 */
#ifndef CAQR_TRANSPILE_ROUTER_H
#define CAQR_TRANSPILE_ROUTER_H

#include <compare>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "arch/backend.h"
#include "circuit/circuit.h"
#include "transpile/layout.h"
#include "util/status.h"

namespace caqr::transpile {

class GateGraph;
struct SabreStats;

/// Tunables for the SABRE loop. SR-CaQR sets its own; see `sr_caqr.cpp`.
struct RouterOptions
{
    /// Weight of the lookahead window in the SWAP score.
    double lookahead_weight = 0.5;
    /// Number of upcoming two-qubit gates considered as lookahead.
    int lookahead_size = 20;
    /// Decay added to a physical qubit each time a SWAP moves it.
    double decay_delta = 0.001;
    /// Prefer SWAPs over low-error links when scores tie (error-aware
    /// variability handling, paper §3.3.1 Step 3).
    bool error_aware = true;
    /// Consecutive heuristic SWAP insertions that execute no gate
    /// before the router escapes the stall: the oldest blocked gate is
    /// force-routed with a shortest-path SWAP chain (guaranteed
    /// progress on a connected device) instead of ping-ponging under
    /// decay. <= 0 escapes on the first stalled iteration.
    int stall_escape_after = 64;
};

/// Front-layer executions between decay resets in the SABRE loop.
inline constexpr int kDecayResetInterval = 5;

/**
 * The gates a stalled routing step scores (the blocked front layer,
 * then the lookahead window), indexed by logical qubit. `measure` sums
 * their distances under the current mapping once per step; `delta`
 * then gives the integer change of both sums under one candidate SWAP
 * from only the gates on the two logical qubits it moves. A gate on
 * both keeps its distance. Integer sums make `double(sum) / |F|` and
 * `double(sum) * (w / |L|)` equal to per-gate accumulation bit for
 * bit. Built and read only by the SABRE loop (`transpile/sabre.h`),
 * so `route_or` and SR-CaQR score SWAPs with the same code.
 */
class StallIndex
{
  public:
    /// Indexes two-qubit gate nodes @p front, then @p window, of
    /// @p logical.
    void build(const circuit::Circuit& logical, const std::vector<int>& front,
               const std::vector<int>& window);

    /// Records each gate's distance under @p phys_of (logical ->
    /// physical) and returns the {front, window} distance sums.
    std::pair<int, int> measure(const arch::Backend& backend,
                                const std::vector<int>& phys_of);

    /// The {front, window} sum changes when the SWAP on link (pa, pb)
    /// moves logical @p la from pa to pb and @p lb from pb to pa (-1:
    /// the qubit hosts none). Reads the distances of the last measure().
    std::pair<int, int> delta(const arch::Backend& backend,
                              const std::vector<int>& phys_of, int la,
                              int lb, int pa, int pb) const;

    std::size_t num_front() const { return num_front_; }

  private:
    struct Gate
    {
        int q0;
        int q1;
        int distance;  ///< under the mapping of the last measure()
    };
    /// Front-layer gates (the first `num_front_`), then window gates.
    std::vector<Gate> gates_;
    std::size_t num_front_ = 0;
    /// Gates on logical qubit q: qubit_gates_[qubit_start_[q] ..
    /// qubit_start_[q + 1]).
    std::vector<int> qubit_start_;
    std::vector<int> qubit_gates_;
};

/// A candidate SWAP on physical link (pa, pb), pa < pb, with the
/// link's CX error for the error-aware bias.
struct SwapCandidate
{
    int pa;
    int pb;
    double cx_error;

    /// Orders by link (pa, pb): one link has one error, so candidates
    /// on the same link compare equal.
    auto operator<=>(const SwapCandidate&) const = default;
};

/**
 * Reusable per-trial scratch for the SABRE loop (`route_or` and an
 * SR-CaQR trial): all state the routing hot loop touches. A trial that
 * routes several circuits (the layout refinement passes plus the final
 * run) hands the same instance to every call, so steady-state
 * iterations perform no heap allocation.
 * Buffers grow monotonically and are never shrunk. Not thread-safe —
 * use one instance per concurrent trial.
 */
struct RouterScratch
{
    /// @name Mapping state (per physical qubit)
    /// @{
    std::vector<int> phys_of;     ///< logical -> physical
    std::vector<int> logical_of;  ///< physical -> logical or -1
    std::vector<double> decay;
    /// @}

    /// @name Dependency walk state (per node)
    /// @{
    std::vector<int> remaining_preds;
    /// Ready gates. Under on-demand placement, only those with every
    /// operand placed; the rest wait in `unplaced`. Both lists keep
    /// arrival order.
    std::vector<int> frontier;
    std::vector<int> unplaced;
    /// Per node, the order in which it became ready (on-demand
    /// placement only).
    std::vector<int> arrival;
    std::vector<int> still_blocked;
    std::vector<int> newly_ready;
    std::vector<int> merged;  ///< arrival-order merge of the two lists
    std::vector<std::uint8_t> is_2q;  ///< precomputed per-node flag
    /// @}

    /// @name Lookahead window (cached across stall iterations)
    /// @{
    std::vector<std::uint32_t> seen_stamp;  ///< generation-stamped seen set
    std::uint32_t generation = 0;
    std::vector<int> bfs_queue;
    std::vector<int> lookahead;
    bool lookahead_valid = false;
    /// @}

    /// Stall scoring index, rebuilt with the lookahead window.
    StallIndex stall;

    /// @name Candidate SWAPs (rebuilt per stall iteration)
    /// @{
    std::vector<SwapCandidate> candidates;
    std::vector<std::uint32_t> link_stamp;  ///< per link id: collected
    std::uint32_t link_generation = 0;
    /// @}
};

/// Routing outcome.
struct RoutingResult
{
    circuit::Circuit circuit;  ///< physical circuit over backend qubits
    int swaps_added = 0;
    Layout final_layout;       ///< logical -> physical after execution
};

/**
 * Routes the circuit of @p graph onto @p backend starting from
 * @p initial layout. The result contains SWAP gates on physical links
 * only; every two-qubit gate in the output acts on adjacent physical
 * qubits.
 *
 * Reports `kInfeasible` when no progress is possible (a gate's
 * operands sit in disconnected components of the coupling graph) and
 * `kInvalidArgument` for a malformed initial layout — the router never
 * aborts the process.
 *
 * @p scratch optionally supplies reusable buffers (see RouterScratch);
 * pass the same instance to consecutive calls to avoid reallocation.
 *
 * @p swap_bound is an incumbent's SWAP count for cost-bound pruning:
 * the run aborts with `kInfeasible` ("swap budget exceeded") as soon as
 * `swaps_added` strictly exceeds it. A trial whose final SWAP count
 * would have tied or beaten the bound is never pruned (its running
 * count never *exceeds* it), so multi-trial winner selection stays
 * deterministic at any thread count.
 *
 * @p stats optionally receives the loop's counters, on failure too:
 * `stats->pruned` says the bound stopped the run.
 */
util::StatusOr<RoutingResult> route_or(
    const GateGraph& graph, const arch::Backend& backend,
    const Layout& initial, const RouterOptions& options = {},
    RouterScratch* scratch = nullptr,
    int swap_bound = std::numeric_limits<int>::max(),
    SabreStats* stats = nullptr);

/**
 * The SWAP score combiner, exposed for unit pinning: per-qubit decay
 * multiplies the *whole* heuristic — front-layer distance, lookahead
 * term, and the error-aware link bias — so decay damps the bias like
 * any other term. (A bias added outside the product would escape
 * decay entirely and could pin the router onto one reliable link.)
 */
double combine_swap_score(double front_cost, double look_cost,
                          double decay_factor, double link_bias);

/// True if every two-qubit gate of @p physical acts on a physical link.
bool is_hardware_compliant(const circuit::Circuit& physical,
                           const arch::Backend& backend);

}  // namespace caqr::transpile

#endif  // CAQR_TRANSPILE_ROUTER_H
