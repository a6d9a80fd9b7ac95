/**
 * @file
 * Commuting-gate (QAOA-style) qubit reuse — paper §3.2.2.
 *
 * A depth-1 QAOA circuit is fully described by its problem graph: one
 * commuting RZZ gate per edge, framed by H prologues and RX epilogues.
 * With no fixed gate order, reuse legality reduces to Condition 1
 * (no shared gate = no edge) plus acyclicity of the *imposed*
 * dependence graph (Condition 2), and the scheduler is free to order
 * gates to make reuse cheap:
 *
 *   Step 1  impose dependencies: all gates on a reuse source precede
 *           the measurement node, which precedes all gates on the
 *           target;
 *   Step 2  freeze gates with unresolved dependencies; weight the
 *           remaining gates, prioritizing those that unblock reuse;
 *   Step 3  schedule a maximum-weight matching of the remaining
 *           interaction graph per time step (Blossom; greedy for large
 *           instances per the paper's noted optimization).
 *
 * The graph-coloring bound of §3.2.2 ("Maximal Qubit Saving") gives the
 * minimum achievable qubit count.
 */
#ifndef CAQR_CORE_COMMUTING_H
#define CAQR_CORE_COMMUTING_H

#include <optional>
#include <vector>

#include "circuit/circuit.h"
#include "core/reuse_analysis.h"
#include "graph/undirected_graph.h"

namespace caqr::core {

/// A commuting-gate workload: the QAOA problem graph plus the angles
/// used when a concrete circuit is materialized. With `layers > 1`
/// (multi-layer QAOA), each edge contributes one RZZ per layer and
/// each qubit gets an RX mixer between its layers; gates *within* a
/// layer commute, layers are ordered per qubit. Per-layer angles come
/// from `gammas`/`betas` when provided (padded with `gamma`/`beta`).
struct CommutingSpec
{
    graph::UndirectedGraph interaction;
    double gamma = 0.7;
    double beta = 0.3;
    int layers = 1;
    std::vector<double> gammas;  ///< optional per-layer cost angles
    std::vector<double> betas;   ///< optional per-layer mixer angles

    /// When set, materialized circuits register symbolic parameters
    /// `gamma0, beta0, gamma1, beta1, ...` (interleaved per layer)
    /// instead of baking the angles in: each parameter holds the *full*
    /// rotation
    /// angle (2γ / 2β), initialized from the spec, and every RZZ/RX
    /// carries the matching `ParamRef` so a compiled schedule rebinds
    /// without re-running the scheduler. Scheduling itself is
    /// angle-independent, so the symbolic and concrete circuits are
    /// structurally identical.
    bool symbolic = false;

    /// Cost angle of layer @p layer.
    double
    gamma_at(int layer) const
    {
        return layer < static_cast<int>(gammas.size())
                   ? gammas[static_cast<std::size_t>(layer)]
                   : gamma;
    }
    /// Mixer angle of layer @p layer.
    double
    beta_at(int layer) const
    {
        return layer < static_cast<int>(betas.size())
                   ? betas[static_cast<std::size_t>(layer)]
                   : beta;
    }
};

/// Outcome of scheduling + materializing a commuting workload under a
/// set of reuse pairs.
struct CommutingSchedule
{
    circuit::Circuit circuit;    ///< dynamic circuit, one wire per color
    std::vector<int> wire_of;    ///< problem node -> wire it ran on
    int wires_used = 0;
    int rounds = 0;              ///< matching layers consumed
    int depth = 0;
    double duration_dt = 0.0;
};

/// Scheduling knobs.
struct CommutingOptions
{
    /// Edge-count threshold above which greedy matching replaces the
    /// exact Blossom solver.
    int exact_matching_limit = 300;
};

/**
 * Validates a reuse-pair set for @p interaction (paper §3.2.2). Each
 * qubit may be the source of one pair and the target of one (wires
 * form chains), and the pair graph must be acyclic. That graph has an
 * edge p -> q when q's source is at most @p layers hops from p's target
 * in @p interaction (0 hops: q hands p's wire on again).
 *
 * It is the imposed dependence graph of Step 1 (gates on a source ->
 * M -> gates on its target, and per qubit layer l -> l+1 through the
 * mixer) cut down to its measurement nodes M, and keeps its cycles:
 * gate-to-gate edges only climb one layer, so every cycle passes
 * through an M, and M_p reaches M_q without another M in between iff at
 * most `layers - 1` mixer steps link a gate on p's target to a gate on
 * q's source, i.e. iff the two qubits are within `layers` hops.
 * Condition 1 is the self-loop at one hop; with @p layers >= 2 a pair
 * whose endpoints share a neighbor is invalid too.
 */
bool commuting_pairs_valid(const graph::UndirectedGraph& interaction,
                           const std::vector<ReusePair>& pairs,
                           int layers = 1);

/**
 * Schedules and materializes @p spec under @p pairs (must be valid).
 * Each problem node q measures into clbit q, so max-cut expectations
 * use the identity clbit map regardless of reuse.
 */
CommutingSchedule schedule_commuting(const CommutingSpec& spec,
                                     const std::vector<ReusePair>& pairs,
                                     const CommutingOptions& options = {});

/**
 * Minimum qubits achievable for a commuting workload: the chromatic
 * number of the interaction graph (exact for small graphs, DSATUR
 * upper bound beyond @p exact_limit nodes).
 */
int min_qubits_by_coloring(const graph::UndirectedGraph& interaction,
                           int exact_limit = 24);

/**
 * Budget-directed scheduling (paper §2.2: "a tool that can
 * automatically generate transformed circuit with (near-)minimal
 * depth/duration for any qubit reuse count"): run the matching
 * scheduler with exactly @p budget wires, assigning problem qubits to
 * wires dynamically — a wire is reused (measure + conditional reset)
 * as soon as its occupant retires. Unlike incremental pair selection,
 * the produced schedule is a feasibility witness, so deep savings are
 * reachable even when every *incremental* pair addition would cycle.
 *
 * Returns std::nullopt when the activation policy deadlocks at this
 * budget (budget below the workload's concurrency requirement).
 * @p pairs_out, if non-null, receives the implied reuse pairs
 * (consecutive occupants per wire).
 */
std::optional<CommutingSchedule> schedule_with_budget(
    const CommutingSpec& spec, int budget,
    const CommutingOptions& options = {},
    std::vector<ReusePair>* pairs_out = nullptr);

}  // namespace caqr::core

#endif  // CAQR_CORE_COMMUTING_H
