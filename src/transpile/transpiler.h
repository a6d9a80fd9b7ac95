/**
 * @file
 * The baseline transpilation pipeline (stand-in for "IBM Qiskit with
 * optimization level 3", paper §4.1): native-gate decomposition →
 * greedy interaction-aware layout → bidirectional SABRE layout
 * refinement → raced multi-trial routing → metrics.
 *
 * Trials race on a thread pool with cost-bound pruning: the anchor
 * trial (the plain greedy layout, i.e. the legacy pipeline) runs
 * unpruned, and once it completes its SWAP count becomes the shared
 * atomic incumbent every other trial aborts against the moment its
 * running count strictly exceeds it. The anchor holds the win; a
 * challenger takes it only when it is no worse on every tracked
 * quality metric (SWAPs, depth, ESP) and strictly better on at least
 * one. Every trial that could win completes regardless of scheduling,
 * so the winner is bit-identical at any thread count.
 *
 * The circuits' gate graphs are built once per request, and the
 * anchor's route doubles as the first refinement pass's forward route
 * (it finishes before any other trial starts). No starting layout is
 * routed twice: a trial whose layout equals the anchor's or a
 * lower-index trial's takes that trial's outcome, and refinement stops
 * at a forward pass that adds no SWAP, whose layout every later pass
 * would hand back unchanged. A QS-CaQR output on two or three qubits
 * thus typically runs one route instead of five.
 */
#ifndef CAQR_TRANSPILE_TRANSPILER_H
#define CAQR_TRANSPILE_TRANSPILER_H

#include "arch/backend.h"
#include "circuit/circuit.h"
#include "transpile/layout.h"
#include "transpile/router.h"
#include "util/options.h"
#include "util/status.h"

namespace caqr::transpile {

/// Aggregate result of a full transpilation.
struct TranspileResult
{
    circuit::Circuit circuit;   ///< hardware-compliant physical circuit
    Layout initial_layout;      ///< logical -> physical before routing
    Layout final_layout;        ///< logical -> physical after routing
    int swaps_added = 0;
    int depth = 0;              ///< physical circuit depth
    double duration_dt = 0.0;   ///< calibrated duration (dt)
    double esp = 0.0;           ///< estimated success probability
};

/// Pipeline options. The embedded CommonOptions supply the layout-
/// perturbation seed and the trial thread count / borrowed pool.
struct TranspileOptions : CommonOptions
{
    RouterOptions router;
    /// Keep RZZ/CZ as two-qubit primitives (true) or lower them to
    /// CX + rotations (false). Logical-level depth studies keep them.
    bool keep_rzz = false;
    /// Number of routing trials. Trial 1 (the unrefined greedy
    /// anchor, i.e. the legacy pipeline) holds the win; a wider trial
    /// takes it only when no worse on SWAPs, depth, and ESP and
    /// strictly better on at least one, so more trials can only
    /// improve the result. Trial 0 starts from the refined layout,
    /// trial 1 anchors on the unrefined greedy layout, later trials
    /// perturb the refined layout with seeded transpositions. Mirrors
    /// SABRE's multi-seed practice. A trial whose layout equals the
    /// anchor's or a lower-index trial's is not routed again.
    int trials = 4;
    /// Bidirectional (forward/backward) SABRE passes that refine the
    /// greedy layout before the trials: each pass routes the circuit,
    /// then its reverse, feeding each final_layout back as the next
    /// initial layout. 0 disables refinement.
    int layout_refine_passes = 1;
    /// Run peephole gate cancellation / rotation merging before layout
    /// (part of the optimization-level-3 behavior being modeled).
    bool peephole = true;
};

/// Runs the full pipeline. An oversized circuit (more qubits than the
/// backend) or an unroutable one (disconnected coupling graph) reports
/// `kInfeasible`.
util::StatusOr<TranspileResult> transpile_or(
    const circuit::Circuit& logical, const arch::Backend& backend,
    const TranspileOptions& options = {});

}  // namespace caqr::transpile

#endif  // CAQR_TRANSPILE_TRANSPILER_H
