/**
 * @file
 * Qubit-reuse pairs and their pricing (paper §3.1).
 *
 * A reuse pair (qi -> qj) means: measure-and-reset qi after its last
 * operation, then run qj's operations on the same wire. It is legal iff
 *
 *   Condition 1 — qi and qj never share a gate, and
 *   Condition 2 — no operation on qi depends (transitively) on an
 *                 operation on qj; equivalently, splicing the
 *                 measurement/reset node between the two gate groups
 *                 leaves the dependency DAG acyclic.
 *
 * QS-CaQR checks both with its per-wire reach sets (`core/qs_caqr.h`);
 * the reference check in `tests/oracle.h` tests them on the DAG.
 */
#ifndef CAQR_CORE_REUSE_ANALYSIS_H
#define CAQR_CORE_REUSE_ANALYSIS_H

#include <algorithm>
#include <cstddef>
#include <vector>

#include "circuit/circuit.h"

namespace caqr::core {

/// A directed reuse pair: wire of `source` is reused by `target`.
struct ReusePair
{
    int source = -1;  ///< qubit measured & reset (qi)
    int target = -1;  ///< qubit whose gates move onto qi's wire (qj)

    friend bool
    operator==(const ReusePair& a, const ReusePair& b)
    {
        return a.source == b.source && a.target == b.target;
    }
};

/**
 * Per-qubit timing of a circuit, enough to price any reuse splice in
 * closed form (paper §3.2.1). Splicing the measure/reset dummy node between
 * the gates on qi and the gates on qj only adds paths through the
 * dummy, so the spliced critical path is
 * max(critical_path, qubit_finish[qi] + dummy_weight + qubit_tail[qj]).
 */
struct SpliceTiming
{
    /// Latest ASAP completion of a gate on each qubit (0 if idle).
    std::vector<double> qubit_finish;
    /// Longest weighted path starting at a gate on each qubit.
    std::vector<double> qubit_tail;
    double critical_path = 0.0;

    /// Critical path after splicing @p pair through a dummy node of
    /// weight @p dummy_weight; @p pair must be valid.
    double
    spliced_critical_path(ReusePair pair, double dummy_weight) const
    {
        return std::max(critical_path,
                        qubit_finish[static_cast<std::size_t>(pair.source)] +
                            dummy_weight +
                            qubit_tail[static_cast<std::size_t>(pair.target)]);
    }
};

/**
 * Quick benefit probe (paper §1: "a method for identifying whether
 * qubit reuse will be beneficial for a given application").
 */
struct ReuseAdvice
{
    bool any_opportunity = false;
    int active_qubits = 0;
    /// Qubits reachable by greedily exhausting depth-best reuse pairs.
    int min_qubits_estimate = 0;
    /// Depth of the original circuit.
    int original_depth = 0;
    /// Depth of the maximally-reused circuit found by the greedy probe.
    int max_reuse_depth = 0;
};

/// Runs the greedy probe on @p circuit.
ReuseAdvice advise_reuse(const circuit::Circuit& circuit);

}  // namespace caqr::core

#endif  // CAQR_CORE_REUSE_ANALYSIS_H
