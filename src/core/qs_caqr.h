/**
 * @file
 * QS-CaQR — qubit-saving compiler pass (paper §3.2).
 *
 * Given a circuit and a qubit budget, repeatedly commits the reuse pair
 * whose tentative measurement/reset splice yields the best critical
 * path (depth or duration), one saved qubit per step, until the budget
 * is met or no valid pair remains. All intermediate versions are
 * retained so a budget *range* yields a family of circuits for
 * downstream selection (paper: "generate multiple transformed versions
 * and choose the one with the best circuit duration or fidelity").
 *
 * Commuting workloads (QAOA) go through the §3.2.2 machinery instead:
 * candidate pairs are validated on the pair graph of
 * `commuting_pairs_valid` and evaluated by the matching-based
 * scheduler.
 */
#ifndef CAQR_CORE_QS_CAQR_H
#define CAQR_CORE_QS_CAQR_H

#include <cstddef>
#include <vector>

#include "circuit/circuit.h"
#include "core/commuting.h"
#include "core/reuse_analysis.h"
#include "util/options.h"
#include "util/status.h"

namespace caqr::core {

/// Optimization metric for pair selection.
enum class ReuseMetric { kDepth, kDuration };

/**
 * One generated circuit version: what was committed and what it costs.
 * The circuit itself is built on demand by QsCaqrResult::circuit.
 */
struct QsVersion
{
    /// Committed pairs in commit order. Each names a wire by its head:
    /// the original qubit that first ran on it.
    std::vector<ReusePair> applied;
    int qubits = 0;                    ///< active qubit count
    int depth = 0;
    double duration_dt = 0.0;
};

/// QS-CaQR options for regular circuits. The search itself is serial:
/// each step prices every candidate in closed form, so the embedded
/// CommonOptions' `num_threads` is not read.
struct QsCaqrOptions : CommonOptions
{
    /// Stop once this many qubits is reached; -1 = squeeze to minimum.
    int target_qubits = -1;
    ReuseMetric metric = ReuseMetric::kDuration;
};

/// Result: one version per qubit count the search reached, in
/// descending count order. versions[0] has no commits and uses the
/// input's active qubits (those any instruction touches), and each later
/// version uses fewer.
struct QsCaqrResult
{
    /// The searched circuit; every version's commits replay onto it.
    circuit::Circuit input;
    std::vector<QsVersion> versions;
    bool reached_target = false;
    /// The max-reuse version's circuit, built once by the search from
    /// the program its last commit left, equal to `circuit` of the last
    /// index. Callers that need only this version move it out.
    circuit::Circuit max_reuse_circuit;

    /// Version with the fewest qubits (maximal reuse).
    const QsVersion& max_reuse() const { return versions.back(); }

    /**
     * Builds version @p index's circuit by replaying its commits on
     * `input`: O(commits x instructions). The circuit is the one the
     * search priced: each commit splices the source wire's measure
     * (unless it already ends in one) and conditional-X reset, moves
     * the target wire's operations onto it, and compacts the freed
     * wire away, as the reference rewrite in `tests/oracle.h` does.
     * Thread-safe. Each call, like the search's own build of
     * `max_reuse_circuit`, adds 1 to `qs_caqr.circuits_built`.
     */
    circuit::Circuit circuit(std::size_t index) const;
};

/// Runs QS-CaQR on a regular (non-commuting) circuit. An unreachable
/// `target_qubits` reports `kInfeasible` (the message names the
/// reachable minimum), a malformed target `kInvalidArgument`; a
/// best-effort squeeze (`target_qubits = -1`) always succeeds.
/// @p circuit becomes the result's `input`: move it in when the caller
/// no longer needs it.
util::StatusOr<QsCaqrResult> qs_caqr_or(circuit::Circuit circuit,
                                        const QsCaqrOptions& options = {});

/// Options for the commuting-workload search. The embedded
/// CommonOptions supply `num_threads` for candidate scheduling on the
/// shared pool (results are bit-identical for any value).
struct QsCommutingOptions : CommonOptions
{
    int target_qubits = -1;
    /// Candidate pairs evaluated per step (heuristically pre-ranked);
    /// bounds compile time on large graphs.
    int max_candidates = 48;
    CommutingOptions scheduling;
};

/// One commuting version: the pair set and its materialized schedule.
struct QsCommutingVersion
{
    std::vector<ReusePair> pairs;
    CommutingSchedule schedule;
    int qubits = 0;
};

/// Commuting search result.
struct QsCommutingResult
{
    std::vector<QsCommutingVersion> versions;
    /// Chromatic-number lower bound on achievable qubit count.
    int coloring_bound = 0;
    bool reached_target = false;
};

/// Runs QS-CaQR on a commuting workload; failure vocabulary matches
/// `qs_caqr_or` (infeasible targets name the coloring bound).
util::StatusOr<QsCommutingResult> qs_caqr_commuting_or(
    const CommutingSpec& spec, const QsCommutingOptions& options = {});

}  // namespace caqr::core

#endif  // CAQR_CORE_QS_CAQR_H
