/**
 * @file
 * Version selection (paper §3.2): a QS search keeps one version per
 * qubit count it reached, and the caller chooses "the one with the best
 * circuit duration or fidelity". `VersionSet` holds the versions of
 * either QS engine alike; `map_versions` hardware-maps all of them,
 * which is the qubit/cost curve of the paper's Figs 13 and Tables 1-2,
 * and `best_by_esp` picks the fidelity winner among the mapped ones.
 */
#ifndef CAQR_CORE_TRADEOFF_H
#define CAQR_CORE_TRADEOFF_H

#include <cstddef>
#include <variant>
#include <vector>

#include "arch/backend.h"
#include "circuit/circuit.h"
#include "core/qs_caqr.h"
#include "transpile/transpiler.h"
#include "util/status.h"

namespace caqr::core {

/// Logical cost of one version, whichever engine produced it.
struct VersionInfo
{
    int qubits = 0;
    int reuses = 0;            ///< reuse pairs committed
    int depth = 0;             ///< logical depth
    double duration_dt = 0.0;  ///< logical duration
};

/// The versions of one QS search in descending qubit order. Each
/// version's circuit is built on demand.
class VersionSet
{
  public:
    explicit VersionSet(QsCaqrResult result);
    explicit VersionSet(QsCommutingResult result);

    std::size_t size() const { return info_.size(); }
    const VersionInfo& operator[](std::size_t index) const
    {
        return info_[index];
    }
    /// The max-reuse version.
    const VersionInfo& back() const { return info_.back(); }
    auto begin() const { return info_.begin(); }
    auto end() const { return info_.end(); }

    /// Version @p index's logical circuit: copied from the search's
    /// max-reuse build or replayed from its commits (QS-CaQR), or
    /// copied from its schedule (commuting). Thread-safe.
    circuit::Circuit circuit(std::size_t index) const;

    /// Moves the max-reuse version's circuit out; the set is done.
    circuit::Circuit take_max_reuse() &&;

  private:
    std::vector<VersionInfo> info_;
    std::variant<QsCaqrResult, QsCommutingResult> source_;
};

/**
 * Hardware-maps every version of @p versions on @p backend, each with
 * @p options as given; each result carries its ESP. The versions fan
 * out over `options.num_threads` threads of the shared pool, and so do
 * each version's routing trials; results are index-aligned and
 * identical at any thread count. The
 * lowest-index failure is returned.
 */
util::StatusOr<std::vector<transpile::TranspileResult>> map_versions(
    const VersionSet& versions, const arch::Backend& backend,
    const transpile::TranspileOptions& options = {});

/// Index of the mapped version with the highest ESP; the lowest index
/// wins ties. @p mapped must not be empty.
std::size_t best_by_esp(
    const std::vector<transpile::TranspileResult>& mapped);

}  // namespace caqr::core

#endif  // CAQR_CORE_TRADEOFF_H
