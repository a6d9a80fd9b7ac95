#include "core/tradeoff.h"

#include <algorithm>
#include <optional>

#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace caqr::core {

VersionSet::VersionSet(QsCaqrResult result)
{
    for (const auto& version : result.versions) {
        info_.push_back({version.qubits,
                         static_cast<int>(version.applied.size()),
                         version.depth, version.duration_dt});
    }
    source_ = std::move(result);
}

VersionSet::VersionSet(QsCommutingResult result)
{
    for (const auto& version : result.versions) {
        info_.push_back({version.qubits,
                         static_cast<int>(version.pairs.size()),
                         version.schedule.depth,
                         version.schedule.duration_dt});
    }
    source_ = std::move(result);
}

circuit::Circuit
VersionSet::circuit(std::size_t index) const
{
    if (const auto* regular = std::get_if<QsCaqrResult>(&source_)) {
        if (index + 1 == size()) return regular->max_reuse_circuit;
        return regular->circuit(index);
    }
    return std::get<QsCommutingResult>(source_)
        .versions.at(index)
        .schedule.circuit;
}

circuit::Circuit
VersionSet::take_max_reuse() &&
{
    if (auto* regular = std::get_if<QsCaqrResult>(&source_)) {
        return std::move(regular->max_reuse_circuit);
    }
    return std::move(
        std::get<QsCommutingResult>(source_).versions.back().schedule.circuit);
}

util::StatusOr<std::vector<transpile::TranspileResult>>
map_versions(const VersionSet& versions, const arch::Backend& backend,
             const transpile::TranspileOptions& options)
{
    util::trace::Span span("tradeoff.map_versions");

    auto results = util::fan_out(
        versions.size(),
        std::min(util::ThreadPool::resolve_threads(options.num_threads),
                 static_cast<int>(versions.size())),
        [&](std::size_t index) {
            return std::optional(transpile::transpile_or(
                versions.circuit(index), backend, options));
        });

    std::vector<transpile::TranspileResult> out;
    for (auto& result : results) {
        if (!result->ok()) return result->status();
        out.push_back(std::move(*result).value());
    }
    return out;
}

std::size_t
best_by_esp(const std::vector<transpile::TranspileResult>& mapped)
{
    CAQR_CHECK(!mapped.empty(), "no mapped versions to select from");
    // Strict > from index 0: the lowest-index version wins ties.
    std::size_t best = 0;
    for (std::size_t index = 1; index < mapped.size(); ++index) {
        if (mapped[index].esp > mapped[best].esp) best = index;
    }
    return best;
}

}  // namespace caqr::core
