/**
 * @file
 * Options shared by every compiler pass.
 *
 * The pass-specific option structs (`QsCaqrOptions`,
 * `QsCommutingOptions`, `SrCaqrOptions`, `TranspileOptions`) embed
 * `CommonOptions` as a base, so the knobs every pass understands —
 * evaluation threads and heuristic seed — are declared exactly once
 * and cannot drift between passes. Call sites keep writing
 * `options.num_threads = 4;` as before. The worker pool is not an
 * option: every pass fans out on the one process-wide
 * `util::ThreadPool::shared()`. Nor is the request a pass runs for:
 * `util::ThreadPool::map` carries the caller's `util::trace` binding
 * onto every helper thread.
 */
#ifndef CAQR_UTIL_OPTIONS_H
#define CAQR_UTIL_OPTIONS_H

#include <cstdint>

namespace caqr {

/// Knobs common to all passes; embedded as a base by each pass's
/// options struct.
struct CommonOptions
{
    /// Evaluation threads for the pass's parallel sections: 1 = serial,
    /// 0/negative = one per hardware thread. The calling thread plus at
    /// most `num_threads - 1` workers of the shared pool run them.
    /// Every pass guarantees bit-identical results for any value.
    int num_threads = 0;
    /// Seed for heuristic perturbations (e.g. layout-trial shuffles).
    /// The default reproduces the historical hard-coded behavior.
    std::uint64_t seed = 0xCA0Full;
};

}  // namespace caqr

#endif  // CAQR_UTIL_OPTIONS_H
