#include "core/tradeoff.h"

#include "transpile/transpiler.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace caqr::core {

namespace {

void
fill_compiled_metrics(TradeoffPoint* point, const circuit::Circuit& circuit,
                      const arch::Backend* backend, bool keep_rzz)
{
    if (backend == nullptr) return;
    transpile::TranspileOptions options;
    options.keep_rzz = keep_rzz;
    auto compiled = transpile::transpile_or(circuit, *backend, options).value();
    point->compiled_depth = compiled.depth;
    point->compiled_duration_dt = compiled.duration_dt;
    point->swaps = compiled.swaps_added;
}

/**
 * Evaluates fn(0..n-1) across an evaluation pool sized from
 * @p num_threads (1 = serial, 0/negative = one per hardware thread).
 * Results come back indexed by version, so downstream lowest-index
 * tie-breaks pick the same winner at any thread count.
 */
template <typename Fn>
auto
map_versions(std::size_t n, int num_threads, Fn&& fn)
    -> std::vector<std::invoke_result_t<std::decay_t<Fn>&, std::size_t>>
{
    util::ThreadPool pool(util::ThreadPool::resolve_threads(num_threads) - 1);
    return pool.map(n, fn);
}

}  // namespace

std::vector<TradeoffPoint>
explore_tradeoff(const circuit::Circuit& circuit,
                 const arch::Backend* backend, const QsCaqrOptions& options)
{
    util::trace::Span span("tradeoff.explore");

    QsCaqrOptions sweep = options;
    sweep.target_qubits = -1;  // squeeze to the minimum
    auto result = qs_caqr_or(circuit, sweep).value();

    return map_versions(
        result.versions.size(), backend == nullptr ? 1 : options.num_threads,
        [&](std::size_t index) {
            const auto& version = result.versions[index];
            TradeoffPoint point;
            point.qubits = version.qubits;
            point.logical_depth = version.depth;
            point.logical_duration_dt = version.duration_dt;
            if (backend != nullptr) {
                fill_compiled_metrics(&point, result.circuit(index), backend,
                                      /*keep_rzz=*/false);
            }
            return point;
        });
}

EspSelection
select_best_by_esp(const QsCaqrResult& result, const arch::Backend& backend,
                   int num_threads)
{
    util::trace::Span span("tradeoff.select_esp");

    struct Scored
    {
        double esp = 0.0;
        circuit::Circuit compiled;
    };
    auto scored = map_versions(
        result.versions.size(), num_threads, [&](std::size_t index) {
            auto compiled = transpile::transpile_or(
                result.circuit(index), backend).value();
            Scored entry;
            entry.esp = arch::estimated_success_probability(
                compiled.circuit, backend);
            entry.compiled = std::move(compiled.circuit);
            return entry;
        });

    // Strict-> scan from index 0: the lowest-index version wins ties,
    // exactly as the serial walk did.
    EspSelection best;
    bool have_best = false;
    for (std::size_t index = 0; index < scored.size(); ++index) {
        if (!have_best || scored[index].esp > best.esp) {
            best.version_index = index;
            best.esp = scored[index].esp;
            best.compiled = std::move(scored[index].compiled);
            have_best = true;
        }
    }
    return best;
}

std::vector<TradeoffPoint>
explore_tradeoff_commuting(const CommutingSpec& spec,
                           const arch::Backend* backend,
                           const QsCommutingOptions& options)
{
    util::trace::Span span("tradeoff.explore_commuting");

    QsCommutingOptions sweep = options;
    sweep.target_qubits = -1;
    auto result = qs_caqr_commuting_or(spec, sweep).value();

    return map_versions(
        result.versions.size(), backend == nullptr ? 1 : options.num_threads,
        [&](std::size_t index) {
            const auto& version = result.versions[index];
            TradeoffPoint point;
            point.qubits = version.qubits;
            point.logical_depth = version.schedule.depth;
            point.logical_duration_dt = version.schedule.duration_dt;
            fill_compiled_metrics(&point, version.schedule.circuit, backend,
                                  /*keep_rzz=*/true);
            return point;
        });
}

}  // namespace caqr::core
