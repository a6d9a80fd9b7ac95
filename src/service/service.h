/**
 * @file
 * The batch compilation service — the one coherent entry point to the
 * CaQR pass suite.
 *
 * Callers describe a job as a `CompileRequest` (QASM source, a file
 * path, an in-memory circuit, or a commuting workload; a target
 * backend by name; a `Strategy`; per-strategy knobs) and get back a
 * `CompileReport` (compiled circuit, qubit/depth/duration/SWAP
 * metrics, a `util::Status`, per-stage wall-clock timings). Every
 * strategy runs through the same internal stage pipeline — load →
 * backend → reuse pass → mapping (which scores ESP) → simulation — so
 * error handling, tracing, and metrics are uniform across
 * `transpile::transpile_or`, `core::qs_caqr_or`,
 * `core::qs_caqr_commuting_or`, and `core::sr_caqr_or`.
 *
 * For parameterized workloads the service also exposes the
 * compile-once / bind-many model: `compile_template` freezes the
 * angle-independent result of one full pipeline run as a
 * `CompiledTemplate`, and `bind` rebinds rotation angles into that
 * frozen schedule in O(#params) without re-running reuse analysis,
 * layout, or routing.
 *
 * `Service` is a long-lived object: it owns the `util::ThreadPool`
 * that fans out `compile_batch`, a registry of backends (FakeMumbai
 * plus scaled heavy-hex sizes), and a per-backend cache of constructed
 * `arch::Backend`s — coupling graph and APSP distance matrix computed
 * once under a mutex, then shared read-only across requests. Batch
 * results are index-stable and bit-identical at any thread count
 * (stage timings excepted; compare with `report_fingerprint`).
 */
#ifndef CAQR_SERVICE_SERVICE_H
#define CAQR_SERVICE_SERVICE_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "arch/backend.h"
#include "circuit/circuit.h"
#include "core/commuting.h"
#include "core/qs_caqr.h"
#include "core/sr_caqr.h"
#include "core/tradeoff.h"
#include "sim/simulator.h"
#include "transpile/transpiler.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace caqr::util::trace {
class RequestCapture;
}  // namespace caqr::util::trace

namespace caqr {

/// Which compilation pipeline a request runs.
enum class Strategy {
    kBaseline,     ///< decompose + layout + SABRE routing, no reuse
    kQsCaqr,       ///< QS-CaQR reuse sweep, then baseline mapping
    kQsCommuting,  ///< QS-CaQR §3.2.2 on a commuting workload
    kSrCaqr,       ///< SR-CaQR joint layout/routing (commuting or not)
};

/// Stable lowercase name ("baseline", "qs_caqr", ...).
const char* strategy_name(Strategy strategy);

/// Inverse of strategy_name; unknown names report kInvalidArgument.
util::StatusOr<Strategy> parse_strategy(const std::string& name);

/// Canonical registry key for a backend name — alias spellings
/// ("mumbai", "fake_mumbai", "heavyhex27") collapse to the one cached
/// key ("FakeMumbai", "heavy_hex:27"). kNotFound/kInvalidArgument on
/// names `Service::backend` would reject.
util::StatusOr<std::string> canonical_backend_name(
    const std::string& name);

/// One compilation job. Provide exactly one input: an in-memory
/// circuit, inline QASM source, a .qasm file path — or, for the
/// commuting strategies, a `CommutingSpec`.
struct CompileRequest
{
    /// Label used in reports and CSV rows; defaults to the file stem
    /// (file inputs), "commuting" (commuting inputs) or "circuit".
    std::string name;

    std::optional<circuit::Circuit> circuit;
    std::string qasm;       ///< inline OpenQASM 2.0 source
    std::string qasm_file;  ///< path to a .qasm file, read at compile time
    std::optional<core::CommutingSpec> commuting;

    /// Backend registry key: "FakeMumbai" (aliases "fake_mumbai",
    /// "mumbai") or "heavy_hex:<min_qubits>" (alias "heavyhex<n>").
    std::string backend = "FakeMumbai";
    Strategy strategy = Strategy::kQsCaqr;

    core::QsCaqrOptions qs;
    core::QsCommutingOptions qs_commuting;
    core::SrCaqrOptions sr;
    transpile::TranspileOptions transpile;

    /// Hardware-map the reuse-level circuit (ignored by kSrCaqr, which
    /// always maps). When false, metrics are logical-level.
    bool map_to_backend = true;
    /// Pick the version maximizing estimated success probability,
    /// mapped with `transpile`, instead of maximal reuse (paper §3.2
    /// version selection). kQsCaqr and kQsCommuting with mapping only;
    /// anything else is kInvalidArgument.
    bool select_by_esp = false;
    /// Run the shot simulator on the reuse-level circuit and fill
    /// `CompileReport::counts`.
    bool simulate = false;
    sim::SimOptions sim;
};

/// kInvalidArgument unless @p request provides exactly one input.
util::Status check_single_input(const CompileRequest& request);

/// Wall-clock cost of one pipeline stage.
struct StageTiming
{
    std::string stage;
    double ms = 0.0;
};

/// Everything the service knows about one finished (or failed) job.
struct CompileReport
{
    util::Status status;    ///< why `compiled` is empty, when it is
    std::string name;
    std::string backend;    ///< resolved backend name ("" when unused)
    std::string strategy;

    circuit::Circuit compiled;  ///< final circuit (physical when mapped)
    int logical_qubits = 0;     ///< input circuit, before reuse
    int qubits = 0;             ///< after reuse (logical wires)
    int physical_qubits = 0;    ///< distinct physical qubits (mapped only)
    int depth = 0;
    double duration_dt = 0.0;
    int swaps = 0;
    int reuses = 0;             ///< reuse pairs applied / reclaim events
    double esp = 0.0;           ///< estimated success prob. (mapped only)
    sim::Counts counts;         ///< simulate == true only

    /// True when this report was answered by the compile cache; the
    /// stages then hold a single "cache" entry with the lookup time.
    /// Excluded from `report_fingerprint` — a hit is bit-identical to
    /// the compile it replays.
    bool from_cache = false;

    /// Service-assigned id of the request this report answered (0 when
    /// the report never went through `Service::compile`). Matches the
    /// `"args":{"req":N}` tag on the request's trace spans and the
    /// `slow_req_<id>.trace.json` artifact name. Excluded from
    /// `report_fingerprint` — ids are per-process sequence numbers,
    /// not results.
    std::uint64_t request_id = 0;

    std::vector<StageTiming> stages;  ///< pipeline timings, in order

    bool ok() const { return status.ok(); }
    /// Sum of the per-stage timings.
    double total_ms() const;
};

/// Canonical serialization of everything deterministic in a report —
/// equal fingerprints mean equal results regardless of thread count.
/// (Stage timings are wall-clock and excluded.)
std::string report_fingerprint(const CompileReport& report);

/// Opaque reference to a compiled template held by a `Service`. Handles
/// stay valid until the template is evicted from the LRU template cache
/// (at which point `bind` reports kNotFound and the caller re-runs
/// `compile_template` — a cheap cache hit if the skeleton is still
/// resident under a different handle, a recompile otherwise).
struct TemplateHandle
{
    std::uint64_t id = 0;
};

/**
 * The frozen product of one template compilation: the full pipeline —
 * parse → reuse analysis → QS/SR-CaQR → layout → routing — ran exactly
 * once at `compile_template` time, and everything angle-dependent is
 * reduced to slot lists so `bind` is O(#params + #slots). Immutable
 * after construction; shared read-only between the cache, the handle
 * map, and in-flight binds.
 */
struct CompiledTemplate
{
    std::uint64_t id = 0;

    /// The one compile's report. `base.compiled` carries the physical
    /// schedule with `param_ref` markers intact; quality metrics
    /// (swaps/depth/duration/qubits/ESP) are angle-independent and
    /// replay verbatim into every bound report.
    CompileReport base;

    /// Parameter table of `base.compiled`, in ref order — `bind` takes
    /// its values positionally against this.
    std::vector<std::string> param_names;
    std::vector<double> default_values;

    /// slots[ref] = indices into `base.compiled` whose angle is that
    /// parameter's value (one rotation can lower into several sites).
    std::vector<std::vector<std::size_t>> slots;

    bool simulate = false;      ///< re-simulate on every bind
    /// For non-SR strategies the simulator targets the reuse-level
    /// circuit, not the routed one — that circuit and its own slot map
    /// are frozen separately.
    bool sim_separate = false;
    circuit::Circuit sim_circuit;  ///< valid when `sim_separate`
    std::vector<std::vector<std::size_t>> sim_slots;
    sim::SimOptions sim_options;
};

/// Introspection view of a compiled template (the serve protocol's
/// `template` reply and `qasm_tool --bind` discovery).
struct TemplateInfo
{
    std::uint64_t id = 0;
    std::string name;
    std::string backend;
    std::string strategy;
    std::vector<std::string> param_names;
    std::vector<double> default_values;
};

/// CSV rendering of a batch: `batch_csv_header()` + one
/// `batch_csv_row` per report (stage timings summed into total_ms).
std::string batch_csv_header();
std::string batch_csv_row(const CompileReport& report);

/// Service-level configuration. Every member has a default initializer,
/// so partial designated initializers (`{.num_threads = 1}`) are
/// complete.
struct ServiceOptions
{
    /// Threads compiling batch entries concurrently: 1 = serial,
    /// 0/negative = one per hardware thread.
    int num_threads = 0;

    /// Entries in the content-addressed compile cache (LRU; see
    /// service/cache.h). 0 disables caching — every compile runs the
    /// pipeline, the historical behavior.
    std::size_t cache_capacity = 0;

    /// Entries in the skeleton-keyed template cache (LRU). Templates
    /// are the explicit compile-once/bind-many API, so they are on by
    /// default; 0 disables `compile_template`/`bind` entirely.
    std::size_t template_cache_capacity = 64;

    /// Slow-request capture threshold in milliseconds: when > 0 every
    /// `compile` records its span tree into a per-request
    /// `util::trace::RequestCapture` (independent of the global trace
    /// switch), and a request whose `total_ms` exceeds the threshold —
    /// or that fails — flushes that tree as
    /// `<slow_trace_dir>/slow_req_<id>.trace.json`. 0 = off.
    double slow_request_ms = 0.0;

    /// Directory slow-request artifacts are written into ("" = CWD).
    std::string slow_trace_dir{};

    /// Lifetime ceiling on slow-request artifacts (rate limit — a
    /// pathologically slow workload must not fill the disk; suppressed
    /// writes count under `service.slow_captures_suppressed`).
    std::size_t slow_trace_max = 32;
};

/**
 * Long-lived compilation driver. Thread-safe: `compile` may be called
 * from any thread, and `compile_batch` fans out over the owned pool.
 */
template <typename V>
class Lru;
struct TemplateCapture;

class Service
{
  public:
    explicit Service(ServiceOptions options = {});
    ~Service();

    /**
     * Resolves (and caches) a backend by registry key. The first
     * lookup of a key constructs the `arch::Backend` — coupling graph
     * plus APSP distance matrix — under the registry mutex; later
     * lookups share the same immutable instance. Counts
     * `service.backend_cache.hit` / `service.backend_cache.miss` in
     * this service's metrics registry (see `metrics_snapshot`).
     */
    util::StatusOr<std::shared_ptr<const arch::Backend>> backend(
        const std::string& name);

    /// Runs one request through the stage pipeline. When the service
    /// was built with a `cache_capacity`, the content-addressed cache
    /// is consulted first — a hit replays the stored report
    /// (`from_cache = true`, one "cache" stage) without compiling.
    /// Failures come back as `report.status` and are never cached;
    /// this never throws on bad input.
    CompileReport compile(const CompileRequest& request);

    /**
     * Compiles every request concurrently on the owned pool. The
     * result vector is index-aligned with @p requests, and each report
     * is bit-identical to a serial run (see `report_fingerprint`).
     */
    std::vector<CompileReport> compile_batch(
        const std::vector<CompileRequest>& requests);

    /**
     * Aggregated request metrics since construction (or the last
     * `reset_metrics`): latency histograms — `service.total_ms`,
     * `service.stage.<stage>_ms` — plus `service.swaps/depth/esp/
     * qubits` distributions, `service.requests/failures`,
     * `service.backend_cache.hit/miss` and the cache tiers'
     * `service.cache.*` / `service.template.*` counters (their only
     * counts), merged with the
     * process-wide `util::metrics::global()` registry (pass counters
     * such as `qs_caqr.steps` and `router.swaps_added`, simulator
     * shots/sec). Every request contributes, not just the last one —
     * percentiles are meaningful across a whole batch.
     */
    util::metrics::Snapshot metrics_snapshot() const;

    /// Clears this service's request metrics, backend-cache counts
    /// included (the global registry is left alone; other components
    /// own it).
    void reset_metrics() { metrics_.reset(); }

    /// The service's metrics registry — the serving layer records its
    /// `server.*` counters here so `metrics_snapshot` / the `stats`
    /// protocol command report transport and compile metrics together.
    util::metrics::Registry& metrics() { return metrics_; }

    /**
     * Compile-once half of the template → bind model. Runs the full
     * pipeline (reuse analysis, QS/SR-CaQR, layout, routing) exactly
     * once for the request's *structure* and freezes the result as an
     * immutable `CompiledTemplate`. Commuting workloads are compiled
     * symbolically (`gamma<l>`/`beta<l>` parameters); circuit/QASM
     * inputs contribute whatever named parameters they declare.
     * Simulation is deferred to bind time. Keyed by skeleton
     * fingerprint: a second request differing only in bound angles is
     * a `service.template.hit` and returns the resident handle.
     * kInvalidArgument when templates are disabled
     * (`template_cache_capacity = 0`); compile failures propagate.
     */
    util::StatusOr<TemplateHandle> compile_template(
        const CompileRequest& request);

    /**
     * Bind-many half: rebinds @p values (one per template parameter, in
     * `TemplateInfo::param_names` order — these are full rotation
     * angles) into the frozen schedule in O(#params + #slots), without
     * re-running analysis, layout, or routing. The report's quality
     * metrics (swaps/depth/qubits/ESP) replay from the template —
     * they are angle-independent — and `counts` is re-simulated when
     * the template was built from a `simulate` request. Reports
     * kNotFound for an evicted/unknown handle and kInvalidArgument on
     * a value-count mismatch. Thread-safe and lock-light: concurrent
     * binds of one template share the immutable schedule.
     */
    util::StatusOr<CompileReport> bind(TemplateHandle handle,
                                       std::span<const double> values);

    /// Introspects a live handle (kNotFound once evicted).
    util::StatusOr<TemplateInfo> template_info(
        TemplateHandle handle) const;

  private:
    /// The pipeline; @p qasm is the request's source as
    /// `read_qasm_source` returned it.
    CompileReport compile_uncached(
        const CompileRequest& request,
        const util::StatusOr<std::string_view>& qasm,
        TemplateCapture* capture = nullptr);
    void record_request_metrics(const CompileRequest& request,
                                const CompileReport& report);
    void maybe_write_slow_trace(const CompileReport& report,
                                const util::trace::RequestCapture& capture);

    ServiceOptions options_;
    std::atomic<std::uint64_t> next_request_id_{1};
    std::atomic<std::size_t> slow_traces_written_{0};
    util::ThreadPool pool_;
    mutable std::mutex mutex_;
    std::map<std::string, std::shared_ptr<const arch::Backend>> backends_;
    util::metrics::Registry metrics_;
    /// Content-addressed report cache (null = caching disabled).
    std::unique_ptr<Lru<std::shared_ptr<const CompileReport>>> cache_;

    /// Skeleton-keyed LRU (null = templates disabled). Misses are
    /// admitted under `template_admission_mutex_` so one skeleton never
    /// compiles twice concurrently; `template_mutex_` guards only the
    /// id map, so binds never wait on a template compilation.
    std::unique_ptr<Lru<std::shared_ptr<const CompiledTemplate>>>
        template_cache_;
    mutable std::mutex template_admission_mutex_;
    mutable std::mutex template_mutex_;
    std::unordered_map<std::uint64_t,
                       std::shared_ptr<const CompiledTemplate>>
        templates_by_id_;
    std::atomic<std::uint64_t> next_template_id_{1};
};

/**
 * Expands @p path into one request per .qasm file, cloning
 * @p prototype for everything but name/input. A directory contributes
 * every `*.qasm` inside (sorted by filename); a file whose first
 * non-blank line starts with `OPENQASM` is itself the one input; any
 * other file is a manifest contributing one path per line (blank lines
 * and `#` comments skipped, relative paths resolved against the
 * manifest's directory).
 * An empty expansion reports kInvalidArgument, a missing path
 * kNotFound.
 */
util::StatusOr<std::vector<CompileRequest>> requests_from_path(
    const std::string& path, const CompileRequest& prototype);

}  // namespace caqr

#endif  // CAQR_SERVICE_SERVICE_H
