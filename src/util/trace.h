/**
 * @file
 * Pipeline observability: pass-level tracing and metrics.
 *
 * A process-wide, thread-safe registry collects three kinds of data
 * from the compiler passes and the simulator:
 *
 *  - **Spans** — RAII-scoped wall-clock intervals (`Span`), nested via
 *    lexical scope and tagged with the recording thread. Exported as
 *    Chrome-trace "complete" events loadable in `chrome://tracing` /
 *    Perfetto.
 *  - **Counters** — monotonically accumulated named values
 *    (`counter_add`), e.g. candidates evaluated or SWAPs inserted.
 *  - **Gauges** — last-write-wins named values (`gauge_set`), e.g.
 *    memo-cache hit rate or simulator shots/sec.
 *
 * Tracing is disabled by default and costs one relaxed atomic load per
 * guard when off. Hot loops that cannot afford even a per-iteration
 * branch are instantiated against a compile-time *null sink*
 * (`NullSink`) whose operations are statically checked to be empty, so
 * the disabled path compiles to exactly the uninstrumented code.
 *
 * Setting the environment variable `CAQR_TRACE` (to anything but "0")
 * enables tracing at startup; its value is used as the output-path
 * prefix by `write_env_artifacts()`.
 */
#ifndef CAQR_UTIL_TRACE_H
#define CAQR_UTIL_TRACE_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

namespace caqr::util::trace {

/// True when the registry is recording. One relaxed atomic load.
bool enabled();

/// Turns recording on/off. Already-recorded data is retained.
void set_enabled(bool on);

/// Adds @p delta to the named counter (created at 0). Thread-safe.
void counter_add(const std::string& name, double delta);

/// Sets the named gauge to @p value (last write wins). Thread-safe.
void gauge_set(const std::string& name, double value);

/// Discards all recorded spans, counters, and gauges.
void reset();

// ---------------------------------------------------------------------
// Per-request attribution
// ---------------------------------------------------------------------

/**
 * Identity of one in-flight compile request, carried through
 * `CommonOptions` into every pass so spans from concurrent requests
 * group by request id instead of interleaving into one global
 * timeline. Owned by the request driver (the `Service`); passes hold
 * only a const pointer.
 */
struct RequestContext
{
    std::uint64_t id = 0;      ///< driver-assigned, unique per process
    std::string tenant;        ///< sanitized tenant label ("" = none)
    double deadline_ms = 0.0;  ///< soft latency budget (0 = none)
    bool sampled = true;       ///< false opts the request out of capture
};

/**
 * Bounded per-request span sink. One instance lives for the duration
 * of a single request; every `Span` on a thread bound to it (via
 * `RequestScope`) also records here, *regardless* of the global
 * `enabled()` switch — this is what makes slow-request capture
 * always-on. Mutex-guarded because pool workers record concurrently;
 * capped at `kMaxSpans` with a dropped counter so one pathological
 * request cannot grow without bound.
 */
class RequestCapture
{
  public:
    /// Backstop against unbounded span growth from one request.
    static constexpr std::size_t kMaxSpans = 4096;

    explicit RequestCapture(std::uint64_t request_id);

    RequestCapture(const RequestCapture&) = delete;
    RequestCapture& operator=(const RequestCapture&) = delete;

    void record(const std::string& name,
                std::chrono::steady_clock::time_point start,
                double dur_us);

    std::uint64_t request_id() const { return request_id_; }
    std::size_t span_count() const;
    std::size_t dropped() const;

    /// True when at least one recorded span carries @p name.
    bool has_span(const std::string& name) const;

    /// Writes this request's spans as a standalone Chrome-trace JSON
    /// document (same shape as `write_chrome_trace`, plus a
    /// `caqr_request` summary key with id/span/drop counts).
    void write_chrome_trace(std::ostream& os) const;

  private:
    struct CapturedSpan
    {
        std::string name;
        double ts_us = 0.0;
        double dur_us = 0.0;
        int tid = 0;
    };

    mutable std::mutex mutex_;
    const std::uint64_t request_id_;
    const std::chrono::steady_clock::time_point epoch_;
    std::vector<CapturedSpan> spans_;
    std::map<std::thread::id, int> tids_;
    std::size_t dropped_ = 0;
};

/**
 * RAII thread-local request binding. While alive, every `Span` built
 * on this thread is tagged with the context's request id (visible as
 * `"args":{"req":N}` in the global Chrome trace) and mirrored into
 * the capture when one is bound. Nests — construction saves the
 * previous binding and destruction restores it — so pool workers
 * rebind per task and raced trials from different requests never
 * bleed into each other's captures. Null arguments clear the binding
 * for the scope.
 */
class RequestScope
{
  public:
    RequestScope(const RequestContext* ctx, RequestCapture* capture);
    ~RequestScope();

    RequestScope(const RequestScope&) = delete;
    RequestScope& operator=(const RequestScope&) = delete;

  private:
    const RequestContext* saved_ctx_;
    RequestCapture* saved_capture_;
};

/// The context bound to this thread (null outside any RequestScope).
const RequestContext* current_request();

/// The capture bound to this thread (null outside any RequestScope).
RequestCapture* current_capture();

/**
 * RAII scoped span. Construction snapshots the clock; destruction
 * records one Chrome-trace complete event on the constructing thread.
 * A span built while tracing is disabled *and* no request capture is
 * bound is inert (no clock access on destruction); a bound capture
 * records even with global tracing off.
 */
class Span
{
  public:
    explicit Span(std::string name);
    ~Span();

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Wall-clock milliseconds since construction (0 when inert).
    double elapsed_ms() const;

  private:
    std::string name_;
    bool active_;
    RequestCapture* capture_;
    std::uint64_t req_;
    std::chrono::steady_clock::time_point start_;
};

/// Aggregated statistics of all spans sharing one name.
struct SpanStats
{
    std::size_t count = 0;
    double total_ms = 0.0;
    double min_ms = 0.0;
    double max_ms = 0.0;
};

/// Snapshot of everything the registry knows, aggregated per name —
/// the sink format consumed by the exporters and by tests.
struct PassMetrics
{
    std::map<std::string, SpanStats> spans;
    std::map<std::string, double> counters;
    std::map<std::string, double> gauges;
};

/// Aggregates the current registry contents.
PassMetrics collect();

/// Writes every recorded span as a Chrome-trace JSON document
/// (`{"traceEvents": [...]}`) with final counter/gauge values attached
/// under a top-level "caqr_metrics" key (ignored by trace viewers).
void write_chrome_trace(std::ostream& os);

/// Writes the aggregated summary as CSV (one row per span name with
/// count/total/mean/min/max, one row per counter and gauge).
void write_summary_csv(std::ostream& os);

/**
 * Writes `<prefix>.trace.json` and `<prefix>.metrics.csv`. Returns
 * false (without partial output) if either file cannot be opened.
 */
bool write_run_artifacts(const std::string& prefix);

/**
 * Env-driven variant for drivers: when `CAQR_TRACE` is set and not
 * "0", writes artifacts under `<env-prefix><name>` (an env value of
 * "1" means the current directory) and returns true. No-op otherwise.
 */
bool write_env_artifacts(const std::string& name);

// ---------------------------------------------------------------------
// Compile-time sinks for hot loops
// ---------------------------------------------------------------------

/**
 * Null metrics sink: every operation is a no-op the optimizer erases.
 * Hot paths templated on a sink type are instantiated with NullSink
 * when tracing is disabled, so the disabled mode carries zero
 * instrumentation cost — not even a branch per iteration.
 */
struct NullSink
{
    /// Instrumented code may `if constexpr (Sink::kActive)` around
    /// work (e.g. clock reads) that has no side-effect-free no-op.
    static constexpr bool kActive = false;

    void count(const char* /*name*/, double /*delta*/) {}
    void gauge(const char* /*name*/, double /*value*/) {}
};

// The zero-overhead contract: the null sink must carry no state, so
// passing it through a hot loop cannot change codegen.
static_assert(std::is_empty_v<NullSink>,
              "NullSink must be stateless (zero-overhead contract)");
static_assert(std::is_trivially_destructible_v<NullSink>,
              "NullSink must be trivially destructible");

/**
 * Buffering sink for instrumented hot-loop instantiations: operations
 * accumulate locally (no locks) and `flush()` publishes everything to
 * the registry in one shot. Use from a single thread.
 */
class TallySink
{
  public:
    static constexpr bool kActive = true;

    void count(const char* name, double delta) { counters_[name] += delta; }
    void gauge(const char* name, double value) { gauges_[name] = value; }

    /// Publishes the buffered values to the global registry.
    void flush();

  private:
    std::map<std::string, double> counters_;
    std::map<std::string, double> gauges_;
};

}  // namespace caqr::util::trace

#endif  // CAQR_UTIL_TRACE_H
