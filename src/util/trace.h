/**
 * @file
 * Pipeline observability: pass-level spans.
 *
 * A process-wide, thread-safe registry collects **spans** — RAII-scoped
 * wall-clock intervals (`Span`), nested via lexical scope and tagged
 * with the recording thread — from the compiler passes and the
 * simulator. They export as Chrome-trace "complete" events loadable in
 * `chrome://tracing` / Perfetto. Counters and gauges live in
 * `util::metrics` (always on); this module only times.
 *
 * Global recording is disabled by default and costs one relaxed atomic
 * load per span when off. A span still records into a bound
 * `RequestCapture` with the global switch off, which is what makes
 * slow-request capture always-on.
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
#include <vector>

namespace caqr::util::metrics {
struct Snapshot;
}  // namespace caqr::util::metrics

namespace caqr::util::trace {

/// True when the registry is recording. One relaxed atomic load.
bool enabled();

/// Turns recording on/off. Already-recorded data is retained.
void set_enabled(bool on);

/// Discards all recorded spans.
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

/// Writes every recorded span as a Chrome-trace JSON document
/// (`{"traceEvents": [...]}`) with a top-level "caqr_trace" summary key
/// (ignored by trace viewers) carrying the event and dropped-event
/// counts, so a truncated trace says so.
void write_chrome_trace(std::ostream& os);

/**
 * Writes `<prefix>.trace.json` and `<prefix>.metrics.csv` (the latter
 * is @p metrics rendered by `Snapshot::write_csv`). Returns false
 * (without partial output) if either file cannot be opened.
 */
bool write_run_artifacts(const std::string& prefix,
                         const metrics::Snapshot& metrics);

/**
 * Env-driven variant for drivers: when `CAQR_TRACE` is set and not
 * "0", writes artifacts under `<env-prefix><name>` (an env value of
 * "1" means the current directory) and returns true. No-op otherwise.
 */
bool write_env_artifacts(const std::string& name,
                         const metrics::Snapshot& metrics);

}  // namespace caqr::util::trace

#endif  // CAQR_UTIL_TRACE_H
