/**
 * @file
 * Pipeline observability: pass-level spans.
 *
 * A process-wide `SpanStore` collects **spans** — RAII-scoped
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

/// True when the process trace is recording. One relaxed atomic load.
bool enabled();

/// Turns recording on/off. Already-recorded data is retained.
void set_enabled(bool on);

/// Discards every span of the process trace.
void reset();

/**
 * Bounded, thread-safe store of finished spans and its Chrome-trace
 * writer. The process trace is one; every `RequestCapture` is another.
 * Spans from pool workers and the recording thread interleave, so
 * every access takes the mutex; past the cap a span is only counted as
 * dropped, and the export's summary key says so.
 */
class SpanStore
{
  public:
    explicit SpanStore(std::size_t max_spans);

    SpanStore(const SpanStore&) = delete;
    SpanStore& operator=(const SpanStore&) = delete;

    /// Stores one span recorded on the calling thread, attributed to
    /// request @p req (0 = none).
    void record(std::string name,
                std::chrono::steady_clock::time_point start, double dur_us,
                std::uint64_t req);

    /// Discards the spans and the dropped count.
    void clear();

    std::size_t span_count() const;
    std::size_t dropped() const;

    /// True when at least one stored span carries @p name.
    bool has_span(const std::string& name) const;

    /// Writes the spans as a Chrome-trace JSON document
    /// (`{"traceEvents": [...]}`, an event's `"args":{"req":N}` when it
    /// has a request) closed by the summary key
    /// `<summary_head><span count>,"dropped":<dropped>}`.
    void write_chrome_trace(std::ostream& os,
                            const std::string& summary_head) const;

  private:
    struct Event
    {
        std::string name;
        double ts_us = 0.0;  ///< since the store's construction
        double dur_us = 0.0;
        int tid = 0;
        std::uint64_t req = 0;
    };

    const std::size_t max_spans_;
    const std::chrono::steady_clock::time_point epoch_ =
        std::chrono::steady_clock::now();
    mutable std::mutex mutex_;
    std::vector<Event> events_;
    std::map<std::thread::id, int> tids_;
    std::size_t dropped_ = 0;
};

// ---------------------------------------------------------------------
// Per-request attribution
// ---------------------------------------------------------------------

/**
 * The span store of one request. Every `Span` on a thread bound to the
 * request records here, *regardless* of the global `enabled()` switch
 * — this is what makes slow-request capture always-on. Capped at
 * `kMaxSpans` so one pathological request cannot grow without bound.
 */
class RequestCapture : public SpanStore
{
  public:
    /// Backstop against unbounded span growth from one request.
    static constexpr std::size_t kMaxSpans = 4096;

    explicit RequestCapture(std::uint64_t request_id)
        : SpanStore(kMaxSpans), request_id_(request_id)
    {
    }

    std::uint64_t request_id() const { return request_id_; }

    /// Writes this request's spans as a standalone Chrome-trace JSON
    /// document, with a `caqr_request` summary key carrying the
    /// id/span/drop counts.
    void write_chrome_trace(std::ostream& os) const;

  private:
    const std::uint64_t request_id_;
};

/**
 * Identity of one in-flight compile request, so spans from concurrent
 * requests group by request id instead of interleaving into one
 * global timeline. Owned by the request driver (the `Service`), which
 * binds it with a `RequestScope`; `ThreadPool::map` binds the caller's
 * request on every helper thread of the batch.
 */
struct RequestContext
{
    std::uint64_t id = 0;               ///< unique per process
    RequestCapture* capture = nullptr;  ///< span sink (null = none)
};

/**
 * RAII thread-local request binding. While alive, every `Span` built
 * on this thread is tagged with the request id (visible as
 * `"args":{"req":N}` in the global Chrome trace) and mirrored into
 * the request's capture when it has one. Nests — construction saves
 * the previous binding and destruction restores it. A null request
 * clears the binding for the scope.
 */
class RequestScope
{
  public:
    explicit RequestScope(const RequestContext* request);
    ~RequestScope();

    RequestScope(const RequestScope&) = delete;
    RequestScope& operator=(const RequestScope&) = delete;

  private:
    const RequestContext* saved_;
};

/// The request bound to this thread (null outside any RequestScope).
const RequestContext* current_request();

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
