#include "util/trace.h"

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "util/metrics.h"

namespace caqr::util::trace {

namespace {

/// One finished span, timestamps in microseconds since the registry
/// epoch (Chrome-trace native unit).
struct Event
{
    std::string name;
    double ts_us = 0.0;
    double dur_us = 0.0;
    int tid = 0;
    std::uint64_t req = 0;  ///< owning request id (0 = unattributed)
};

/// Thread-local request binding installed by RequestScope. Spans read
/// it on construction; it never outlives the scope that set it.
thread_local const RequestContext* tls_request_ctx = nullptr;
thread_local RequestCapture* tls_request_capture = nullptr;

/// Process-wide trace storage. Spans from pool workers and the main
/// thread interleave, so every mutation is mutex-guarded;
/// `enabled` is separate so guards stay lock-free.
class Registry
{
  public:
    static Registry&
    instance()
    {
        static Registry registry;
        return registry;
    }

    std::atomic<bool> enabled{false};

    std::chrono::steady_clock::time_point
    epoch() const
    {
        return epoch_;
    }

    void
    record(std::string name,
           std::chrono::steady_clock::time_point start, double dur_us,
           std::uint64_t req)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (events_.size() >= kMaxEvents) {
            ++dropped_;
            return;
        }
        Event event;
        event.name = std::move(name);
        event.ts_us = std::chrono::duration<double, std::micro>(
                          start - epoch_)
                          .count();
        event.dur_us = dur_us;
        event.tid = tid_of(std::this_thread::get_id());
        event.req = req;
        events_.push_back(std::move(event));
    }

    void
    clear()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        events_.clear();
        dropped_ = 0;
    }

    /// Copies for export; taken under the lock so exporters see a
    /// consistent snapshot even while passes still run.
    void
    snapshot(std::vector<Event>* events, std::size_t* dropped) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        *events = events_;
        *dropped = dropped_;
    }

  private:
    Registry()
    {
        const char* env = std::getenv("CAQR_TRACE");
        if (env != nullptr && std::string(env) != "0") {
            enabled.store(true, std::memory_order_relaxed);
        }
    }

    int
    tid_of(std::thread::id id)
    {
        auto [it, inserted] =
            tids_.try_emplace(id, static_cast<int>(tids_.size()));
        (void)inserted;
        return it->second;
    }

    /// Backstop against unbounded growth from a looping caller; the
    /// "caqr_trace" summary key of the export flags truncation.
    static constexpr std::size_t kMaxEvents = 1u << 20;

    mutable std::mutex mutex_;
    std::vector<Event> events_;
    std::map<std::thread::id, int> tids_;
    std::size_t dropped_ = 0;
    const std::chrono::steady_clock::time_point epoch_ =
        std::chrono::steady_clock::now();
};

/// Minimal JSON string escaping (span names are library-chosen, but a
/// stray quote must not corrupt the document).
std::string
json_escape(const std::string& text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default: out += c;
        }
    }
    return out;
}

}  // namespace

bool
enabled()
{
    return Registry::instance().enabled.load(std::memory_order_relaxed);
}

void
set_enabled(bool on)
{
    Registry::instance().enabled.store(on, std::memory_order_relaxed);
}

void
reset()
{
    Registry::instance().clear();
}

RequestCapture::RequestCapture(std::uint64_t request_id)
    : request_id_(request_id),
      epoch_(std::chrono::steady_clock::now())
{
}

void
RequestCapture::record(const std::string& name,
                       std::chrono::steady_clock::time_point start,
                       double dur_us)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (spans_.size() >= kMaxSpans) {
        ++dropped_;
        return;
    }
    CapturedSpan span;
    span.name = name;
    span.ts_us =
        std::chrono::duration<double, std::micro>(start - epoch_).count();
    span.dur_us = dur_us;
    auto [it, inserted] = tids_.try_emplace(
        std::this_thread::get_id(), static_cast<int>(tids_.size()));
    (void)inserted;
    span.tid = it->second;
    spans_.push_back(std::move(span));
}

std::size_t
RequestCapture::span_count() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

std::size_t
RequestCapture::dropped() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return dropped_;
}

bool
RequestCapture::has_span(const std::string& name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& span : spans_) {
        if (span.name == name) return true;
    }
    return false;
}

void
RequestCapture::write_chrome_trace(std::ostream& os) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const auto& span : spans_) {
        if (!first) os << ",";
        first = false;
        os << "\n{\"name\":\"" << json_escape(span.name)
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << span.tid
           << ",\"ts\":" << span.ts_us << ",\"dur\":" << span.dur_us
           << ",\"args\":{\"req\":" << request_id_ << "}}";
    }
    os << "\n],\"caqr_request\":{\"id\":" << request_id_
       << ",\"spans\":" << spans_.size() << ",\"dropped\":" << dropped_
       << "}}\n";
}

RequestScope::RequestScope(const RequestContext* ctx,
                           RequestCapture* capture)
    : saved_ctx_(tls_request_ctx), saved_capture_(tls_request_capture)
{
    tls_request_ctx = ctx;
    tls_request_capture =
        (ctx != nullptr && !ctx->sampled) ? nullptr : capture;
}

RequestScope::~RequestScope()
{
    tls_request_ctx = saved_ctx_;
    tls_request_capture = saved_capture_;
}

const RequestContext*
current_request()
{
    return tls_request_ctx;
}

RequestCapture*
current_capture()
{
    return tls_request_capture;
}

Span::Span(std::string name)
    : name_(std::move(name)), active_(enabled()),
      capture_(tls_request_capture),
      req_(tls_request_ctx != nullptr ? tls_request_ctx->id : 0)
{
    if (active_ || capture_ != nullptr) {
        start_ = std::chrono::steady_clock::now();
    }
}

Span::~Span()
{
    if (!active_ && capture_ == nullptr) return;
    const auto stop = std::chrono::steady_clock::now();
    const double dur_us =
        std::chrono::duration<double, std::micro>(stop - start_).count();
    if (capture_ != nullptr) capture_->record(name_, start_, dur_us);
    if (active_) {
        Registry::instance().record(std::move(name_), start_, dur_us,
                                    req_);
    }
}

double
Span::elapsed_ms() const
{
    if (!active_ && capture_ == nullptr) return 0.0;
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
}

void
write_chrome_trace(std::ostream& os)
{
    std::vector<Event> events;
    std::size_t dropped = 0;
    Registry::instance().snapshot(&events, &dropped);

    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const auto& event : events) {
        if (!first) os << ",";
        first = false;
        os << "\n{\"name\":\"" << json_escape(event.name)
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << event.tid
           << ",\"ts\":" << event.ts_us << ",\"dur\":" << event.dur_us;
        if (event.req != 0) {
            os << ",\"args\":{\"req\":" << event.req << "}";
        }
        os << "}";
    }
    os << "\n],\"caqr_trace\":{\"events\":" << events.size()
       << ",\"dropped\":" << dropped << "}}\n";
}

bool
write_run_artifacts(const std::string& prefix,
                    const metrics::Snapshot& metrics)
{
    std::ofstream json(prefix + ".trace.json");
    std::ofstream csv(prefix + ".metrics.csv");
    if (!json || !csv) return false;
    write_chrome_trace(json);
    metrics.write_csv(csv);
    return json.good() && csv.good();
}

bool
write_env_artifacts(const std::string& name,
                    const metrics::Snapshot& metrics)
{
    const char* env = std::getenv("CAQR_TRACE");
    if (env == nullptr) return false;
    const std::string value(env);
    if (value == "0") return false;
    const std::string prefix = value == "1" ? name : value + name;
    return write_run_artifacts(prefix, metrics);
}

}  // namespace caqr::util::trace
