#include "util/trace.h"

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>

#include "util/metrics.h"

namespace caqr::util::trace {

namespace {

/// Thread-local request binding installed by RequestScope. Spans read
/// it on construction; it never outlives the scope that set it.
thread_local const RequestContext* tls_request = nullptr;

/// The process trace: the global switch and its span store.
struct ProcessTrace
{
    static ProcessTrace&
    instance()
    {
        static ProcessTrace trace;
        return trace;
    }

    std::atomic<bool> enabled{false};
    /// Backstop against unbounded growth from a looping caller; the
    /// "caqr_trace" summary key of the export flags truncation.
    SpanStore spans{std::size_t{1} << 20};

  private:
    ProcessTrace()
    {
        const char* env = std::getenv("CAQR_TRACE");
        if (env != nullptr && std::string(env) != "0") {
            enabled.store(true, std::memory_order_relaxed);
        }
    }
};

}  // namespace

bool
enabled()
{
    return ProcessTrace::instance().enabled.load(std::memory_order_relaxed);
}

void
set_enabled(bool on)
{
    ProcessTrace::instance().enabled.store(on, std::memory_order_relaxed);
}

void
reset()
{
    ProcessTrace::instance().spans.clear();
}

SpanStore::SpanStore(std::size_t max_spans) : max_spans_(max_spans) {}

void
SpanStore::record(std::string name,
                  std::chrono::steady_clock::time_point start,
                  double dur_us, std::uint64_t req)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (events_.size() >= max_spans_) {
        ++dropped_;
        return;
    }
    Event event;
    event.name = std::move(name);
    event.ts_us =
        std::chrono::duration<double, std::micro>(start - epoch_).count();
    event.dur_us = dur_us;
    event.tid = tids_.try_emplace(std::this_thread::get_id(),
                                  static_cast<int>(tids_.size()))
                    .first->second;
    event.req = req;
    events_.push_back(std::move(event));
}

void
SpanStore::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    events_.clear();
    dropped_ = 0;
}

std::size_t
SpanStore::span_count() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return events_.size();
}

std::size_t
SpanStore::dropped() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return dropped_;
}

bool
SpanStore::has_span(const std::string& name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& event : events_) {
        if (event.name == name) return true;
    }
    return false;
}

void
SpanStore::write_chrome_trace(std::ostream& os,
                              const std::string& summary_head) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const auto& event : events_) {
        if (!first) os << ",";
        first = false;
        os << "\n{\"name\":\"" << metrics::json_escape(event.name)
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << event.tid
           << ",\"ts\":" << event.ts_us << ",\"dur\":" << event.dur_us;
        if (event.req != 0) {
            os << ",\"args\":{\"req\":" << event.req << "}";
        }
        os << "}";
    }
    os << "\n]," << summary_head << events_.size()
       << ",\"dropped\":" << dropped_ << "}}\n";
}

void
RequestCapture::write_chrome_trace(std::ostream& os) const
{
    SpanStore::write_chrome_trace(
        os, "\"caqr_request\":{\"id\":" + std::to_string(request_id_) +
                ",\"spans\":");
}

RequestScope::RequestScope(const RequestContext* request)
    : saved_(tls_request)
{
    tls_request = request;
}

RequestScope::~RequestScope() { tls_request = saved_; }

const RequestContext*
current_request()
{
    return tls_request;
}

Span::Span(std::string name)
    : name_(std::move(name)), active_(enabled()),
      capture_(tls_request != nullptr ? tls_request->capture : nullptr),
      req_(tls_request != nullptr ? tls_request->id : 0)
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
    if (capture_ != nullptr) {
        capture_->record(name_, start_, dur_us, capture_->request_id());
    }
    if (active_) {
        ProcessTrace::instance().spans.record(std::move(name_), start_,
                                              dur_us, req_);
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
    ProcessTrace::instance().spans.write_chrome_trace(
        os, "\"caqr_trace\":{\"events\":");
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
