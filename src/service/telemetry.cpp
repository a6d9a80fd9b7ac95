#include "service/telemetry.h"

#include <chrono>
#include <cstdio>
#include <sstream>

namespace caqr::serve {

namespace {

/// Shortest round-trippable-enough rendering for scrape output.
std::string
fmt(double value)
{
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%.10g", value);
    return buffer;
}

/// Prometheus metric name: `caqr_` prefix, every character outside
/// [a-zA-Z0-9_] folded to '_'.
std::string
prom_name(const std::string& name)
{
    std::string out = "caqr_";
    out.reserve(out.size() + name.size());
    for (const char c : name) {
        const bool keep = (c >= 'a' && c <= 'z') ||
                          (c >= 'A' && c <= 'Z') ||
                          (c >= '0' && c <= '9') || c == '_';
        out.push_back(keep ? c : '_');
    }
    return out;
}

void
prom_summary(std::ostream& os, const std::string& name,
             const util::metrics::Histogram& histogram)
{
    os << "# TYPE " << name << " summary\n";
    for (const double q : {0.5, 0.9, 0.99}) {
        os << name << "{quantile=\"" << fmt(q) << "\"} "
           << fmt(histogram.percentile(q * 100.0)) << "\n";
    }
    os << name << "_sum " << fmt(histogram.sum()) << "\n";
    os << name << "_count " << histogram.count() << "\n";
}

using util::metrics::json_escape;

void
varz_stats_object(std::ostream& os,
                  const std::map<std::string,
                                 util::metrics::Histogram>& table)
{
    os << "{";
    bool first = true;
    for (const auto& [name, histogram] : table) {
        if (!first) os << ",";
        first = false;
        os << "\"" << json_escape(name) << "\":{\"count\":"
           << histogram.count() << ",\"min\":" << fmt(histogram.min())
           << ",\"mean\":" << fmt(histogram.mean())
           << ",\"p50\":" << fmt(histogram.percentile(50))
           << ",\"p90\":" << fmt(histogram.percentile(90))
           << ",\"p99\":" << fmt(histogram.percentile(99))
           << ",\"max\":" << fmt(histogram.max()) << "}";
    }
    os << "}";
}

const char*
status_reason(int status)
{
    switch (status) {
        case 200: return "OK";
        case 404: return "Not Found";
        case 503: return "Service Unavailable";
        default: return "Error";
    }
}

}  // namespace

std::string
prometheus_text(const util::metrics::Snapshot& snapshot)
{
    std::ostringstream os;
    for (const auto& [name, histogram] : snapshot.histograms) {
        prom_summary(os, prom_name(name), histogram);
    }
    for (const auto& [name, histogram] : snapshot.windows) {
        prom_summary(os, prom_name(name) + "_window", histogram);
    }
    for (const auto& [name, value] : snapshot.counters) {
        const std::string prom = prom_name(name);
        os << "# TYPE " << prom << " counter\n"
           << prom << " " << fmt(value) << "\n";
    }
    for (const auto& [name, value] : snapshot.gauges) {
        const std::string prom = prom_name(name);
        os << "# TYPE " << prom << " gauge\n"
           << prom << " " << fmt(value) << "\n";
    }
    os << "# TYPE caqr_telemetry_window_seconds gauge\n"
       << "caqr_telemetry_window_seconds " << snapshot.window_seconds
       << "\n";
    return os.str();
}

std::string
varz_json(const util::metrics::Snapshot& snapshot, bool draining)
{
    std::ostringstream os;
    os << "{\"draining\":" << (draining ? "true" : "false")
       << ",\"window_seconds\":" << snapshot.window_seconds
       << ",\"counters\":{";
    bool first = true;
    for (const auto& [name, value] : snapshot.counters) {
        if (!first) os << ",";
        first = false;
        os << "\"" << json_escape(name) << "\":" << fmt(value);
    }
    os << "},\"gauges\":{";
    first = true;
    for (const auto& [name, value] : snapshot.gauges) {
        if (!first) os << ",";
        first = false;
        os << "\"" << json_escape(name) << "\":" << fmt(value);
    }
    os << "},\"histograms\":";
    varz_stats_object(os, snapshot.histograms);
    os << ",\"windows\":";
    varz_stats_object(os, snapshot.windows);
    os << "}\n";
    return os.str();
}

std::string
http_response(int status, const std::string& content_type,
              const std::string& body, bool head_only)
{
    std::ostringstream os;
    os << "HTTP/1.0 " << status << " " << status_reason(status)
       << "\r\nContent-Type: " << content_type
       << "\r\nContent-Length: " << body.size()
       << "\r\nConnection: close\r\n\r\n";
    if (!head_only) os << body;
    return os.str();
}

EventField::EventField(std::string key, const std::string& value)
    : key(std::move(key)), rendered(1, '"')
{
    rendered += json_escape(value);
    rendered += '"';
}

EventField::EventField(std::string key, const char* value)
    : EventField(std::move(key), std::string(value)) {}

EventField::EventField(std::string key, double value)
    : key(std::move(key)), rendered(fmt(value)) {}

EventField::EventField(std::string key, std::uint64_t value)
    : key(std::move(key)), rendered(std::to_string(value)) {}

EventField::EventField(std::string key, int value)
    : key(std::move(key)), rendered(std::to_string(value)) {}

EventField::EventField(std::string key, bool value)
    : key(std::move(key)), rendered(value ? "true" : "false") {}

util::Status
EventLog::open(const std::string& path)
{
    if (path.empty()) return {};
    std::lock_guard<std::mutex> lock(mutex_);
    if (enabled_) return {};
    out_.open(path, std::ios::app);
    if (!out_) {
        return util::Status::io_error("cannot open event log '" + path +
                                      "'");
    }
    enabled_ = true;
    return {};
}

void
EventLog::log(const std::string& event,
              std::initializer_list<EventField> fields)
{
    if (!enabled_) return;
    const auto now = std::chrono::duration_cast<std::chrono::milliseconds>(
                         std::chrono::system_clock::now()
                             .time_since_epoch())
                         .count();
    std::ostringstream os;
    os << "{\"ts_ms\":" << now << ",\"event\":\"" << json_escape(event)
       << "\"";
    for (const auto& field : fields) {
        os << ",\"" << json_escape(field.key) << "\":" << field.rendered;
    }
    os << "}\n";
    std::lock_guard<std::mutex> lock(mutex_);
    out_ << os.str() << std::flush;
}

}  // namespace caqr::serve
