#include "util/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "util/table.h"

namespace caqr::util::metrics {

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

int
Histogram::bucket_index(double value)
{
    return static_cast<int>(
        std::floor(std::log2(value) * kBucketsPerOctave));
}

void
Histogram::record(double value)
{
    if (!std::isfinite(value)) return;
    if (count_ == 0) {
        min_ = value;
        max_ = value;
    } else {
        if (value < min_) min_ = value;
        if (value > max_) max_ = value;
    }
    const int index =
        value > 0.0 ? bucket_index(value) : kNonPositiveBucket;
    auto& cell = buckets_[index];
    ++cell.count;
    cell.sum += value;
    ++count_;
    sum_ += value;
}

void
Histogram::merge(const Histogram& other)
{
    if (other.count_ == 0) return;
    if (count_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    for (const auto& [index, cell] : other.buckets_) {
        auto& mine = buckets_[index];
        mine.count += cell.count;
        mine.sum += cell.sum;
    }
    count_ += other.count_;
    sum_ += other.sum_;
}

double
Histogram::percentile(double p) const
{
    if (count_ == 0) return 0.0;
    if (p <= 0.0) return min();
    if (p >= 100.0) return max();
    const auto rank = static_cast<std::size_t>(std::max(
        1.0,
        std::ceil(p / 100.0 * static_cast<double>(count_))));
    std::size_t seen = 0;
    for (const auto& [index, cell] : buckets_) {
        (void)index;
        seen += cell.count;
        if (seen >= rank) {
            const double bucket_mean =
                cell.sum / static_cast<double>(cell.count);
            return std::clamp(bucket_mean, min_, max_);
        }
    }
    return max();  // unreachable: ranks are <= count_
}

std::vector<Histogram::Bucket>
Histogram::buckets() const
{
    std::vector<Bucket> out;
    out.reserve(buckets_.size());
    for (const auto& [index, cell] : buckets_) {
        out.push_back({index, cell.count, cell.sum});
    }
    return out;
}

// ---------------------------------------------------------------------
// RollingHistogram
// ---------------------------------------------------------------------

void
RollingHistogram::record(double value,
                         std::chrono::steady_clock::time_point now)
{
    const std::int64_t epoch = epoch_of(now);
    Slot& slot = slots_[static_cast<std::size_t>(
        epoch % static_cast<std::int64_t>(kSlots))];
    if (slot.epoch != epoch) {
        // The ring rotated past this slot since it was last written;
        // its samples are older than the window and age out here.
        slot.histogram = Histogram{};
        slot.epoch = epoch;
    }
    slot.histogram.record(value);
}

Histogram
RollingHistogram::window(std::chrono::steady_clock::time_point now) const
{
    const std::int64_t epoch = epoch_of(now);
    Histogram merged;
    for (const Slot& slot : slots_) {
        if (slot.epoch < 0) continue;
        if (slot.epoch > epoch) continue;
        if (epoch - slot.epoch >= static_cast<std::int64_t>(kSlots)) {
            continue;
        }
        merged.merge(slot.histogram);
    }
    return merged;
}

void
RollingHistogram::reset()
{
    for (Slot& slot : slots_) {
        slot.histogram = Histogram{};
        slot.epoch = -1;
    }
}

// ---------------------------------------------------------------------
// JSON writer
// ---------------------------------------------------------------------

namespace {

/// Doubles with every significant digit: JSON numbers round-trip.
std::string
json_number(double value)
{
    std::ostringstream os;
    os.precision(17);
    os << value;
    return os.str();
}

}  // namespace

std::string
json_escape(const std::string& text)
{
    std::string out;
    out.reserve(text.size() + 2);
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buffer[8];
                std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buffer;
            } else {
                out.push_back(c);
            }
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------

void
Snapshot::merge(const Snapshot& other)
{
    for (const auto& [name, histogram] : other.histograms) {
        histograms[name].merge(histogram);
    }
    for (const auto& [name, histogram] : other.windows) {
        windows[name].merge(histogram);
    }
    for (const auto& [name, value] : other.counters) {
        counters[name] += value;
    }
    // Gauges are instantaneous, not additive: the merged-in snapshot's
    // reading wins where both carry the name.
    for (const auto& [name, value] : other.gauges) {
        gauges[name] = value;
    }
}

namespace {

/// One `"name":{histogram fields}` table — shared by the cumulative
/// and window sections of the JSON document.
void
write_histogram_table(std::ostream& os,
                      const std::map<std::string, Histogram>& table)
{
    bool first = true;
    for (const auto& [name, histogram] : table) {
        if (!first) os << ",";
        first = false;
        os << "\n\"" << json_escape(name) << "\":{"
           << "\"count\":" << histogram.count()
           << ",\"sum\":" << json_number(histogram.sum())
           << ",\"min\":" << json_number(histogram.min())
           << ",\"max\":" << json_number(histogram.max())
           << ",\"p50\":" << json_number(histogram.percentile(50))
           << ",\"p90\":" << json_number(histogram.percentile(90))
           << ",\"p99\":" << json_number(histogram.percentile(99))
           << ",\"buckets\":[";
        bool first_bucket = true;
        for (const auto& bucket : histogram.buckets()) {
            if (!first_bucket) os << ",";
            first_bucket = false;
            os << "[" << bucket.index << "," << bucket.count << ","
               << json_number(bucket.sum) << "]";
        }
        os << "]}";
    }
}

}  // namespace

void
Snapshot::write_json(std::ostream& os) const
{
    os << "{\"schema_version\":" << kSchemaVersion
       << ",\n\"histograms\":{";
    write_histogram_table(os, histograms);
    os << "},\n\"windows\":{";
    write_histogram_table(os, windows);
    os << "},\n\"window_seconds\":" << window_seconds
       << ",\n\"counters\":{";
    bool first = true;
    for (const auto& [name, value] : counters) {
        if (!first) os << ",";
        first = false;
        os << "\n\"" << json_escape(name)
           << "\":" << json_number(value);
    }
    os << "},\n\"gauges\":{";
    first = true;
    for (const auto& [name, value] : gauges) {
        if (!first) os << ",";
        first = false;
        os << "\n\"" << json_escape(name)
           << "\":" << json_number(value);
    }
    os << "}}\n";
}

std::string
Snapshot::to_json() const
{
    std::ostringstream os;
    write_json(os);
    return os.str();
}

void
Snapshot::write_csv(std::ostream& os) const
{
    Table table({"kind", "name", "count", "min", "mean", "p50", "p90",
                 "p99", "max", "sum"});
    for (const auto& [name, histogram] : histograms) {
        table.add_row(
            {"histogram", name,
             Table::fmt(static_cast<long long>(histogram.count())),
             Table::fmt(histogram.min(), 4),
             Table::fmt(histogram.mean(), 4),
             Table::fmt(histogram.percentile(50), 4),
             Table::fmt(histogram.percentile(90), 4),
             Table::fmt(histogram.percentile(99), 4),
             Table::fmt(histogram.max(), 4),
             Table::fmt(histogram.sum(), 4)});
    }
    for (const auto& [name, histogram] : windows) {
        table.add_row(
            {"window", name,
             Table::fmt(static_cast<long long>(histogram.count())),
             Table::fmt(histogram.min(), 4),
             Table::fmt(histogram.mean(), 4),
             Table::fmt(histogram.percentile(50), 4),
             Table::fmt(histogram.percentile(90), 4),
             Table::fmt(histogram.percentile(99), 4),
             Table::fmt(histogram.max(), 4),
             Table::fmt(histogram.sum(), 4)});
    }
    for (const auto& [name, value] : counters) {
        table.add_row({"counter", name, "", "", "", "", "", "", "",
                       Table::fmt(value, 4)});
    }
    for (const auto& [name, value] : gauges) {
        table.add_row({"gauge", name, "", "", "", "", "", "", "",
                       Table::fmt(value, 4)});
    }
    table.print_csv(os);
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

void
Registry::observe(const std::string& name, double value)
{
    const auto now = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    histograms_[name].record(value);
    windows_[name].record(value, now);
}

void
Registry::add(const std::string& name, double delta)
{
    std::lock_guard<std::mutex> lock(mutex_);
    counters_[name] += delta;
}

void
Registry::set_gauge(const std::string& name, double value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    gauges_[name] = value;
}

Snapshot
Registry::snapshot() const
{
    const auto now = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    Snapshot snapshot;
    snapshot.histograms = histograms_;
    for (const auto& [name, rolling] : windows_) {
        snapshot.windows[name] = rolling.window(now);
    }
    snapshot.counters = counters_;
    snapshot.gauges = gauges_;
    return snapshot;
}

void
Registry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    histograms_.clear();
    windows_.clear();
    counters_.clear();
    gauges_.clear();
}

Registry&
global()
{
    static Registry registry;
    return registry;
}

}  // namespace caqr::util::metrics
