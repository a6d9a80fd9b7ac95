/**
 * @file
 * Aggregated run metrics: log-bucketed histograms, counters and gauges.
 *
 * The trace layer (`util/trace.h`) answers "where did the time go
 * inside this run" — spans on a timeline. This module is the one
 * counter system: pass counters (QS-CaQR steps, SWAPs a routing trial
 * added, pruned layout trials) and the fleet question, "what is the
 * *distribution* of a metric across many requests" — per-request
 * compile latency, per-stage timings, simulator shots/sec, SWAP
 * counts — without keeping one record per request.
 *
 *  - **Histogram** — a sparse logarithmically-bucketed histogram
 *    (`kBucketsPerOctave` buckets per power of two, relative bucket
 *    width ~9%). Each bucket keeps a count *and* the exact sum of the
 *    samples that landed in it, so `percentile()` reports the mean of
 *    the rank's bucket: exact whenever the samples in that bucket are
 *    equal (constant and well-separated distributions), and within
 *    half a bucket width (< ~4.5% relative) otherwise. `merge()` is
 *    bucket-wise addition — associative and commutative — so per-shard
 *    histograms combine into fleet totals losslessly.
 *  - **Registry** — a mutex-guarded name → histogram/counter table.
 *    `global()` is the process-wide instance the compiler passes and
 *    the simulator record into; `caqr::Service` owns a private one per
 *    instance. Unlike tracing, recording is always on: a few
 *    observations per pass, trial or request (never per gate) are
 *    noise next to a compile.
 *  - **Snapshot** — a frozen copy of a registry with schema-versioned
 *    JSON export (`to_json`, every double at 17 significant digits)
 *    and a CSV summary. `BENCH_caqr.json` and the `--serve` `stats`
 *    command are rendered from snapshots.
 */
#ifndef CAQR_UTIL_METRICS_H
#define CAQR_UTIL_METRICS_H

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>


namespace caqr::util::metrics {

/**
 * Sparse log-bucketed histogram over positive samples (non-positive
 * samples share one dedicated bucket; non-finite samples are dropped).
 * Not thread-safe — `Registry` provides the locking.
 */
class Histogram
{
  public:
    /// Buckets per power of two. 8 gives bucket edges 2^(k/8), i.e. a
    /// ~9.05% wide bucket and <= ~4.5% error on interpolated ranks.
    static constexpr int kBucketsPerOctave = 8;

    /// Bucket key shared by every sample <= 0 (timings are positive;
    /// quality metrics like SWAP counts can legitimately be zero).
    static constexpr int kNonPositiveBucket =
        std::numeric_limits<int>::min();

    /// Count and exact sample sum of one bucket, keyed by index.
    struct Bucket
    {
        int index = 0;
        std::size_t count = 0;
        double sum = 0.0;
    };

    /// Bucket key for a positive sample: floor(log2(v) * 8).
    static int bucket_index(double value);

    /// Adds one sample. NaN/inf are ignored.
    void record(double value);

    /// Bucket-wise addition of @p other into this histogram.
    /// Associative and commutative; min/max combine exactly.
    void merge(const Histogram& other);

    std::size_t count() const { return count_; }
    double sum() const { return sum_; }
    /// Exact smallest/largest recorded sample (0 when empty).
    double min() const { return count_ == 0 ? 0.0 : min_; }
    double max() const { return count_ == 0 ? 0.0 : max_; }
    double mean() const
    {
        return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
    }

    /**
     * Nearest-rank percentile for @p p in [0, 100]: the mean of the
     * bucket holding rank ceil(p/100 * count), clamped to [min, max].
     * p <= 0 returns min, p >= 100 returns max, empty returns 0.
     */
    double percentile(double p) const;

    /// Buckets in ascending index order (the serialization surface).
    std::vector<Bucket> buckets() const;

  private:
    struct Cell
    {
        std::size_t count = 0;
        double sum = 0.0;
    };

    std::map<int, Cell> buckets_;
    std::size_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Time-bucketed sliding-window histogram: a ring of `kSlots` slots of
 * `kSlotSeconds` each (12 x 5s = the last minute). Recording lands in
 * the slot owning the current wall tick, lazily resetting slots whose
 * epoch has rotated out, so stale data ages out without a sweeper
 * thread. `window()` merges the live slots into one plain `Histogram`
 * — "p99 over the last minute" — while the cumulative histogram next
 * to it keeps the lifetime view. Not thread-safe; `Registry` provides
 * the locking.
 */
class RollingHistogram
{
  public:
    static constexpr int kSlots = 12;
    static constexpr int kSlotSeconds = 5;

    /// Adds one sample to the slot owning @p now.
    void record(double value, std::chrono::steady_clock::time_point now);

    /// Merge of every slot still inside the window ending at @p now.
    Histogram window(std::chrono::steady_clock::time_point now) const;

    void reset();

  private:
    static std::int64_t
    epoch_of(std::chrono::steady_clock::time_point now)
    {
        return std::chrono::duration_cast<std::chrono::seconds>(
                   now.time_since_epoch())
                   .count() /
               kSlotSeconds;
    }

    struct Slot
    {
        std::int64_t epoch = -1;  ///< -1 = never written
        Histogram histogram;
    };

    std::array<Slot, kSlots> slots_;
};

/// Frozen copy of a registry; the unit of export and merging.
struct Snapshot
{
    /// Bumped when the JSON layout changes.
    static constexpr int kSchemaVersion = 1;

    std::map<std::string, Histogram> histograms;
    std::map<std::string, double> counters;

    /// Sliding-window views frozen at snapshot time, keyed like
    /// `histograms` — `windows["service.total_ms"].percentile(99)` is
    /// the live p99 over the last `window_seconds`.
    std::map<std::string, Histogram> windows;

    /// Last-write-wins instantaneous values (queue depth, sessions).
    std::map<std::string, double> gauges;

    /// Width of the window views in seconds.
    int window_seconds = RollingHistogram::kSlots *
                         RollingHistogram::kSlotSeconds;

    /// Merges @p other in: histograms and windows bucket-wise,
    /// counters by sum, gauges by overwrite (last write wins).
    void merge(const Snapshot& other);

    /// JSON document: schema_version, per-histogram buckets + derived
    /// count/sum/min/max/p50/p90/p99, counters. Doubles are printed
    /// with 17 significant digits, so they read back bit-exactly.
    void write_json(std::ostream& os) const;
    std::string to_json() const;

    /// One row per histogram (count/min/mean/p50/p90/p99/max/sum) and
    /// per counter.
    void write_csv(std::ostream& os) const;
};

/**
 * Thread-safe name → histogram/counter table. Recording is one mutex
 * acquisition plus a map lookup — meant for per-request and
 * per-invocation observations. Hot loops tally in local integers and
 * add the totals once when the loop ends.
 */
class Registry
{
  public:
    /// Adds @p value to the named histogram (created on first use) and
    /// to its sliding-window companion.
    void observe(const std::string& name, double value);

    /// Adds @p delta to the named counter (created at 0).
    void add(const std::string& name, double delta);

    /// Sets the named gauge to @p value (last write wins).
    void set_gauge(const std::string& name, double value);

    /// Consistent copy of everything recorded so far; window views are
    /// frozen as of the call.
    Snapshot snapshot() const;

    /// Discards all histograms, windows, counters, and gauges.
    void reset();

  private:
    mutable std::mutex mutex_;
    std::map<std::string, Histogram> histograms_;
    std::map<std::string, RollingHistogram> windows_;
    std::map<std::string, double> counters_;
    std::map<std::string, double> gauges_;
};

/// Escapes @p text for a JSON string body: quote, backslash, and every
/// control byte (`\n`, `\r` and `\t` by name, the rest as `\u00XX`).
/// The one escaper of every JSON writer — snapshots, Chrome traces and
/// the serving telemetry.
std::string json_escape(const std::string& text);

/// Process-wide registry for pass and simulator instrumentation (e.g.
/// `qs_caqr.steps`, `router.swaps_added`, `sim.shots_per_sec`). Always
/// recording.
Registry& global();

}  // namespace caqr::util::metrics

#endif  // CAQR_UTIL_METRICS_H
