/**
 * @file
 * Tests for the metrics registry: histogram percentile math on known
 * distributions, empty/single-sample edge cases, associativity of
 * merge, the pinned JSON export, registry thread safety, and the
 * service-level wiring (per-request latency distributions instead of
 * last-write-wins gauges).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

#include "apps/benchmarks.h"
#include "service/service.h"
#include "util/metrics.h"

namespace {

using namespace caqr;
using util::metrics::Histogram;
using util::metrics::Registry;
using util::metrics::Snapshot;

// ---------------------------------------------------------------------
// Histogram percentile math
// ---------------------------------------------------------------------

TEST(Histogram, EmptyIsSafe)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0.0);
    EXPECT_EQ(h.min(), 0.0);
    EXPECT_EQ(h.max(), 0.0);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.percentile(50), 0.0);
    EXPECT_EQ(h.percentile(0), 0.0);
    EXPECT_EQ(h.percentile(100), 0.0);
    EXPECT_TRUE(h.buckets().empty());
}

TEST(Histogram, SingleSampleIsEveryPercentile)
{
    Histogram h;
    h.record(3.7);
    EXPECT_EQ(h.count(), 1u);
    for (double p : {0.0, 1.0, 50.0, 90.0, 99.0, 100.0}) {
        EXPECT_DOUBLE_EQ(h.percentile(p), 3.7) << "p" << p;
    }
    EXPECT_DOUBLE_EQ(h.min(), 3.7);
    EXPECT_DOUBLE_EQ(h.max(), 3.7);
    EXPECT_DOUBLE_EQ(h.mean(), 3.7);
}

TEST(Histogram, ConstantDistributionIsExact)
{
    Histogram h;
    for (int i = 0; i < 1000; ++i) h.record(42.0);
    EXPECT_DOUBLE_EQ(h.percentile(50), 42.0);
    EXPECT_DOUBLE_EQ(h.percentile(90), 42.0);
    EXPECT_DOUBLE_EQ(h.percentile(99), 42.0);
    EXPECT_DOUBLE_EQ(h.max(), 42.0);
    EXPECT_DOUBLE_EQ(h.sum(), 42000.0);
}

/// Samples more than one bucket width apart each occupy their own
/// bucket, and the per-bucket sample sums make their percentiles
/// *exact*, not approximations.
TEST(Histogram, WellSeparatedDistributionHitsExactPercentiles)
{
    // 100 samples: 50 at 1ms, 40 at 10ms, 9 at 100ms, 1 at 1000ms —
    // nearest-rank: p50 -> rank 50 (1ms), p90 -> rank 90 (10ms),
    // p99 -> rank 99 (100ms), p100 -> 1000ms.
    Histogram h;
    for (int i = 0; i < 50; ++i) h.record(1.0);
    for (int i = 0; i < 40; ++i) h.record(10.0);
    for (int i = 0; i < 9; ++i) h.record(100.0);
    h.record(1000.0);

    EXPECT_DOUBLE_EQ(h.percentile(50), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(90), 10.0);
    EXPECT_DOUBLE_EQ(h.percentile(99), 100.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 1000.0);
    EXPECT_DOUBLE_EQ(h.percentile(0), 1.0);
    EXPECT_EQ(h.count(), 100u);
}

TEST(Histogram, UniformDistributionWithinBucketError)
{
    // Uniform 1..1000: bucketed percentiles must land within the
    // documented half-bucket relative error (2^(1/8) buckets -> ~4.5%,
    // asserted at 5%).
    Histogram h;
    for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
    EXPECT_NEAR(h.percentile(50), 500.0, 500.0 * 0.05);
    EXPECT_NEAR(h.percentile(90), 900.0, 900.0 * 0.05);
    EXPECT_NEAR(h.percentile(99), 990.0, 990.0 * 0.05);
    EXPECT_DOUBLE_EQ(h.max(), 1000.0);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
}

TEST(Histogram, NonPositiveAndNonFiniteSamples)
{
    Histogram h;
    h.record(0.0);
    h.record(-5.0);
    h.record(2.0);
    h.record(std::nan(""));                          // dropped
    h.record(std::numeric_limits<double>::infinity());  // dropped
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.min(), -5.0);
    EXPECT_DOUBLE_EQ(h.max(), 2.0);
    // Ranks 1-2 share the non-positive bucket (mean -2.5).
    EXPECT_DOUBLE_EQ(h.percentile(50), -2.5);
    EXPECT_DOUBLE_EQ(h.percentile(100), 2.0);
}

// ---------------------------------------------------------------------
// Merge
// ---------------------------------------------------------------------

Histogram
make_histogram(const std::vector<double>& values)
{
    Histogram h;
    for (double v : values) h.record(v);
    return h;
}

std::string
fingerprint(const Histogram& h)
{
    std::ostringstream os;
    os.precision(17);
    os << h.count() << '|' << h.sum() << '|' << h.min() << '|' << h.max();
    for (const auto& bucket : h.buckets()) {
        os << '|' << bucket.index << ':' << bucket.count << ':'
           << bucket.sum;
    }
    return os.str();
}

TEST(Histogram, MergeIsAssociativeAndCommutative)
{
    // Integer-valued samples: bucket sums stay exact in double, so
    // associativity holds bit-for-bit.
    const auto a = make_histogram({1.0, 2.0, 3.0, 100.0});
    const auto b = make_histogram({4.0, 4.0, 50.0});
    const auto c = make_histogram({0.0, 7.0, 1000.0, 1000.0});

    Histogram ab = a;
    ab.merge(b);
    Histogram ab_c = ab;
    ab_c.merge(c);

    Histogram bc = b;
    bc.merge(c);
    Histogram a_bc = a;
    a_bc.merge(bc);

    EXPECT_EQ(fingerprint(ab_c), fingerprint(a_bc));

    Histogram ba = b;
    ba.merge(a);
    EXPECT_EQ(fingerprint(ab), fingerprint(ba));

    // Merge equals recording the union directly.
    const auto direct = make_histogram(
        {1.0, 2.0, 3.0, 100.0, 4.0, 4.0, 50.0, 0.0, 7.0, 1000.0, 1000.0});
    EXPECT_EQ(fingerprint(ab_c), fingerprint(direct));
}

TEST(Histogram, MergeWithEmptyIsIdentity)
{
    const auto a = make_histogram({1.0, 10.0, 100.0});
    Histogram merged = a;
    merged.merge(Histogram{});
    EXPECT_EQ(fingerprint(merged), fingerprint(a));

    Histogram onto_empty;
    onto_empty.merge(a);
    EXPECT_EQ(fingerprint(onto_empty), fingerprint(a));
}

// ---------------------------------------------------------------------
// Snapshot JSON export
// ---------------------------------------------------------------------

/// The exact `write_json` document: section order, 17-digit doubles,
/// derived percentiles, bucket rows, and the non-positive bucket key.
TEST(Snapshot, JsonExportIsPinned)
{
    Snapshot snapshot;
    for (const double v : {1.0, 10.0, 10.0, 100.0}) {
        snapshot.histograms["latency_ms"].record(v);
    }
    snapshot.histograms["swaps"].record(0.0);
    snapshot.histograms["swaps"].record(29.0);
    snapshot.windows["latency_ms"].record(2.5);
    snapshot.counters["requests"] = 100.0;
    snapshot.counters["ratio"] = 0.1;
    snapshot.gauges["sessions"] = 4.0;

    EXPECT_EQ(
        snapshot.to_json(),
        "{\"schema_version\":1,\n"
        "\"histograms\":{\n"
        "\"latency_ms\":{\"count\":4,\"sum\":121,\"min\":1,\"max\":100,"
        "\"p50\":10,\"p90\":100,\"p99\":100,"
        "\"buckets\":[[0,1,1],[26,2,20],[53,1,100]]},\n"
        "\"swaps\":{\"count\":2,\"sum\":29,\"min\":0,\"max\":29,"
        "\"p50\":0,\"p90\":29,\"p99\":29,"
        "\"buckets\":[[-2147483648,1,0],[38,1,29]]}},\n"
        "\"windows\":{\n"
        "\"latency_ms\":{\"count\":1,\"sum\":2.5,\"min\":2.5,\"max\":2.5,"
        "\"p50\":2.5,\"p90\":2.5,\"p99\":2.5,\"buckets\":[[10,1,2.5]]}},\n"
        "\"window_seconds\":60,\n"
        "\"counters\":{\n"
        "\"ratio\":0.10000000000000001,\n"
        "\"requests\":100},\n"
        "\"gauges\":{\n"
        "\"sessions\":4}}\n");
}

/// Names with a carriage return and a raw control byte come out
/// escaped, so the document stays valid JSON.
TEST(Snapshot, JsonExportEscapesControlBytes)
{
    Snapshot snapshot;
    snapshot.counters["c\"q\"\r\x01"] = 1.0;
    snapshot.histograms["h\r\x01"].record(1.0);
    const std::string json = snapshot.to_json();
    EXPECT_NE(json.find("\n\"c\\\"q\\\"\\r\\u0001\":1"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\n\"h\\r\\u0001\":{"), std::string::npos) << json;
    for (const char c : json) {
        EXPECT_TRUE(c == '\n' || static_cast<unsigned char>(c) >= 0x20)
            << "raw control byte " << static_cast<int>(c);
    }
}

TEST(Snapshot, MergeCombinesHistogramsAndCounters)
{
    Registry a;
    a.observe("latency_ms", 1.0);
    a.add("requests", 2.0);
    Registry b;
    b.observe("latency_ms", 100.0);
    b.observe("other", 5.0);
    b.add("requests", 3.0);

    Snapshot merged = a.snapshot();
    merged.merge(b.snapshot());
    EXPECT_EQ(merged.histograms.at("latency_ms").count(), 2u);
    EXPECT_DOUBLE_EQ(merged.histograms.at("latency_ms").max(), 100.0);
    EXPECT_EQ(merged.histograms.at("other").count(), 1u);
    EXPECT_DOUBLE_EQ(merged.counters.at("requests"), 5.0);
}

TEST(Snapshot, CsvListsHistogramsAndCounters)
{
    Registry registry;
    registry.observe("latency_ms", 2.0);
    registry.add("requests", 1.0);
    std::ostringstream os;
    registry.snapshot().write_csv(os);
    const std::string csv = os.str();
    EXPECT_NE(csv.find("histogram"), std::string::npos);
    EXPECT_NE(csv.find("latency_ms"), std::string::npos);
    EXPECT_NE(csv.find("counter"), std::string::npos);
    EXPECT_NE(csv.find("requests"), std::string::npos);
}

// ---------------------------------------------------------------------
// Rolling windows and gauges
// ---------------------------------------------------------------------

using util::metrics::RollingHistogram;
using TimePoint = std::chrono::steady_clock::time_point;

TEST(RollingHistogram, WindowCoversRecentSlotsOnly)
{
    RollingHistogram rolling;
    const TimePoint t0{std::chrono::seconds(1000)};
    rolling.record(1.0, t0);
    rolling.record(2.0, t0 + std::chrono::seconds(7));
    rolling.record(3.0, t0 + std::chrono::seconds(14));

    // All three slots are inside the 60 s window.
    const auto now = t0 + std::chrono::seconds(14);
    const auto window = rolling.window(now);
    EXPECT_EQ(window.count(), 3u);
    EXPECT_DOUBLE_EQ(window.min(), 1.0);
    EXPECT_DOUBLE_EQ(window.max(), 3.0);

    // 60 s later only samples recorded since then remain.
    const auto later = t0 + std::chrono::seconds(75);
    EXPECT_EQ(rolling.window(later).count(), 0u);
    rolling.record(9.0, later);
    const auto fresh = rolling.window(later);
    EXPECT_EQ(fresh.count(), 1u);
    EXPECT_DOUBLE_EQ(fresh.max(), 9.0);
}

/// A slot revisited exactly kSlots epochs later must forget its old
/// samples (lazy epoch-keyed reset), not blend two generations.
TEST(RollingHistogram, SlotReuseDropsTheOldGeneration)
{
    RollingHistogram rolling;
    const TimePoint t0{std::chrono::seconds(500)};
    rolling.record(100.0, t0);

    const auto wrap =
        t0 + std::chrono::seconds(RollingHistogram::kSlots *
                                  RollingHistogram::kSlotSeconds);
    rolling.record(1.0, wrap);
    const auto window = rolling.window(wrap);
    EXPECT_EQ(window.count(), 1u);
    EXPECT_DOUBLE_EQ(window.max(), 1.0);
}

TEST(RollingHistogram, ResetForgetsEverything)
{
    RollingHistogram rolling;
    const TimePoint t0{std::chrono::seconds(42)};
    rolling.record(5.0, t0);
    rolling.reset();
    EXPECT_EQ(rolling.window(t0).count(), 0u);
}

TEST(Registry, ObservationsFeedTheRollingWindow)
{
    Registry registry;
    registry.observe("latency_ms", 4.0);
    registry.observe("latency_ms", 8.0);

    const auto snapshot = registry.snapshot();
    ASSERT_TRUE(snapshot.windows.count("latency_ms"));
    const auto& window = snapshot.windows.at("latency_ms");
    EXPECT_EQ(window.count(), 2u);
    EXPECT_DOUBLE_EQ(window.max(), 8.0);
    EXPECT_GT(window.percentile(99), 0.0);
    EXPECT_EQ(snapshot.window_seconds,
              RollingHistogram::kSlots * RollingHistogram::kSlotSeconds);

    // The cumulative histogram and the window agree while everything
    // is recent.
    EXPECT_EQ(snapshot.histograms.at("latency_ms").count(),
              window.count());
}

TEST(Registry, GaugesAreLastWriteWinsAndSnapshot)
{
    Registry registry;
    registry.set_gauge("queue_depth", 3.0);
    registry.set_gauge("queue_depth", 1.0);
    registry.set_gauge("sessions", 7.0);

    const auto snapshot = registry.snapshot();
    EXPECT_DOUBLE_EQ(snapshot.gauges.at("queue_depth"), 1.0);
    EXPECT_DOUBLE_EQ(snapshot.gauges.at("sessions"), 7.0);

    registry.reset();
    EXPECT_TRUE(registry.snapshot().gauges.empty());
    EXPECT_TRUE(registry.snapshot().windows.empty());
}

// ---------------------------------------------------------------------
// Registry behavior
// ---------------------------------------------------------------------

TEST(Registry, ConcurrentObservationsAllLand)
{
    Registry registry;
    constexpr int kThreads = 8;
    constexpr int kPerThread = 1000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&registry]() {
            for (int i = 0; i < kPerThread; ++i) {
                registry.observe("latency_ms", 1.0);
                registry.add("requests", 1.0);
            }
        });
    }
    for (auto& thread : threads) thread.join();

    const auto snapshot = registry.snapshot();
    EXPECT_EQ(snapshot.histograms.at("latency_ms").count(),
              static_cast<std::size_t>(kThreads * kPerThread));
    EXPECT_DOUBLE_EQ(snapshot.counters.at("requests"),
                     static_cast<double>(kThreads * kPerThread));
}

TEST(Registry, ResetClears)
{
    Registry registry;
    registry.observe("latency_ms", 1.0);
    registry.add("requests", 1.0);
    registry.reset();
    const auto snapshot = registry.snapshot();
    EXPECT_TRUE(snapshot.histograms.empty());
    EXPECT_TRUE(snapshot.counters.empty());
}

// ---------------------------------------------------------------------
// Service wiring: distributions, not last-write-wins
// ---------------------------------------------------------------------

TEST(ServiceMetrics, BatchAggregatesPerRequestDistributions)
{
    Service service({.num_threads = 2});
    std::vector<CompileRequest> requests;
    for (int n : {4, 6, 8, 10}) {
        CompileRequest request;
        request.name = "bv_" + std::to_string(n);
        request.circuit = apps::bv_circuit(n);
        request.qs.num_threads = 1;
        request.transpile.num_threads = 1;
        requests.push_back(std::move(request));
    }
    const auto reports = service.compile_batch(requests);
    for (const auto& report : reports) {
        ASSERT_TRUE(report.ok()) << report.status.to_string();
    }

    const auto snapshot = service.metrics_snapshot();
    // Every request contributes one latency sample...
    ASSERT_TRUE(snapshot.histograms.count("service.total_ms"));
    EXPECT_EQ(snapshot.histograms.at("service.total_ms").count(), 4u);
    EXPECT_GT(snapshot.histograms.at("service.total_ms").percentile(50),
              0.0);
    // ...per-stage timing samples...
    ASSERT_TRUE(snapshot.histograms.count("service.stage.qs_caqr_ms"));
    EXPECT_EQ(snapshot.histograms.at("service.stage.qs_caqr_ms").count(),
              4u);
    // ...and quality distributions.
    EXPECT_EQ(snapshot.histograms.at("service.swaps").count(), 4u);
    EXPECT_EQ(snapshot.histograms.at("service.depth").count(), 4u);
    EXPECT_EQ(snapshot.histograms.at("service.esp").count(), 4u);
    EXPECT_DOUBLE_EQ(snapshot.counters.at("service.requests"), 4.0);
    EXPECT_EQ(snapshot.counters.count("service.failures"), 0u);

    // Failures are counted but do not pollute quality histograms.
    CompileRequest bad;
    bad.qasm = "OPENQASM 2.0;\nqreg q[1];\nfrobnicate q[0];\n";
    ASSERT_FALSE(service.compile(bad).ok());
    const auto after = service.metrics_snapshot();
    EXPECT_DOUBLE_EQ(after.counters.at("service.requests"), 5.0);
    EXPECT_DOUBLE_EQ(after.counters.at("service.failures"), 1.0);
    EXPECT_EQ(after.histograms.at("service.depth").count(), 4u);

    service.reset_metrics();
    const auto cleared = service.metrics_snapshot();
    EXPECT_EQ(cleared.histograms.count("service.total_ms"), 0u);
}

/// The satellite fix: in a batch every simulate() call lands in the
/// sim.shots_per_sec histogram — previously a last-write-wins gauge
/// where only the final circuit's value survived.
TEST(ServiceMetrics, ShotsPerSecIsADistributionAcrossBatch)
{
    util::metrics::global().reset();

    Service service({.num_threads = 1});
    std::vector<CompileRequest> requests;
    for (int n : {3, 4, 5}) {
        CompileRequest request;
        request.name = "bv_" + std::to_string(n);
        request.circuit = apps::bv_circuit(n);
        request.map_to_backend = false;
        request.simulate = true;
        request.sim.shots = 64;
        request.qs.num_threads = 1;
        requests.push_back(std::move(request));
    }
    const auto reports = service.compile_batch(requests);
    for (const auto& report : reports) {
        ASSERT_TRUE(report.ok()) << report.status.to_string();
        EXPECT_FALSE(report.counts.empty());
    }

    const auto snapshot = service.metrics_snapshot();
    ASSERT_TRUE(snapshot.histograms.count("sim.shots_per_sec"));
    const auto& histogram = snapshot.histograms.at("sim.shots_per_sec");
    EXPECT_EQ(histogram.count(), 3u);
    EXPECT_GT(histogram.percentile(50), 0.0);
    EXPECT_GE(histogram.max(), histogram.min());

    util::metrics::global().reset();
}

}  // namespace
