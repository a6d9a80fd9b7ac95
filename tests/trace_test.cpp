/// Tests for the util::trace observability layer: span recording, the
/// Chrome-trace exporter, and per-request capture.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/benchmarks.h"
#include "core/qs_caqr.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace caqr {
namespace {

namespace trace = util::trace;

/// Every test runs against clean, enabled global trace state and
/// leaves tracing off for the rest of the process.
class TraceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        trace::reset();
        trace::set_enabled(true);
    }

    void
    TearDown() override
    {
        trace::set_enabled(false);
        trace::reset();
    }
};

/// The global trace as exported by write_chrome_trace.
std::string
chrome_trace()
{
    std::ostringstream os;
    trace::write_chrome_trace(os);
    return os.str();
}

/// Number of exported events named @p name.
std::size_t
count_spans(const std::string& json, const std::string& name)
{
    const std::string needle = "\"name\":\"" + name + "\"";
    std::size_t count = 0;
    for (auto pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + needle.size())) {
        ++count;
    }
    return count;
}

TEST_F(TraceTest, SpanIsRecordedOncePerScope)
{
    for (int i = 0; i < 3; ++i) {
        trace::Span span("unit.pass");
    }
    EXPECT_EQ(count_spans(chrome_trace(), "unit.pass"), 3u);
}

TEST_F(TraceTest, DisabledRecordingIsInert)
{
    trace::set_enabled(false);
    {
        trace::Span span("unit.ignored");
        EXPECT_DOUBLE_EQ(span.elapsed_ms(), 0.0);
    }
    EXPECT_EQ(count_spans(chrome_trace(), "unit.ignored"), 0u);
}

TEST_F(TraceTest, ChromeTraceExportIsWellFormed)
{
    {
        trace::Span span("unit.export");
    }
    const std::string json = chrome_trace();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"unit.export\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    // Truncation stays visible: the summary carries the dropped count.
    EXPECT_NE(json.find("\"caqr_trace\":{\"events\":1,\"dropped\":0}"),
              std::string::npos)
        << json;
}

TEST_F(TraceTest, ConcurrentSpansAreAllRecorded)
{
    util::ThreadPool pool(3);
    pool.map(64, [](std::size_t) {
        trace::Span span("unit.worker");
        return 0;
    });
    EXPECT_EQ(count_spans(chrome_trace(), "unit.worker"), 64u);
}

TEST_F(TraceTest, ResetDiscardsEverything)
{
    {
        trace::Span span("unit.gone");
    }
    trace::reset();
    EXPECT_EQ(count_spans(chrome_trace(), "unit.gone"), 0u);
}

// ---------------------------------------------------------------------
// Request context propagation and per-request capture
// ---------------------------------------------------------------------

TEST_F(TraceTest, RequestScopeTagsGlobalSpansWithRequestId)
{
    trace::RequestContext ctx;
    ctx.id = 7;
    {
        trace::RequestScope scope(&ctx, nullptr);
        trace::Span span("unit.tagged");
    }
    {
        trace::Span span("unit.untagged");
    }
    std::ostringstream os;
    trace::write_chrome_trace(os);
    const std::string json = os.str();
    const auto tagged = json.find("\"name\":\"unit.tagged\"");
    ASSERT_NE(tagged, std::string::npos);
    const auto tagged_end = json.find('}', tagged);
    EXPECT_NE(json.substr(tagged, tagged_end - tagged).find("\"req\":7"),
              std::string::npos)
        << json.substr(tagged, tagged_end - tagged);
    const auto untagged = json.find("\"name\":\"unit.untagged\"");
    ASSERT_NE(untagged, std::string::npos);
    const auto untagged_end = json.find('}', untagged);
    EXPECT_EQ(
        json.substr(untagged, untagged_end - untagged).find("\"req\""),
        std::string::npos);
}

/// The always-on contract: a bound capture records spans even with
/// the global trace switch off — slow-request capture must not
/// require globally enabled tracing.
TEST_F(TraceTest, CaptureRecordsWithGlobalTracingDisabled)
{
    trace::set_enabled(false);
    trace::RequestContext ctx;
    ctx.id = 3;
    trace::RequestCapture capture(ctx.id);
    {
        trace::RequestScope scope(&ctx, &capture);
        trace::Span span("unit.captured");
    }
    EXPECT_EQ(capture.span_count(), 1u);
    EXPECT_TRUE(capture.has_span("unit.captured"));
    EXPECT_EQ(capture.dropped(), 0u);

    // The global sink saw nothing.
    EXPECT_EQ(count_spans(chrome_trace(), "unit.captured"), 0u);

    std::ostringstream os;
    capture.write_chrome_trace(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"name\":\"unit.captured\""),
              std::string::npos);
    EXPECT_NE(json.find("\"caqr_request\":{\"id\":3"),
              std::string::npos);
}

/// The QS-CaQR pass span reaches a bound capture with the global switch
/// off, so a slow QS request's artifact names the pass that used the
/// time.
TEST_F(TraceTest, CaptureHoldsQsCaqrSpanWithGlobalTracingDisabled)
{
    trace::set_enabled(false);
    trace::RequestContext ctx;
    ctx.id = 5;
    trace::RequestCapture capture(ctx.id);
    {
        trace::RequestScope scope(&ctx, &capture);
        ASSERT_TRUE(core::qs_caqr_or(apps::bv_circuit(8)).ok());
    }
    EXPECT_TRUE(capture.has_span("qs_caqr"));
}

/// `sampled = false` opts the request out: the capture stays empty
/// even though it was passed to the scope.
TEST_F(TraceTest, UnsampledRequestCapturesNothing)
{
    trace::RequestContext ctx;
    ctx.id = 4;
    ctx.sampled = false;
    trace::RequestCapture capture(ctx.id);
    {
        trace::RequestScope scope(&ctx, &capture);
        trace::Span span("unit.unsampled");
    }
    EXPECT_EQ(capture.span_count(), 0u);
    EXPECT_FALSE(capture.has_span("unit.unsampled"));
}

/// Scopes nest and restore: pool workers rebind per task, and the
/// previous binding comes back when the inner scope dies.
TEST_F(TraceTest, RequestScopeNestsAndRestores)
{
    trace::RequestContext outer_ctx;
    outer_ctx.id = 10;
    trace::RequestContext inner_ctx;
    inner_ctx.id = 11;
    trace::RequestCapture outer(outer_ctx.id);
    trace::RequestCapture inner(inner_ctx.id);

    EXPECT_EQ(trace::current_request(), nullptr);
    {
        trace::RequestScope outer_scope(&outer_ctx, &outer);
        ASSERT_NE(trace::current_request(), nullptr);
        EXPECT_EQ(trace::current_request()->id, 10u);
        {
            trace::RequestScope inner_scope(&inner_ctx, &inner);
            EXPECT_EQ(trace::current_request()->id, 11u);
            trace::Span span("unit.inner");
        }
        EXPECT_EQ(trace::current_request()->id, 10u);
        trace::Span span("unit.outer");
    }
    EXPECT_EQ(trace::current_request(), nullptr);
    EXPECT_EQ(trace::current_capture(), nullptr);

    EXPECT_TRUE(inner.has_span("unit.inner"));
    EXPECT_FALSE(inner.has_span("unit.outer"));
    EXPECT_TRUE(outer.has_span("unit.outer"));
    EXPECT_FALSE(outer.has_span("unit.inner"));
}

/// Concurrent pool workers bound to different requests never bleed
/// spans into each other's captures.
TEST_F(TraceTest, ConcurrentCapturesStayIsolated)
{
    constexpr int kRequests = 4;
    constexpr int kSpansEach = 32;
    std::vector<trace::RequestContext> contexts(kRequests);
    std::vector<std::unique_ptr<trace::RequestCapture>> captures;
    for (int r = 0; r < kRequests; ++r) {
        contexts[r].id = static_cast<std::uint64_t>(100 + r);
        captures.push_back(std::make_unique<trace::RequestCapture>(
            contexts[r].id));
    }

    util::ThreadPool pool(4);
    pool.map(kRequests, [&](std::size_t r) {
        trace::RequestScope scope(&contexts[r], captures[r].get());
        for (int i = 0; i < kSpansEach; ++i) {
            trace::Span span("unit.req" + std::to_string(r));
        }
        return 0;
    });

    for (int r = 0; r < kRequests; ++r) {
        EXPECT_EQ(captures[r]->span_count(),
                  static_cast<std::size_t>(kSpansEach))
            << "request " << r;
        EXPECT_TRUE(
            captures[r]->has_span("unit.req" + std::to_string(r)));
        for (int other = 0; other < kRequests; ++other) {
            if (other == r) continue;
            EXPECT_FALSE(captures[r]->has_span(
                "unit.req" + std::to_string(other)))
                << "request " << r << " holds spans of " << other;
        }
    }
}

/// The span cap holds: past kMaxSpans new spans are counted as
/// dropped, not stored.
TEST_F(TraceTest, CaptureCapsSpansAndCountsDrops)
{
    trace::RequestCapture capture(1);
    const auto start = std::chrono::steady_clock::now();
    const std::size_t attempts = trace::RequestCapture::kMaxSpans + 5;
    for (std::size_t i = 0; i < attempts; ++i) {
        capture.record("unit.flood", start, 1.0);
    }
    EXPECT_EQ(capture.span_count(), trace::RequestCapture::kMaxSpans);
    EXPECT_EQ(capture.dropped(), 5u);

    std::ostringstream os;
    capture.write_chrome_trace(os);
    EXPECT_NE(os.str().find("\"dropped\":5"), std::string::npos);
}

}  // namespace
}  // namespace caqr
