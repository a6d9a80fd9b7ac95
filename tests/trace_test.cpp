/// Tests for the util::trace observability layer: span recording, the
/// Chrome-trace exporter, and per-request capture.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <regex>
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
    const trace::RequestContext ctx{7, nullptr};
    {
        trace::RequestScope scope(&ctx);
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
    trace::RequestCapture capture(3);
    const trace::RequestContext ctx{3, &capture};
    {
        trace::RequestScope scope(&ctx);
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
    trace::RequestCapture capture(5);
    const trace::RequestContext ctx{5, &capture};
    {
        trace::RequestScope scope(&ctx);
        ASSERT_TRUE(core::qs_caqr_or(apps::bv_circuit(8)).ok());
    }
    EXPECT_TRUE(capture.has_span("qs_caqr"));
}

/// A request bound without a capture records nothing with the global
/// switch off: its spans stay inert.
TEST_F(TraceTest, RequestWithoutCaptureIsInertWithTracingDisabled)
{
    trace::set_enabled(false);
    const trace::RequestContext ctx{4, nullptr};
    {
        trace::RequestScope scope(&ctx);
        trace::Span span("unit.uncaptured");
        EXPECT_DOUBLE_EQ(span.elapsed_ms(), 0.0);
    }
    EXPECT_EQ(count_spans(chrome_trace(), "unit.uncaptured"), 0u);
}

/// Scopes nest and restore: the previous binding comes back when the
/// inner scope dies.
TEST_F(TraceTest, RequestScopeNestsAndRestores)
{
    trace::RequestCapture outer(10);
    trace::RequestCapture inner(11);
    const trace::RequestContext outer_ctx{10, &outer};
    const trace::RequestContext inner_ctx{11, &inner};

    EXPECT_EQ(trace::current_request(), nullptr);
    {
        trace::RequestScope outer_scope(&outer_ctx);
        ASSERT_NE(trace::current_request(), nullptr);
        EXPECT_EQ(trace::current_request()->id, 10u);
        {
            trace::RequestScope inner_scope(&inner_ctx);
            EXPECT_EQ(trace::current_request()->id, 11u);
            trace::Span span("unit.inner");
        }
        EXPECT_EQ(trace::current_request()->id, 10u);
        trace::Span span("unit.outer");
    }
    EXPECT_EQ(trace::current_request(), nullptr);

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
        contexts[r].capture = captures[r].get();
    }

    util::ThreadPool pool(4);
    pool.map(kRequests, [&](std::size_t r) {
        trace::RequestScope scope(&contexts[r]);
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
        capture.record("unit.flood", start, 1.0, 1);
    }
    EXPECT_EQ(capture.span_count(), trace::RequestCapture::kMaxSpans);
    EXPECT_EQ(capture.dropped(), 5u);

    std::ostringstream os;
    capture.write_chrome_trace(os);
    EXPECT_NE(os.str().find("\"dropped\":5"), std::string::npos);
}

/// @p json with the numbers of the named fields replaced by `_`, for
/// comparing exports whose timestamps (or thread ids, durations) vary.
std::string
mask_fields(const std::string& json, const std::string& fields)
{
    return std::regex_replace(
        json, std::regex("\"(" + fields + ")\":[0-9.e+-]+"), "\"$1\":_");
}

/// Both Chrome writers keep their exact bytes: event fields, the
/// request tag, and each summary key.
TEST_F(TraceTest, ChromeTracesKeepTheirBytes)
{
    trace::RequestCapture capture(9);
    const auto start = std::chrono::steady_clock::now();
    capture.record("unit.a", start, 1.5, 9);
    capture.record("unit.b", start, 2.0, 9);
    std::ostringstream request_json;
    capture.write_chrome_trace(request_json);
    EXPECT_EQ(mask_fields(request_json.str(), "ts"),
              "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
              "{\"name\":\"unit.a\",\"ph\":\"X\",\"pid\":1,\"tid\":0,"
              "\"ts\":_,\"dur\":1.5,\"args\":{\"req\":9}},\n"
              "{\"name\":\"unit.b\",\"ph\":\"X\",\"pid\":1,\"tid\":0,"
              "\"ts\":_,\"dur\":2,\"args\":{\"req\":9}}\n"
              "],\"caqr_request\":{\"id\":9,\"spans\":2,\"dropped\":0}}\n");

    const trace::RequestContext ctx{7, nullptr};
    {
        trace::RequestScope scope(&ctx);
        trace::Span span("unit.tagged");
    }
    {
        trace::Span span("unit.plain");
    }
    EXPECT_EQ(mask_fields(chrome_trace(), "tid|ts|dur"),
              "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
              "{\"name\":\"unit.tagged\",\"ph\":\"X\",\"pid\":1,\"tid\":_,"
              "\"ts\":_,\"dur\":_,\"args\":{\"req\":7}},\n"
              "{\"name\":\"unit.plain\",\"ph\":\"X\",\"pid\":1,\"tid\":_,"
              "\"ts\":_,\"dur\":_}\n"
              "],\"caqr_trace\":{\"events\":2,\"dropped\":0}}\n");
}

/// A span name with a carriage return and a raw control byte comes out
/// escaped in both Chrome writers, so the document stays valid JSON.
TEST_F(TraceTest, ChromeWritersEscapeControlBytes)
{
    trace::RequestCapture capture(2);
    const trace::RequestContext ctx{2, &capture};
    {
        trace::RequestScope scope(&ctx);
        trace::Span span("unit.\"esc\"\r\x01");
    }
    const std::string escaped = "\"name\":\"unit.\\\"esc\\\"\\r\\u0001\"";
    std::ostringstream request_json;
    capture.write_chrome_trace(request_json);
    EXPECT_NE(request_json.str().find(escaped), std::string::npos)
        << request_json.str();
    EXPECT_NE(chrome_trace().find(escaped), std::string::npos)
        << chrome_trace();
}

}  // namespace
}  // namespace caqr
