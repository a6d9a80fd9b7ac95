/**
 * @file
 * Concurrency and fault-injection tests for the epoll TCP front end.
 *
 * Covers the serving tentpole's acceptance surface: N client threads
 * hammering one server produce byte-identical responses to a
 * sequential run (modulo the wall-clock CSV field); malformed frames,
 * oversized lines, mid-request disconnects, and slow-loris writers
 * leave the server serving and are counted by the `server.*`
 * registry counters; the
 * content-addressed cache turns repeated traffic into hits; graceful
 * drain finishes in-flight work before closing. The whole binary runs
 * under the TSan CI job.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "service/cache.h"
#include "service/client.h"
#include "service/server.h"
#include "service/service.h"

namespace {

using namespace caqr;

std::string
circuits_dir()
{
    return CAQR_CIRCUITS_DIR;
}

/// A compile response line minus the trailing total_ms CSV field —
/// the only field that legitimately differs between identical
/// requests.
std::string
strip_timing(const std::string& line)
{
    const auto comma = line.rfind(',');
    return comma == std::string::npos ? line : line.substr(0, comma);
}

/// Server + service bundle with test-friendly defaults; every test
/// gets a fresh one on an ephemeral port.
struct TestServer
{
    explicit TestServer(ServiceOptions service_options = {},
                        serve::ServerOptions server_options = {})
        : service(service_options), server(service, server_options)
    {
        const auto started = server.start();
        EXPECT_TRUE(started.ok()) << started.to_string();
    }

    ~TestServer() { server.stop(); }

    /// The service registry's `server.<name>` counter (0 when unset).
    std::uint64_t
    counter(const std::string& name) const
    {
        const auto counters = service.metrics_snapshot().counters;
        const auto it = counters.find("server." + name);
        return it == counters.end()
                   ? 0
                   : static_cast<std::uint64_t>(it->second);
    }

    serve::Client
    client()
    {
        serve::Client c;
        const auto connected = c.connect("127.0.0.1", server.port());
        EXPECT_TRUE(connected.ok()) << connected.to_string();
        return c;
    }

    Service service;
    serve::Server server;
};

TEST(ServerBasics, CompileStatsQuitRoundTrip)
{
    TestServer ts;
    auto client = ts.client();

    const auto compiled =
        client.command("compile " + circuits_dir() + "/bv_10.qasm");
    ASSERT_TRUE(compiled.ok()) << compiled.status().to_string();
    EXPECT_TRUE(compiled->ok) << compiled->final_line();
    EXPECT_EQ(compiled->final_line().rfind("ok bv_10,qs_caqr", 0), 0u)
        << compiled->final_line();

    const auto stats = client.command("stats");
    ASSERT_TRUE(stats.ok());
    EXPECT_TRUE(stats->ok);
    EXPECT_GT(stats->lines.size(), 1u);  // stat lines + final ok

    const auto bye = client.command("quit");
    ASSERT_TRUE(bye.ok());
    EXPECT_EQ(bye->final_line(), "ok bye");

    EXPECT_EQ(ts.counter("connections"), 1u);
    EXPECT_EQ(ts.counter("requests"), 3u);
}

/// The TCP transport serves a final command line that arrives without
/// a trailing newline before EOF — same framing as the stdin
/// transport.
TEST(ServerBasics, PartialFinalLineServedOnEof)
{
    TestServer ts;
    auto client = ts.client();
    ASSERT_TRUE(client
                    .send_raw("compile " + circuits_dir() +
                              "/bv_10.qasm")
                    .ok());
    client.shutdown_write();

    const auto compiled = client.read_response();
    ASSERT_TRUE(compiled.ok()) << compiled.status().to_string();
    EXPECT_EQ(compiled->final_line().rfind("ok bv_10,qs_caqr", 0), 0u)
        << compiled->final_line();
    const auto bye = client.read_response();
    ASSERT_TRUE(bye.ok());
    EXPECT_EQ(bye->final_line(), "ok bye");
}

/// N client threads x M requests produce exactly the responses a
/// sequential client sees (modulo the wall-clock field), and the
/// per-session `set` state never leaks across sessions.
TEST(ServerConcurrency, ParallelClientsMatchSequentialResponses)
{
    TestServer ts({.num_threads = 1},
                  {.num_workers = 4});

    const std::vector<std::string> commands = {
        "compile " + circuits_dir() + "/bv_10.qasm",
        "compile " + circuits_dir() + "/rd32.qasm",
        "compile " + circuits_dir() + "/xor_5.qasm",
    };

    // Sequential baseline.
    std::vector<std::string> expected;
    {
        auto client = ts.client();
        for (const auto& command : commands) {
            const auto response = client.command(command);
            ASSERT_TRUE(response.ok()) << response.status().to_string();
            ASSERT_TRUE(response->ok) << response->final_line();
            expected.push_back(strip_timing(response->final_line()));
        }
    }

    constexpr int kClients = 8;
    constexpr int kRounds = 4;
    std::vector<std::vector<std::string>> got(kClients);
    std::vector<std::string> failures(kClients);
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            serve::Client client;
            const auto connected =
                client.connect("127.0.0.1", ts.server.port());
            if (!connected.ok()) {
                failures[c] = connected.to_string();
                return;
            }
            for (int round = 0; round < kRounds; ++round) {
                for (const auto& command : commands) {
                    const auto response = client.command(command);
                    if (!response.ok() || !response->ok) {
                        failures[c] = response.ok()
                                          ? response->final_line()
                                          : response.status().to_string();
                        return;
                    }
                    got[c].push_back(
                        strip_timing(response->final_line()));
                }
            }
        });
    }
    for (auto& thread : threads) thread.join();

    for (int c = 0; c < kClients; ++c) {
        ASSERT_TRUE(failures[c].empty()) << "client " << c << ": "
                                         << failures[c];
        ASSERT_EQ(got[c].size(), commands.size() * kRounds);
        for (int round = 0; round < kRounds; ++round) {
            for (std::size_t i = 0; i < commands.size(); ++i) {
                EXPECT_EQ(got[c][round * commands.size() + i],
                          expected[i])
                    << "client " << c << " round " << round;
            }
        }
    }

    EXPECT_EQ(ts.counter("connections"),
              static_cast<std::uint64_t>(kClients) + 1);
    EXPECT_EQ(ts.counter("requests"),
              static_cast<std::uint64_t>(kClients) * kRounds *
                      commands.size() +
                  commands.size());
}

/// Malformed frames answer `error ...` and never kill the server or
/// the session.
TEST(ServerFaults, MalformedFramesKeepServing)
{
    TestServer ts;
    auto client = ts.client();

    for (const std::string& bad :
         {std::string("bogus command"), std::string("compile"),
          std::string("set banana split"),
          std::string("\x01\x02\x7f binary"),
          std::string("batch /nonexistent/nowhere")}) {
        const auto response = client.command(bad);
        ASSERT_TRUE(response.ok()) << response.status().to_string();
        EXPECT_FALSE(response->ok) << response->final_line();
        EXPECT_EQ(response->final_line().rfind("error", 0), 0u);
    }

    // The session still works after every malformed frame.
    const auto compiled =
        client.command("compile " + circuits_dir() + "/bv_10.qasm");
    ASSERT_TRUE(compiled.ok());
    EXPECT_TRUE(compiled->ok) << compiled->final_line();
}

/// A served compile of a file with repeated operands used to abort the
/// whole server in `Circuit::append`; it now answers with a parse error
/// and the session keeps serving.
TEST(ServerFaults, RepeatedOperandsKeepServing)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::path(::testing::TempDir()) /
        ("caqr_repeated_operands_" + std::to_string(::getpid()));
    fs::create_directories(dir);
    TestServer ts;
    auto client = ts.client();
    for (const char* gate : {"cx q[0],q[0];", "cx q,q;",
                             "ccx q[0],q[1],q[0];"}) {
        const fs::path path = dir / "repeated.qasm";
        std::ofstream(path) << "OPENQASM 2.0;\nqreg q[2];\n" << gate << "\n";
        const auto response = client.command("compile " + path.string());
        ASSERT_TRUE(response.ok()) << response.status().to_string();
        EXPECT_FALSE(response->ok) << response->final_line();
        EXPECT_NE(response->final_line().find("line 3"), std::string::npos)
            << response->final_line();
    }

    const auto compiled =
        client.command("compile " + circuits_dir() + "/bv_10.qasm");
    ASSERT_TRUE(compiled.ok());
    EXPECT_TRUE(compiled->ok) << compiled->final_line();
    fs::remove_all(dir);
}

/// A line past max_line_bytes gets one error response and a close;
/// the server keeps accepting fresh sessions and counts the event.
TEST(ServerFaults, OversizedLineClosesOnlyThatSession)
{
    serve::ServerOptions options;
    options.max_line_bytes = 256;
    TestServer ts({}, options);

    auto attacker = ts.client();
    ASSERT_TRUE(
        attacker.send_raw(std::string(4096, 'a')).ok());  // no newline
    const auto response = attacker.read_response();
    ASSERT_TRUE(response.ok()) << response.status().to_string();
    EXPECT_EQ(response->final_line().rfind("error line exceeds", 0), 0u)
        << response->final_line();
    // The server closes after flushing the error.
    EXPECT_FALSE(attacker.read_response(2000).ok());

    auto client = ts.client();
    const auto compiled =
        client.command("compile " + circuits_dir() + "/bv_10.qasm");
    ASSERT_TRUE(compiled.ok());
    EXPECT_TRUE(compiled->ok);

    EXPECT_EQ(ts.counter("overlong_lines"), 1u);
}

/// Disconnecting with a request in flight must not crash or wedge the
/// worker; the response is simply dropped.
TEST(ServerFaults, MidRequestDisconnectIsAbsorbed)
{
    TestServer ts;
    for (int i = 0; i < 4; ++i) {
        auto client = ts.client();
        ASSERT_TRUE(
            client
                .send_line("compile " + circuits_dir() + "/bv_64.qasm")
                .ok());
        client.close();  // vanish before the response
    }

    // The fresh compile queues behind the vanished clients' bv_64
    // compiles (their results are computed, then dropped), which take
    // tens of seconds under TSan — budget generously.
    auto client = ts.client();
    const auto compiled = client.command(
        "compile " + circuits_dir() + "/bv_10.qasm", 300000);
    ASSERT_TRUE(compiled.ok());
    EXPECT_TRUE(compiled->ok);

    // The in-flight compiles of the vanished clients finish on their
    // own schedule; wait for the server to notice every disconnect.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(60);
    while (ts.counter("disconnects") < 4 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_GE(ts.counter("disconnects"), 4u);
}

/// A writer that trickles bytes without ever completing a line is
/// closed by the idle timer (completed commands are what refresh it).
TEST(ServerFaults, SlowLorisWriterIsTimedOut)
{
    serve::ServerOptions options;
    options.idle_timeout_ms = 300;
    TestServer ts({}, options);

    auto loris = ts.client();
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(loris.send_raw("x").ok());  // never a newline
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
    }
    // The server must have closed the session with a timeout error.
    const auto response = loris.read_response(5000);
    if (response.ok()) {
        EXPECT_EQ(response->final_line(), "error idle timeout, closing");
    }
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(5);
    while (ts.counter("timeouts") == 0 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_GE(ts.counter("timeouts"), 1u);

    // A live session is unaffected by the reaper.
    auto client = ts.client();
    const auto compiled =
        client.command("compile " + circuits_dir() + "/bv_10.qasm");
    ASSERT_TRUE(compiled.ok());
    EXPECT_TRUE(compiled->ok);
}

/// Admission control: pipelining past the per-session queue limit is
/// answered with an immediate `error busy` while the accepted work
/// still completes.
TEST(ServerAdmission, SessionQueueOverflowIsRejectedBusy)
{
    serve::ServerOptions options;
    options.session_queue_limit = 0;  // nothing may queue behind busy
    options.num_workers = 1;
    TestServer ts({}, options);

    auto client = ts.client();
    // One slow command, one pipelined right behind it.
    ASSERT_TRUE(client
                    .send_raw("batch " + circuits_dir() + "\n" +
                              "compile " + circuits_dir() +
                              "/bv_10.qasm\n")
                    .ok());

    // The rejection is written immediately, ahead of the batch block.
    const auto busy = client.read_response(60000);
    ASSERT_TRUE(busy.ok()) << busy.status().to_string();
    EXPECT_EQ(busy->final_line(), "error busy session queue full, retry");

    const auto batch = client.read_response(120000);
    ASSERT_TRUE(batch.ok()) << batch.status().to_string();
    EXPECT_EQ(batch->final_line().rfind("ok batch", 0), 0u)
        << batch->final_line();

    EXPECT_GE(ts.counter("rejected_busy"), 1u);
}

/// Session cap: connection max_sessions+1 gets one `error busy` line
/// and is closed; closing a session frees the slot.
TEST(ServerAdmission, SessionCapRejectsAndRecovers)
{
    serve::ServerOptions options;
    options.max_sessions = 2;
    TestServer ts({}, options);

    auto first = ts.client();
    auto second = ts.client();

    // The third connection TCP-connects, but the server answers it
    // with a single `error busy` block (no greeting) and closes — the
    // rejection surfaces on the first read, not at connect time.
    serve::Client third;
    ASSERT_TRUE(third.connect("127.0.0.1", ts.server.port()).ok());
    const auto rejected = third.read_response(5000);
    ASSERT_TRUE(rejected.ok()) << rejected.status().to_string();
    EXPECT_FALSE(rejected->ok);
    EXPECT_NE(rejected->final_line().find("busy"), std::string::npos)
        << rejected->final_line();
    // The busy line is readable the instant the server send()s it,
    // a few instructions before the counter bump — poll briefly.
    const auto count_deadline = std::chrono::steady_clock::now() +
                                std::chrono::seconds(5);
    while (ts.counter("rejected_sessions") == 0 &&
           std::chrono::steady_clock::now() < count_deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(ts.counter("rejected_sessions"), 1u);

    first.command("quit");
    first.close();
    // The slot frees once the server reaps the session; a freed slot
    // means a command round-trips again.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(5);
    bool reconnected = false;
    while (!reconnected &&
           std::chrono::steady_clock::now() < deadline) {
        serve::Client retry;
        if (retry.connect("127.0.0.1", ts.server.port()).ok()) {
            const auto response = retry.command("version", 5000);
            reconnected = response.ok() && response->ok;
        }
        if (!reconnected) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
    }
    EXPECT_TRUE(reconnected);
}

/// Graceful drain: in-flight work finishes and flushes, every session
/// gets `ok bye`, and wait() returns without a hard stop.
TEST(ServerDrain, DrainFinishesInflightWork)
{
    // The drain grace must outlast a bv_64 compile even under TSan's
    // slowdown, or the force-close deadline fires before the in-flight
    // response flushes.
    serve::ServerOptions options;
    options.drain_grace_ms = 300000;
    TestServer ts({}, options);
    auto client = ts.client();
    ASSERT_TRUE(
        client.send_line("compile " + circuits_dir() + "/bv_64.qasm")
            .ok());
    // Only a command the server has *received* is in-flight; commands
    // still in the socket buffer may legitimately be dropped by a
    // drain, so anchor the race before draining.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(10);
    while (ts.counter("requests") == 0 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_GE(ts.counter("requests"), 1u);
    ts.server.request_drain();

    const auto compiled = client.read_response(300000);
    ASSERT_TRUE(compiled.ok()) << compiled.status().to_string();
    EXPECT_TRUE(compiled->ok) << compiled->final_line();
    const auto bye = client.read_response();
    ASSERT_TRUE(bye.ok());
    EXPECT_EQ(bye->final_line(), "ok bye");

    ts.server.wait();
    EXPECT_FALSE(ts.server.running());
}

/// Commands that arrive while draining are refused, not silently
/// dropped.
TEST(ServerDrain, NewConnectionsRefusedWhileDraining)
{
    TestServer ts;
    auto client = ts.client();
    ts.server.request_drain();
    ts.server.wait();

    serve::Client late;
    EXPECT_FALSE(late.connect("127.0.0.1", ts.server.port()).ok());
}

/// The content-addressed cache under concurrent clients: after one
/// warming pass, every repeated request is a hit and the counters
/// land in the shared service registry.
TEST(ServerCache, ConcurrentRepeatTrafficHitsCache)
{
    TestServer ts({.num_threads = 1, .cache_capacity = 8},
                  {.num_workers = 4});
    const std::string command =
        "compile " + circuits_dir() + "/bv_10.qasm";

    {
        auto warm = ts.client();
        const auto response = warm.command(command);
        ASSERT_TRUE(response.ok());
        ASSERT_TRUE(response->ok) << response->final_line();
    }

    constexpr int kClients = 4;
    constexpr int kRounds = 3;
    std::vector<std::thread> threads;
    std::vector<std::string> failures(kClients);
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            serve::Client client;
            if (const auto connected =
                    client.connect("127.0.0.1", ts.server.port());
                !connected.ok()) {
                failures[c] = connected.to_string();
                return;
            }
            for (int round = 0; round < kRounds; ++round) {
                const auto response = client.command(command);
                if (!response.ok() || !response->ok) {
                    failures[c] = "round failed";
                    return;
                }
            }
        });
    }
    for (auto& thread : threads) thread.join();
    for (const auto& failure : failures) {
        ASSERT_TRUE(failure.empty()) << failure;
    }

    const auto snapshot = ts.service.metrics_snapshot();
    EXPECT_EQ(snapshot.counters.at("service.cache.hit"),
              static_cast<double>(kClients * kRounds));
    EXPECT_EQ(snapshot.counters.at("service.cache.miss"), 1.0);
}

/// Counts non-overlapping occurrences of @p needle in @p haystack.
std::size_t
count_occurrences(const std::string& haystack, const std::string& needle)
{
    std::size_t count = 0;
    for (auto at = haystack.find(needle); at != std::string::npos;
         at = haystack.find(needle, at + needle.size())) {
        ++count;
    }
    return count;
}

/// The same listener sniffs one-shot HTTP scrapes off the line
/// protocol: `/metrics` is Prometheus text with rolling windows,
/// `/healthz` answers liveness, `/varz` is the JSON snapshot, and
/// unknown paths 404 — all without disturbing line-protocol sessions.
TEST(ServerHttp, ScrapeEndpointsAnswerOnTheSameListener)
{
    TestServer ts;
    {
        // Warm one compile so service.total_ms has samples in the
        // current rolling window.
        auto client = ts.client();
        const auto compiled =
            client.command("compile " + circuits_dir() + "/bv_10.qasm");
        ASSERT_TRUE(compiled.ok());
        ASSERT_TRUE(compiled->ok) << compiled->final_line();
    }

    const auto scrape = [&](const std::string& path) {
        serve::Client http;
        EXPECT_TRUE(
            http.connect("127.0.0.1", ts.server.port()).ok());
        EXPECT_TRUE(
            http.send_raw("GET " + path + " HTTP/1.0\r\n\r\n").ok());
        const auto body = http.read_until_close(30000);
        EXPECT_TRUE(body.ok()) << body.status().to_string();
        return body.ok() ? *body : std::string();
    };

    const std::string metrics = scrape("/metrics");
    EXPECT_EQ(metrics.rfind("HTTP/1.0 200 OK\r\n", 0), 0u)
        << metrics.substr(0, 64);
    EXPECT_NE(metrics.find("text/plain; version=0.0.4"),
              std::string::npos);
    // The acceptance target: the live windowed p99 of the service
    // latency, in Prometheus exposition form.
    EXPECT_NE(metrics.find("caqr_service_total_ms_window{"
                           "quantile=\"0.99\"}"),
              std::string::npos)
        << metrics;
    EXPECT_NE(metrics.find("caqr_service_total_ms{quantile=\"0.5\"}"),
              std::string::npos);
    EXPECT_NE(metrics.find("caqr_telemetry_window_seconds"),
              std::string::npos);
    EXPECT_NE(metrics.find("caqr_server_active_sessions"),
              std::string::npos);
    // Pass and backend-cache counters reach the scrape with global
    // tracing off. The global registry accumulates across tests, so
    // only the presence of each series is checked.
    for (const char* series :
         {"caqr_qs_caqr_steps", "caqr_router_swaps_added",
          "caqr_service_backend_cache_miss"}) {
        EXPECT_NE(metrics.find(series), std::string::npos) << series;
    }

    const std::string healthz = scrape("/healthz");
    EXPECT_EQ(healthz.rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
    EXPECT_NE(healthz.find("\r\n\r\nok\n"), std::string::npos);

    const std::string varz = scrape("/varz");
    EXPECT_EQ(varz.rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
    EXPECT_NE(varz.find("\"draining\":false"), std::string::npos);
    EXPECT_NE(varz.find("\"windows\""), std::string::npos);
    EXPECT_NE(varz.find("\"service.total_ms\""), std::string::npos);

    const std::string missing = scrape("/nope");
    EXPECT_EQ(missing.rfind("HTTP/1.0 404 Not Found\r\n", 0), 0u);

    // Scrapes are accounted separately from line-protocol requests.
    EXPECT_EQ(ts.counter("http_requests"), 4u);
    EXPECT_EQ(ts.counter("requests"), 1u);

    // The listener still serves the line protocol afterwards.
    auto client = ts.client();
    const auto version = client.command("version");
    ASSERT_TRUE(version.ok());
    EXPECT_TRUE(version->ok);
}

/// Concurrent slow requests each flush exactly one
/// `slow_req_<id>.trace.json` holding only that request's span tree:
/// ids are distinct, every artifact has exactly one service.compile
/// span, and the embedded request id matches the filename.
TEST(ServerSlowTrace, ConcurrentSlowRequestsCaptureWithoutBleed)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::path(::testing::TempDir()) /
        ("caqr_slow_trace_" + std::to_string(::getpid()));
    fs::create_directories(dir);

    // Any compile beats a 1 ns threshold, so every request is "slow".
    TestServer ts({.num_threads = 2,
                   .slow_request_ms = 1e-6,
                   .slow_trace_dir = dir.string()},
                  {.num_workers = 4});

    const std::vector<std::string> circuits = {"bv_10.qasm",
                                               "rd32.qasm",
                                               "xor_5.qasm"};
    std::vector<std::thread> threads;
    std::vector<std::string> failures(circuits.size());
    for (std::size_t c = 0; c < circuits.size(); ++c) {
        threads.emplace_back([&, c] {
            serve::Client client;
            if (const auto connected =
                    client.connect("127.0.0.1", ts.server.port());
                !connected.ok()) {
                failures[c] = connected.to_string();
                return;
            }
            const auto response = client.command(
                "compile " + circuits_dir() + "/" + circuits[c]);
            if (!response.ok() || !response->ok) {
                failures[c] = response.ok()
                                  ? response->final_line()
                                  : response.status().to_string();
            }
        });
    }
    for (auto& thread : threads) thread.join();
    for (const auto& failure : failures) {
        ASSERT_TRUE(failure.empty()) << failure;
    }

    std::set<std::string> ids;
    std::size_t artifacts = 0;
    for (const auto& entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        ASSERT_EQ(name.rfind("slow_req_", 0), 0u) << name;
        ++artifacts;

        const std::string id = name.substr(
            9, name.size() - 9 - std::string(".trace.json").size());
        EXPECT_TRUE(ids.insert(id).second)
            << "duplicate artifact for request " << id;

        std::ifstream in(entry.path());
        std::ostringstream content;
        content << in.rdbuf();
        const std::string trace = content.str();
        // Exactly one request's span tree: one top-level compile span,
        // and the embedded id matches the filename.
        EXPECT_EQ(
            count_occurrences(trace, "\"name\":\"service.compile\""),
            1u)
            << name;
        EXPECT_NE(trace.find("\"caqr_request\":{\"id\":" + id),
                  std::string::npos)
            << name;
    }
    EXPECT_EQ(artifacts, circuits.size());
    EXPECT_EQ(ids.size(), circuits.size());

    const auto snapshot = ts.service.metrics_snapshot();
    EXPECT_EQ(snapshot.counters.at("service.slow_captures"),
              static_cast<double>(circuits.size()));

    std::error_code ignored;
    fs::remove_all(dir, ignored);
}

/// The slow-trace rate limit caps lifetime artifacts: extra slow
/// requests are suppressed (counted, not written).
TEST(ServerSlowTrace, RateLimitSuppressesBeyondMax)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::path(::testing::TempDir()) /
        ("caqr_slow_cap_" + std::to_string(::getpid()));
    fs::create_directories(dir);

    TestServer ts({.num_threads = 1,
                   .slow_request_ms = 1e-6,
                   .slow_trace_dir = dir.string(),
                   .slow_trace_max = 1});

    auto client = ts.client();
    for (int i = 0; i < 3; ++i) {
        const auto response = client.command(
            "compile " + circuits_dir() + "/bv_10.qasm");
        ASSERT_TRUE(response.ok());
        ASSERT_TRUE(response->ok) << response->final_line();
    }

    std::size_t artifacts = 0;
    for (const auto& entry : fs::directory_iterator(dir)) {
        static_cast<void>(entry);
        ++artifacts;
    }
    EXPECT_EQ(artifacts, 1u);

    const auto snapshot = ts.service.metrics_snapshot();
    EXPECT_EQ(snapshot.counters.at("service.slow_captures"), 1.0);
    EXPECT_EQ(
        snapshot.counters.at("service.slow_captures_suppressed"), 2.0);

    std::error_code ignored;
    fs::remove_all(dir, ignored);
}

/// Every request carries a distinct request id end to end, visible in
/// the JSONL event log alongside per-request outcome fields.
TEST(ServerEventLog, LogsLifecycleEventsAsJsonl)
{
    namespace fs = std::filesystem;
    const fs::path log_path =
        fs::path(::testing::TempDir()) /
        ("caqr_events_" + std::to_string(::getpid()) + ".jsonl");

    serve::ServerOptions options;
    options.event_log_path = log_path.string();
    TestServer ts({.num_threads = 1, .cache_capacity = 4}, options);

    auto client = ts.client();
    for (int i = 0; i < 2; ++i) {
        const auto response = client.command(
            "compile " + circuits_dir() + "/bv_10.qasm");
        ASSERT_TRUE(response.ok());
        ASSERT_TRUE(response->ok);
    }
    const auto bye = client.command("quit");
    ASSERT_TRUE(bye.ok());
    ts.server.stop();

    std::ifstream in(log_path);
    ASSERT_TRUE(in.is_open());
    std::size_t connects = 0;
    std::size_t requests = 0;
    std::size_t dones = 0;
    std::size_t cache_hits = 0;
    std::string line;
    while (std::getline(in, line)) {
        ASSERT_FALSE(line.empty());
        ASSERT_EQ(line.front(), '{') << line;
        ASSERT_EQ(line.back(), '}') << line;
        EXPECT_NE(line.find("\"ts_ms\":"), std::string::npos) << line;
        if (line.find("\"event\":\"connect\"") != std::string::npos) {
            ++connects;
        } else if (line.find("\"event\":\"request\"") !=
                   std::string::npos) {
            ++requests;
        } else if (line.find("\"event\":\"done\"") !=
                   std::string::npos) {
            ++dones;
            EXPECT_NE(line.find("\"ok\":true"), std::string::npos)
                << line;
            if (line.find("\"cache_hits\":1") != std::string::npos) {
                ++cache_hits;
            }
        }
    }
    EXPECT_EQ(connects, 1u);
    EXPECT_EQ(requests, 3u);  // 2 compiles + quit
    EXPECT_EQ(dones, 3u);
    EXPECT_EQ(cache_hits, 1u);  // the second compile hit the cache

    std::error_code ignored;
    fs::remove(log_path, ignored);
}

}  // namespace
