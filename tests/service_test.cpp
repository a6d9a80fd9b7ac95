/**
 * @file
 * Tests for the batch compilation service: request validation through
 * the status envelope, golden QASM-in -> report-out compilation,
 * batch determinism across thread counts, backend-cache reuse
 * (asserted via the service.backend_cache.* counters), manifest
 * expansion, ESP version selection, and the qasm_tool exit-code
 * regressions for unreadable input and single-file batches.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/benchmarks.h"
#include "graph/generators.h"
#include "qasm/printer.h"
#include "service/cache.h"
#include "service/service.h"
#include "util/rng.h"
#include "util/trace.h"

namespace {

using namespace caqr;
namespace fs = std::filesystem;

std::string
circuits_dir()
{
    return CAQR_CIRCUITS_DIR;
}

TEST(Strategy, NamesRoundTripThroughParser)
{
    for (const auto strategy :
         {Strategy::kBaseline, Strategy::kQsCaqr, Strategy::kQsCommuting,
          Strategy::kSrCaqr}) {
        const auto parsed = parse_strategy(strategy_name(strategy));
        ASSERT_TRUE(parsed.ok());
        EXPECT_EQ(*parsed, strategy);
    }
    EXPECT_EQ(*parse_strategy("QS-CaQR"), Strategy::kQsCaqr);
    EXPECT_EQ(*parse_strategy("sr"), Strategy::kSrCaqr);

    const auto unknown = parse_strategy("banana");
    ASSERT_FALSE(unknown.ok());
    EXPECT_EQ(unknown.status().code(),
              util::StatusCode::kInvalidArgument);
}

TEST(ServiceCompile, RequiresExactlyOneInput)
{
    Service service({.num_threads = 1});

    CompileRequest empty;
    const auto none = service.compile(empty);
    EXPECT_FALSE(none.ok());
    EXPECT_EQ(none.status.code(), util::StatusCode::kInvalidArgument);

    CompileRequest both;
    both.circuit = apps::bv_circuit(3);
    both.qasm = "OPENQASM 2.0;";
    const auto two = service.compile(both);
    EXPECT_FALSE(two.ok());
    EXPECT_EQ(two.status.code(), util::StatusCode::kInvalidArgument);
}

TEST(ServiceCompile, UnknownBackendIsNotFound)
{
    Service service({.num_threads = 1});
    CompileRequest request;
    request.circuit = apps::bv_circuit(3);
    request.backend = "ankaa-3";
    const auto report = service.compile(request);
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.status.code(), util::StatusCode::kNotFound);
}

TEST(ServiceCompile, ParseErrorSurfacesInReport)
{
    Service service({.num_threads = 1});
    CompileRequest request;
    request.qasm = "OPENQASM 2.0;\nqreg q[2];\nfrobnicate q[0];\n";
    const auto report = service.compile(request);
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.status.code(), util::StatusCode::kParseError);
    // The failed stage is still timed so the report shows where the
    // pipeline stopped.
    ASSERT_FALSE(report.stages.empty());
    EXPECT_EQ(report.stages.front().stage, "load");
}

TEST(ServiceCompile, MissingFileIsNotFound)
{
    Service service({.num_threads = 1});
    CompileRequest request;
    request.qasm_file = "/nonexistent/missing.qasm";
    const auto report = service.compile(request);
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.status.code(), util::StatusCode::kNotFound);
}

/// Repeated operands used to abort the process, in `Circuit::append`
/// (two-qubit gates) or later in decomposition (ccx). A compile reports
/// them as a line-numbered parse error, inline or from a file, with the
/// cache on or off.
TEST(ServiceCompile, RepeatedOperandsAreParseErrors)
{
    const fs::path dir =
        fs::temp_directory_path() / "caqr_repeated_operand_test";
    fs::create_directories(dir);
    const fs::path path = dir / "repeated.qasm";
    for (const std::size_t cache : {std::size_t{0}, std::size_t{8}}) {
        Service service({.num_threads = 1, .cache_capacity = cache});
        for (const char* gate : {"cx q[0],q[0];", "ccx q[0],q[1],q[0];"}) {
            const std::string source =
                std::string("OPENQASM 2.0;\nqreg q[2];\n") + gate + "\n";
            std::ofstream(path) << source;
            CompileRequest inline_qasm;
            inline_qasm.qasm = source;
            CompileRequest by_file;
            by_file.qasm_file = path.string();
            for (const auto* request : {&inline_qasm, &by_file}) {
                const auto report = service.compile(*request);
                EXPECT_EQ(report.status.code(), util::StatusCode::kParseError)
                    << gate;
                EXPECT_EQ(report.status.message().rfind("line 3: ", 0), 0u)
                    << report.status.to_string();
            }
        }
    }
    fs::remove_all(dir);
}

/// A program past the parser's size caps is a parse error whether it
/// comes inline or from a file, with or without the cache.
TEST(ServiceCompile, ProgramsPastTheSizeCapsAreParseErrors)
{
    const fs::path dir = fs::temp_directory_path() / "caqr_size_cap_test";
    fs::create_directories(dir);
    const fs::path path = dir / "huge.qasm";
    for (const std::size_t cache : {std::size_t{0}, std::size_t{8}}) {
        Service service({.num_threads = 1, .cache_capacity = cache});
        for (const char* source :
             {"qreg q[2000000]; h q;", "qreg q[2147483647]; h q;"}) {
            std::ofstream(path) << source;
            CompileRequest inline_qasm;
            inline_qasm.qasm = source;
            CompileRequest by_file;
            by_file.qasm_file = path.string();
            for (const auto* request : {&inline_qasm, &by_file}) {
                const auto report = service.compile(*request);
                EXPECT_EQ(report.status.code(), util::StatusCode::kParseError)
                    << source;
                EXPECT_EQ(report.status.message().rfind("line 1: ", 0), 0u)
                    << report.status.to_string();
            }
        }
    }
    fs::remove_all(dir);
}

TEST(ServiceCompile, UnreachableTargetIsInfeasible)
{
    Service service({.num_threads = 1});
    CompileRequest request;
    request.circuit = apps::bv_circuit(4);
    request.map_to_backend = false;
    request.qs.target_qubits = 1;  // BV bottoms out at 2 qubits.
    const auto report = service.compile(request);
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.status.code(), util::StatusCode::kInfeasible);
}

/// Golden end-to-end check: compile circuits/bv_64.qasm and pin the
/// whole report surface (values locked in from the seed run).
TEST(ServiceCompile, GoldenBv64Report)
{
    Service service({.num_threads = 1});
    CompileRequest request;
    request.qasm_file = circuits_dir() + "/bv_64.qasm";
    request.strategy = Strategy::kQsCaqr;
    request.backend = "FakeMumbai";
    const auto report = service.compile(request);

    ASSERT_TRUE(report.ok()) << report.status.to_string();
    EXPECT_EQ(report.name, "bv_64");
    EXPECT_EQ(report.backend, "FakeMumbai");
    EXPECT_EQ(report.strategy, "qs_caqr");
    EXPECT_EQ(report.logical_qubits, 64);
    EXPECT_EQ(report.qubits, 2);
    EXPECT_EQ(report.physical_qubits, 2);
    EXPECT_EQ(report.depth, 315);
    EXPECT_EQ(report.swaps, 0);
    EXPECT_EQ(report.reuses, 62);
    EXPECT_GT(report.esp, 0.0);
    EXPECT_GT(report.compiled.size(), 0u);
    EXPECT_GT(report.total_ms(), 0.0);

    std::vector<std::string> stages;
    for (const auto& stage : report.stages) stages.push_back(stage.stage);
    EXPECT_EQ(stages, (std::vector<std::string>{"load", "backend",
                                                "qs_caqr", "map"}));
}

/// A QS-CaQR compile materializes only the version it returns: one
/// circuit, not one per step or per version.
TEST(ServiceCompile, QsCaqrBuildsOneCircuitPerCompile)
{
    Service service({.num_threads = 1});
    CompileRequest request;
    request.circuit = apps::bv_circuit(12);
    request.strategy = Strategy::kQsCaqr;
    const auto built = [&] {
        const auto counters = service.metrics_snapshot().counters;
        const auto it = counters.find("qs_caqr.circuits_built");
        return it == counters.end() ? 0.0 : it->second;
    };
    const double before = built();
    const auto report = service.compile(request);
    ASSERT_TRUE(report.ok()) << report.status.to_string();
    EXPECT_EQ(report.qubits, 2);
    EXPECT_EQ(built() - before, 1.0);
}

/// A baseline compile routes the anchor once: with four trials and one
/// refinement pass the anchor trial's route is also refinement's
/// forward pass, so it runs 5 routes, not 6.
TEST(ServiceCompile, BaselineRoutesTheAnchorOnce)
{
    Service service({.num_threads = 1});
    CompileRequest request;
    request.circuit = apps::bv_circuit(12);
    request.strategy = Strategy::kBaseline;
    request.transpile.trials = 4;
    request.transpile.layout_refine_passes = 1;
    const auto routes = [&] {
        const auto counters = service.metrics_snapshot().counters;
        const auto it = counters.find("transpile.routes");
        return it == counters.end() ? 0.0 : it->second;
    };
    const double before = routes();
    const auto report = service.compile(request);
    ASSERT_TRUE(report.ok()) << report.status.to_string();
    EXPECT_EQ(routes() - before, 5.0);
}

/// After QS-CaQR, BV-12 runs on two qubits that the greedy layout
/// places adjacent: the anchor routes SWAP-free, so refinement would
/// hand the greedy layout back and every other trial repeats a routed
/// layout. One route runs instead of five.
TEST(ServiceCompile, SwapFreeAnchorRoutesOnce)
{
    Service service({.num_threads = 1});
    CompileRequest request;
    request.circuit = apps::bv_circuit(12);
    request.strategy = Strategy::kQsCaqr;
    const auto counter = [&](const char* name) {
        const auto counters = service.metrics_snapshot().counters;
        const auto it = counters.find(name);
        return it == counters.end() ? 0.0 : it->second;
    };
    const double routes = counter("transpile.routes");
    const double repeated = counter("transpile.layouts_repeated");
    const auto report = service.compile(request);
    ASSERT_TRUE(report.ok()) << report.status.to_string();
    EXPECT_EQ(report.swaps, 0);
    EXPECT_EQ(counter("transpile.routes") - routes, 1.0);
    EXPECT_EQ(counter("transpile.layouts_repeated") - repeated, 3.0);
}

TEST(ServiceBatch, DeterministicAcrossThreadCounts)
{
    CompileRequest prototype;
    prototype.strategy = Strategy::kQsCaqr;
    prototype.qs.num_threads = 1;
    prototype.transpile.num_threads = 1;
    const auto requests = requests_from_path(circuits_dir(), prototype);
    ASSERT_TRUE(requests.ok()) << requests.status().to_string();
    ASSERT_GE(requests->size(), 4u);

    Service serial({.num_threads = 1});
    Service wide({.num_threads = 8});
    const auto a = serial.compile_batch(*requests);
    const auto b = wide.compile_batch(*requests);

    ASSERT_EQ(a.size(), requests->size());
    ASSERT_EQ(b.size(), requests->size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_TRUE(a[i].ok()) << a[i].name << ": "
                               << a[i].status.to_string();
        EXPECT_EQ(report_fingerprint(a[i]), report_fingerprint(b[i]))
            << "index " << i << " (" << a[i].name << ")";
    }
}

TEST(ServiceBackendCache, DistanceMatrixBuiltOncePerBackend)
{
    util::trace::set_enabled(false);
    Service service({.num_threads = 4});
    std::vector<CompileRequest> requests;
    for (int i = 0; i < 6; ++i) {
        CompileRequest request;
        request.name = "bv_" + std::to_string(i);
        request.circuit = apps::bv_circuit(4);
        request.backend = i % 2 == 0 ? "FakeMumbai" : "mumbai";
        requests.push_back(std::move(request));
    }
    const auto reports = service.compile_batch(requests);
    for (const auto& report : reports) {
        EXPECT_TRUE(report.ok()) << report.status.to_string();
        // Alias spellings resolve to the one cached backend.
        EXPECT_EQ(report.backend, "FakeMumbai");
    }

    // The counts live in the service's registry, recorded with global
    // tracing off, so every metrics artifact and scrape shows them.
    const auto counter = [&](const std::string& name) {
        return service.metrics_snapshot().counters.at(name);
    };
    EXPECT_EQ(counter("service.backend_cache.miss"), 1.0);
    EXPECT_EQ(counter("service.backend_cache.hit"), 5.0);

    // A second architecture is one more build, not a rebuild per call.
    ASSERT_TRUE(service.backend("heavy_hex:5").ok());
    ASSERT_TRUE(service.backend("heavy-hex:5").ok());
    EXPECT_EQ(counter("service.backend_cache.miss"), 2.0);
    EXPECT_EQ(counter("service.backend_cache.hit"), 6.0);
}

TEST(RequestsFromPath, DirectoryIsSortedAndManifestFiltersComments)
{
    const auto from_dir = requests_from_path(circuits_dir(), {});
    ASSERT_TRUE(from_dir.ok());
    std::vector<std::string> files;
    for (const auto& request : *from_dir) {
        files.push_back(request.qasm_file);
    }
    EXPECT_TRUE(std::is_sorted(files.begin(), files.end()));

    const fs::path dir =
        fs::temp_directory_path() / "caqr_service_manifest_test";
    fs::create_directories(dir);
    {
        std::ofstream manifest(dir / "batch.txt");
        manifest << "# comment line\n\n  " << circuits_dir()
                 << "/bv_10.qasm  \nrelative.qasm\n";
    }
    const auto from_manifest =
        requests_from_path((dir / "batch.txt").string(), {});
    ASSERT_TRUE(from_manifest.ok());
    ASSERT_EQ(from_manifest->size(), 2u);
    EXPECT_EQ((*from_manifest)[0].qasm_file,
              circuits_dir() + "/bv_10.qasm");
    EXPECT_EQ((*from_manifest)[1].qasm_file,
              (dir / "relative.qasm").string());
    fs::remove_all(dir);

    const auto missing = requests_from_path("/nonexistent/nowhere", {});
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.status().code(), util::StatusCode::kNotFound);
}

TEST(RequestsFromPath, QasmFileIsOneInput)
{
    // A QASM file is not a manifest: its source lines are not paths.
    const std::string path = circuits_dir() + "/bv_10.qasm";
    const auto requests = requests_from_path(path, {});
    ASSERT_TRUE(requests.ok()) << requests.status().to_string();
    ASSERT_EQ(requests->size(), 1u);
    EXPECT_EQ((*requests)[0].qasm_file, path);
}

/// Drives `qasm_tool --serve` through a pipe: serve a small batch,
/// then ask for `stats` and check the live latency histogram carries
/// per-stage p50/p90/p99 — the acceptance surface of the serve loop.
TEST(QasmToolServe, StatsAnswersWithPercentilesAfterABatch)
{
    const fs::path dir =
        fs::temp_directory_path() / "caqr_serve_protocol_test";
    fs::create_directories(dir);
    {
        std::ofstream manifest(dir / "batch.txt");
        manifest << circuits_dir() << "/bv_10.qasm\n"
                 << circuits_dir() << "/rd32.qasm\n"
                 << circuits_dir() << "/xor_5.qasm\n";
    }

    const std::string script = "help\nbatch " +
                               (dir / "batch.txt").string() +
                               "\nstats\nset strategy sr\nset trials 6\nset threads 2\n"
                               "set trials 0\nset tenant team-a\nbogus\nquit\n";
    const std::string command = "printf '%s' '" + script + "' | " +
                                std::string(CAQR_QASM_TOOL_BIN) +
                                " --serve 2>/dev/null";
    FILE* pipe = ::popen(command.c_str(), "r");
    ASSERT_NE(pipe, nullptr);
    std::string output;
    char buffer[512];
    while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
        output += buffer;
    }
    const int status = ::pclose(pipe);
    fs::remove_all(dir);
    EXPECT_EQ(status, 0) << output;

    // Every command answered; the batch compiled all three circuits.
    EXPECT_NE(output.find("ok help"), std::string::npos) << output;
    EXPECT_NE(output.find("row bv_10,qs_caqr"), std::string::npos)
        << output;
    EXPECT_NE(output.find("ok batch n=3 failures=0"), std::string::npos)
        << output;

    // The stats snapshot reports the per-stage latency distribution.
    for (const char* name :
         {"stat service.total_ms", "stat service.stage.qs_caqr_ms",
          "stat service.stage.map_ms", "stat service.swaps"}) {
        const auto at = output.find(name);
        ASSERT_NE(at, std::string::npos) << name << "\n" << output;
        const auto line_end = output.find('\n', at);
        const std::string line = output.substr(at, line_end - at);
        EXPECT_NE(line.find("count=3"), std::string::npos) << line;
        EXPECT_NE(line.find("p50="), std::string::npos) << line;
        EXPECT_NE(line.find("p90="), std::string::npos) << line;
        EXPECT_NE(line.find("p99="), std::string::npos) << line;
        EXPECT_NE(line.find("max="), std::string::npos) << line;
    }
    EXPECT_NE(output.find("ok stats"), std::string::npos) << output;

    // Protocol errors answer with `error` and keep the loop alive.
    EXPECT_NE(output.find("ok set strategy sr_caqr"), std::string::npos)
        << output;
    EXPECT_NE(output.find("ok set trials 6"), std::string::npos) << output;
    EXPECT_NE(output.find("ok set threads 2"), std::string::npos)
        << output;
    EXPECT_NE(output.find("error set trials needs n >= 1"),
              std::string::npos)
        << output;
    EXPECT_NE(output.find("error set knows strategy|backend|trials|threads, "
                          "not 'tenant'"),
              std::string::npos)
        << output;
    EXPECT_NE(output.find("error unknown command 'bogus'"),
              std::string::npos)
        << output;
    EXPECT_NE(output.find("ok bye"), std::string::npos) << output;
}

/// Regression: a final command line without a trailing newline must
/// still be served before EOF ends the session — the serve loop now
/// shares the TCP transport's LineBuffer framing, which drains the
/// unterminated tail explicitly.
TEST(QasmToolServe, FinalLineWithoutNewlineIsServed)
{
    const std::string command =
        "printf 'compile " + circuits_dir() + "/bv_10.qasm' | " +
        std::string(CAQR_QASM_TOOL_BIN) + " --serve 2>/dev/null";
    FILE* pipe = ::popen(command.c_str(), "r");
    ASSERT_NE(pipe, nullptr);
    std::string output;
    char buffer[512];
    while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
        output += buffer;
    }
    const int status = ::pclose(pipe);
    EXPECT_EQ(status, 0) << output;
    EXPECT_NE(output.find("ok bv_10,qs_caqr"), std::string::npos)
        << output;
    EXPECT_NE(output.find("ok bye"), std::string::npos) << output;
}

// ---------------------------------------------------------------------
// Content-addressed compile cache
// ---------------------------------------------------------------------

TEST(RequestCacheKey, OptionOrderIsCanonicalized)
{
    const std::string canonical = canonicalize_option_lines(
        {"a=1", "b=2", "c=3"});
    EXPECT_EQ(canonicalize_option_lines({"c=3", "a=1", "b=2"}),
              canonical);
    EXPECT_EQ(canonicalize_option_lines({"b=2", "c=3", "a=1"}),
              canonical);
    EXPECT_NE(canonicalize_option_lines({"a=1", "b=2", "c=4"}),
              canonical);
}

/// Requests that differ only in how they were assembled — path vs
/// inline content, backend alias, execution knobs — must share one
/// cache key; anything result-affecting must split it.
TEST(RequestCacheKey, SemanticallyIdenticalRequestsShareAKey)
{
    const std::string path = circuits_dir() + "/bv_10.qasm";
    CompileRequest by_file;
    by_file.qasm_file = path;
    const auto base = request_cache_key(by_file);
    ASSERT_TRUE(base.ok()) << base.status().to_string();

    // Content-addressed: the same bytes inline hash equal to the file.
    std::ifstream in(path, std::ios::binary);
    std::ostringstream content;
    content << in.rdbuf();
    CompileRequest inline_qasm;
    inline_qasm.qasm = content.str();
    EXPECT_EQ(*request_cache_key(inline_qasm), *base);

    // Execution knobs, labels and seeds no QS engine reads are excluded
    // from the fingerprint.
    CompileRequest knobs = by_file;
    knobs.name = "renamed";
    knobs.qs.num_threads = 7;
    knobs.qs.seed = 42;
    knobs.qs_commuting.seed = 43;
    EXPECT_EQ(*request_cache_key(knobs), *base);

    util::Rng rng(6);
    CompileRequest commuting;
    commuting.commuting = core::CommutingSpec{};
    commuting.commuting->interaction = graph::random_graph(6, 0.5, rng);
    commuting.strategy = Strategy::kQsCommuting;
    CompileRequest commuting_seed = commuting;
    commuting_seed.qs_commuting.seed = 43;
    EXPECT_EQ(*request_cache_key(commuting_seed),
              *request_cache_key(commuting));

    // Backend aliases collapse to the canonical backend key.
    CompileRequest alias = by_file;
    alias.backend = "mumbai";
    EXPECT_EQ(*request_cache_key(alias), *base);

    // Result-affecting differences split the key.
    CompileRequest other_target = by_file;
    other_target.qs.target_qubits = 3;
    EXPECT_NE(*request_cache_key(other_target), *base);

    CompileRequest other_strategy = by_file;
    other_strategy.strategy = Strategy::kSrCaqr;
    EXPECT_NE(*request_cache_key(other_strategy), *base);

    // SR-CaQR's jitter trials read the seed.
    CompileRequest sr_seed = other_strategy;
    sr_seed.sr.seed = 42;
    EXPECT_NE(*request_cache_key(sr_seed),
              *request_cache_key(other_strategy));

    CompileRequest logical = by_file;
    logical.map_to_backend = false;
    EXPECT_NE(*request_cache_key(logical), *base);
}

TEST(RequestCacheKey, UnreadableOrMissingInputFails)
{
    CompileRequest missing;
    missing.qasm_file = "/nonexistent/missing.qasm";
    EXPECT_FALSE(request_cache_key(missing).ok());

    CompileRequest none;
    EXPECT_FALSE(request_cache_key(none).ok());
}

/// SR-CaQR on a commuting input first sweeps reuse levels with the
/// commuting QS engine under the request's `qs_commuting` options, so
/// those options split its key; a cached service answers a changed
/// target with a fresh compile, not the first request's report.
TEST(RequestCacheKey, SrCaqrCommutingKeysItsQsCommutingOptions)
{
    util::Rng rng(6);
    CompileRequest request;
    request.strategy = Strategy::kSrCaqr;
    request.commuting = core::CommutingSpec{};
    request.commuting->interaction = graph::random_graph(10, 0.3, rng);
    const auto base = request_cache_key(request);
    ASSERT_TRUE(base.ok()) << base.status().to_string();

    CompileRequest targeted = request;
    targeted.qs_commuting.target_qubits = 9;
    CompileRequest candidates = request;
    candidates.qs_commuting.max_candidates = 7;
    CompileRequest matching = request;
    matching.qs_commuting.scheduling.exact_matching_limit = 3;
    for (const auto* other : {&targeted, &candidates, &matching}) {
        EXPECT_NE(*request_cache_key(*other), *base);
    }

    // A circuit input never reads them.
    CompileRequest circuit;
    circuit.strategy = Strategy::kSrCaqr;
    circuit.circuit = apps::bv_circuit(4);
    CompileRequest circuit_targeted = circuit;
    circuit_targeted.qs_commuting.target_qubits = 9;
    EXPECT_EQ(*request_cache_key(circuit_targeted),
              *request_cache_key(circuit));

    Service service({.num_threads = 1, .cache_capacity = 8});
    const auto first = service.compile(request);
    const auto second = service.compile(targeted);
    ASSERT_TRUE(first.ok()) << first.status.to_string();
    ASSERT_TRUE(second.ok()) << second.status.to_string();
    EXPECT_FALSE(second.from_cache);
    EXPECT_EQ(first.qubits, 6);
    EXPECT_EQ(second.qubits, 8);
}

/// The registry counter @p name, 0 when it was never recorded.
double
counter(const util::metrics::Snapshot& snapshot, const std::string& name)
{
    const auto it = snapshot.counters.find(name);
    return it == snapshot.counters.end() ? 0.0 : it->second;
}

using IntLru = Lru<std::shared_ptr<const int>>;

TEST(Lru, GetRefreshesRecencyAndEvictionReturnsTheDropped)
{
    util::metrics::Registry registry;
    IntLru cache(2, registry, "test.lru");
    const auto one = std::make_shared<const int>(1);
    const auto two = std::make_shared<const int>(2);
    const auto three = std::make_shared<const int>(3);

    EXPECT_TRUE(cache.put("k1", one).empty());
    EXPECT_TRUE(cache.put("k2", two).empty());
    EXPECT_EQ(cache.get("k1"), one);  // k1 now most recent
    const auto dropped = cache.put("k3", three);  // evicts k2, not k1
    ASSERT_EQ(dropped.size(), 1u);
    EXPECT_EQ(dropped[0], two);
    EXPECT_EQ(cache.get("k1"), one);
    EXPECT_EQ(cache.get("k2"), nullptr);
    EXPECT_EQ(cache.get("k3"), three);

    const auto snapshot = registry.snapshot();
    EXPECT_EQ(snapshot.counters.at("test.lru.hit"), 3.0);
    EXPECT_EQ(snapshot.counters.at("test.lru.miss"), 1.0);
    EXPECT_EQ(snapshot.counters.at("test.lru.evict"), 1.0);
    EXPECT_EQ(snapshot.counters.size(), 3u);  // nothing else is counted
}

/// A same-key put hands back the value it replaces, so a caller can
/// retire it — but it is not an eviction.
TEST(Lru, SameKeyPutReturnsTheReplacedValue)
{
    util::metrics::Registry registry;
    IntLru cache(2, registry, "test.lru");
    const auto old_value = std::make_shared<const int>(1);
    const auto new_value = std::make_shared<const int>(2);

    EXPECT_TRUE(cache.put("k", old_value).empty());
    const auto dropped = cache.put("k", new_value);
    ASSERT_EQ(dropped.size(), 1u);
    EXPECT_EQ(dropped[0], old_value);
    EXPECT_EQ(cache.get("k"), new_value);
    EXPECT_EQ(counter(registry.snapshot(), "test.lru.evict"), 0.0);

    // The replacement refreshed "k": a second key then a third evicts
    // the second, not "k".
    cache.put("k2", old_value);
    EXPECT_EQ(cache.get("k"), new_value);
    cache.put("k3", old_value);
    EXPECT_EQ(cache.get("k"), new_value);
    EXPECT_EQ(cache.get("k2"), nullptr);
}

/// TSan coverage: eight threads churn a capacity-2 instance. Every
/// lookup is counted exactly once, as a hit or a miss, and every
/// eviction comes back to the putter that caused it.
TEST(Lru, ConcurrentGetsAndPutsCountEveryLookup)
{
    util::metrics::Registry registry;
    IntLru cache(2, registry, "test.lru");
    constexpr int kThreads = 8;
    constexpr int kRounds = 200;
    std::atomic<int> dropped_values{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kRounds; ++i) {
                const std::string key = std::to_string((t + i) % 5);
                if (const auto value = cache.get(key)) {
                    EXPECT_GE(*value, 0);
                }
                const auto dropped =
                    cache.put(key, std::make_shared<const int>(i));
                dropped_values += static_cast<int>(dropped.size());
            }
        });
    }
    for (auto& thread : threads) thread.join();

    const auto snapshot = registry.snapshot();
    EXPECT_EQ(counter(snapshot, "test.lru.hit") +
                  counter(snapshot, "test.lru.miss"),
              static_cast<double>(kThreads * kRounds));
    // Every put but the two left resident dropped exactly one value
    // (an eviction or a same-key replacement).
    EXPECT_EQ(dropped_values.load(), kThreads * kRounds - 2);
    EXPECT_LE(counter(snapshot, "test.lru.evict"),
              static_cast<double>(dropped_values.load()));
}

/// End to end through the Service: a repeated request is answered from
/// the cache with an identical report, a request differing in any
/// result-affecting option misses.
TEST(ServiceCompile, CacheHitReturnsIdenticalReport)
{
    Service service({.num_threads = 1, .cache_capacity = 8});
    CompileRequest request;
    request.circuit = apps::bv_circuit(4);
    request.name = "bv_4";

    const auto cold = service.compile(request);
    ASSERT_TRUE(cold.ok()) << cold.status.to_string();
    EXPECT_FALSE(cold.from_cache);

    const auto hot = service.compile(request);
    ASSERT_TRUE(hot.ok());
    EXPECT_TRUE(hot.from_cache);
    EXPECT_EQ(hot.name, cold.name);
    EXPECT_EQ(hot.qubits, cold.qubits);
    EXPECT_EQ(hot.depth, cold.depth);
    EXPECT_EQ(hot.swaps, cold.swaps);
    EXPECT_EQ(hot.esp, cold.esp);
    EXPECT_EQ(qasm::to_qasm(hot.compiled), qasm::to_qasm(cold.compiled));

    // A result-affecting option change misses.
    CompileRequest other = request;
    other.qs.target_qubits = 2;
    EXPECT_FALSE(service.compile(other).from_cache);

    const auto snapshot = service.metrics_snapshot();
    EXPECT_EQ(snapshot.counters.at("service.cache.hit"), 1.0);
    EXPECT_EQ(snapshot.counters.at("service.cache.miss"), 2.0);
    // Two entries fit in a capacity-8 cache: nothing was evicted.
    EXPECT_EQ(counter(snapshot, "service.cache.evict"), 0.0);
}

/// Regression: a hit used to keep the name of the file that filled the
/// entry. Two files with the same bytes share one entry, but each
/// report is named for its own file.
TEST(ServiceCompile, CacheHitIsNamedForItsOwnRequest)
{
    const fs::path dir = fs::temp_directory_path() / "caqr_cache_name_test";
    fs::create_directories(dir);
    for (const char* name : {"alpha.qasm", "beta.qasm"}) {
        fs::copy_file(circuits_dir() + "/bv_10.qasm", dir / name,
                      fs::copy_options::overwrite_existing);
    }

    Service service({.num_threads = 1, .cache_capacity = 8});
    CompileRequest alpha;
    alpha.qasm_file = (dir / "alpha.qasm").string();
    CompileRequest beta;
    beta.qasm_file = (dir / "beta.qasm").string();

    const auto first = service.compile(alpha);
    ASSERT_TRUE(first.ok()) << first.status.to_string();
    EXPECT_FALSE(first.from_cache);
    EXPECT_EQ(first.name, "alpha");

    const auto second = service.compile(beta);
    ASSERT_TRUE(second.ok()) << second.status.to_string();
    EXPECT_TRUE(second.from_cache);
    EXPECT_EQ(second.name, "beta");

    // An explicit name still wins over the file stem on a hit.
    CompileRequest named = beta;
    named.name = "gamma";
    EXPECT_EQ(service.compile(named).name, "gamma");
    fs::remove_all(dir);
}

/// With the cache disabled (the default), nothing is ever served from
/// cache and no cache counter is recorded — the historical behavior.
TEST(ServiceCompile, CacheDisabledByDefault)
{
    Service service({.num_threads = 1});
    CompileRequest request;
    request.circuit = apps::bv_circuit(3);
    EXPECT_FALSE(service.compile(request).from_cache);
    EXPECT_FALSE(service.compile(request).from_cache);
    const auto snapshot = service.metrics_snapshot();
    for (const char* name : {"service.cache.hit", "service.cache.miss",
                             "service.cache.evict"}) {
        EXPECT_EQ(snapshot.counters.count(name), 0u) << name;
    }
}

/// Failed compiles are never cached: the same bad request keeps
/// reporting the failure and a fixed input is not shadowed.
TEST(ServiceCompile, FailuresAreNotCached)
{
    Service service({.num_threads = 1, .cache_capacity = 8});
    CompileRequest request;
    request.qasm = "OPENQASM 2.0;\nqreg q[2];\nfrobnicate q[0];\n";
    const auto first = service.compile(request);
    const auto second = service.compile(request);
    EXPECT_FALSE(first.ok());
    EXPECT_FALSE(second.ok());
    EXPECT_FALSE(second.from_cache);
    const auto snapshot = service.metrics_snapshot();
    EXPECT_EQ(counter(snapshot, "service.cache.hit"), 0.0);
    EXPECT_EQ(counter(snapshot, "service.cache.miss"), 2.0);
}

/// Regression: qasm_tool used to exit 0 after printing nothing when
/// the input file was unreadable. It must now report through the
/// envelope and exit nonzero.
TEST(QasmTool, UnreadableInputExitsNonzero)
{
    const std::string tool = CAQR_QASM_TOOL_BIN;
    const auto run = [&](const std::string& args) {
        return std::system(
            (tool + " " + args + " >/dev/null 2>&1").c_str());
    };
    EXPECT_NE(run("/nonexistent/missing.qasm"), 0);
    EXPECT_NE(run(fs::temp_directory_path().string()), 0);  // directory
    EXPECT_NE(run("--batch /nonexistent/nowhere"), 0);
    EXPECT_EQ(run(circuits_dir() + "/bv_10.qasm"), 0);
}

TEST(QasmTool, BatchOfOneQasmFileCompiles)
{
    const fs::path dir = fs::temp_directory_path() / "caqr_batch_one_test";
    fs::create_directories(dir);
    const std::string out = (dir / "one").string();
    const std::string command = std::string(CAQR_QASM_TOOL_BIN) +
                                " --batch " + circuits_dir() +
                                "/bv_10.qasm --out " + out +
                                " >/dev/null 2>&1";
    EXPECT_EQ(std::system(command.c_str()), 0);

    std::ifstream csv(out + ".csv");
    std::string line;
    int rows = 0;
    while (std::getline(csv, line)) ++rows;
    EXPECT_EQ(rows, 2);  // header + bv_10
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// select_by_esp: paper §3.2 version selection.

/// A select_by_esp request on @p circuit.
CompileRequest
select_request(circuit::Circuit circuit)
{
    CompileRequest request;
    request.circuit = std::move(circuit);
    request.select_by_esp = true;
    return request;
}

/// A commuting workload whose ESP winner is not its max-reuse version.
CompileRequest
commuting_request()
{
    util::Rng rng(6);
    CompileRequest request;
    request.commuting = core::CommutingSpec{};
    request.commuting->interaction = graph::random_graph(10, 0.3, rng);
    request.strategy = Strategy::kQsCommuting;
    return request;
}

std::uint64_t
fnv1a(const std::string& text)
{
    std::uint64_t hash = 1469598103934665603ull;
    for (const unsigned char c : text) {
        hash = (hash ^ c) * 1099511628211ull;
    }
    return hash;
}

std::vector<std::string>
stage_names(const CompileReport& report)
{
    std::vector<std::string> names;
    for (const auto& stage : report.stages) names.push_back(stage.stage);
    return names;
}

/// The best ESP over every version mapped with @p options, computed
/// from the passes directly; `qubits_out` gets the winner's qubits.
double
best_esp_under(const circuit::Circuit& circuit,
               const transpile::TranspileOptions& options,
               int* qubits_out)
{
    const auto backend = arch::Backend::fake_mumbai();
    const auto result = core::qs_caqr_or(circuit).value();
    double best = -1.0;
    for (std::size_t i = 0; i < result.versions.size(); ++i) {
        const auto mapped =
            transpile::transpile_or(result.circuit(i), backend, options)
                .value();
        const double esp =
            arch::estimated_success_probability(mapped.circuit, backend);
        if (esp > best) {
            best = esp;
            *qubits_out = result.versions[i].qubits;
        }
    }
    return best;
}

/// Versions are ranked under the request's own transpile options, and
/// the report carries the winner's mapping: the ESP it was ranked on.
TEST(ServiceSelect, ReportedEspIsTheBestUnderOwnOptions)
{
    Service service({.num_threads = 1});

    auto multiply = select_request(
        apps::get_benchmark("multiply_13")->circuit);
    multiply.transpile.trials = 1;
    const auto a = service.compile(multiply);
    ASSERT_TRUE(a.ok()) << a.status.to_string();
    int best_qubits = 0;
    EXPECT_EQ(a.esp, best_esp_under(*multiply.circuit, multiply.transpile,
                                    &best_qubits));
    EXPECT_EQ(a.qubits, best_qubits);
    EXPECT_EQ(a.qubits, 7);
    EXPECT_NEAR(a.esp, 0.006279897263411151, 1e-15);

    auto coin = select_request(apps::cc_circuit(16));
    coin.transpile.trials = 8;
    const auto b = service.compile(coin);
    ASSERT_TRUE(b.ok()) << b.status.to_string();
    EXPECT_EQ(b.esp,
              best_esp_under(*coin.circuit, coin.transpile, &best_qubits));
    EXPECT_EQ(b.qubits, best_qubits);
    EXPECT_EQ(b.qubits, 2);
    EXPECT_NEAR(b.esp, 0.40438451209492299, 1e-14);
}

/// With default options the selection is the one ranked under default
/// options before selection kept the winner's route (values pinned from
/// that implementation).
TEST(ServiceSelect, DefaultOptionsKeepTheirPick)
{
    Service service({.num_threads = 1});
    const auto multiply = service.compile(
        select_request(apps::get_benchmark("multiply_13")->circuit));
    ASSERT_TRUE(multiply.ok()) << multiply.status.to_string();
    EXPECT_EQ(multiply.qubits, 6);
    EXPECT_EQ(multiply.reuses, 7);
    EXPECT_EQ(multiply.depth, 148);
    EXPECT_EQ(multiply.swaps, 29);
    EXPECT_EQ(multiply.compiled.size(), 217u);
    EXPECT_NEAR(multiply.duration_dt, 364563.01574089355, 1e-6);
    EXPECT_NEAR(multiply.esp, 0.0052537681332126707, 1e-16);
    EXPECT_EQ(fnv1a(qasm::to_qasm(multiply.compiled)),
              0x1f0b9572d202605full);

    const auto coin =
        service.compile(select_request(apps::cc_circuit(16)));
    ASSERT_TRUE(coin.ok()) << coin.status.to_string();
    EXPECT_EQ(coin.qubits, 10);
    EXPECT_EQ(coin.reuses, 6);
    EXPECT_EQ(coin.depth, 17);
    EXPECT_EQ(coin.swaps, 4);
    EXPECT_EQ(coin.compiled.size(), 53u);
    EXPECT_NEAR(coin.duration_dt, 70083.19361192167, 1e-6);
    EXPECT_NEAR(coin.esp, 0.40122863335946751, 1e-14);
    EXPECT_EQ(fnv1a(qasm::to_qasm(coin.compiled)), 0x752d5d1912b8b42bull);
}

/// qs_commuting selects too, and never below its max-reuse version.
TEST(ServiceSelect, CommutingSelectionBeatsMaxReuse)
{
    Service service({.num_threads = 1});
    auto request = commuting_request();
    const auto max_reuse = service.compile(request);
    request.select_by_esp = true;
    const auto selected = service.compile(request);
    ASSERT_TRUE(max_reuse.ok()) << max_reuse.status.to_string();
    ASSERT_TRUE(selected.ok()) << selected.status.to_string();
    EXPECT_GE(selected.esp, max_reuse.esp);
    EXPECT_GT(selected.qubits, max_reuse.qubits);  // this graph's winner
    EXPECT_EQ(stage_names(selected),
              (std::vector<std::string>{"load", "backend", "qs_commuting",
                                        "select_version"}));
}

/// The winner is routed once, inside select_version: a selecting
/// request runs exactly the routes of mapping every version once.
TEST(ServiceSelect, WinnerIsRoutedOnce)
{
    Service service({.num_threads = 1});
    const auto request = select_request(apps::bv_circuit(10));
    const auto routes = [&] {
        const auto counters = service.metrics_snapshot().counters;
        const auto it = counters.find("transpile.routes");
        return it == counters.end() ? 0.0 : it->second;
    };
    double before = routes();
    const auto report = service.compile(request);
    ASSERT_TRUE(report.ok()) << report.status.to_string();
    const double selecting = routes() - before;
    EXPECT_EQ(stage_names(report),
              (std::vector<std::string>{"load", "backend", "qs_caqr",
                                        "select_version"}));

    before = routes();
    const core::VersionSet versions(
        core::qs_caqr_or(*request.circuit).value());
    const auto backend = service.backend(request.backend).value();
    ASSERT_TRUE(core::map_versions(versions, *backend).ok());
    EXPECT_EQ(selecting, routes() - before);
}

TEST(ServiceSelect, DeterministicAcrossThreadCounts)
{
    std::vector<CompileRequest> requests;
    requests.push_back(
        select_request(apps::get_benchmark("multiply_13")->circuit));
    requests.back().transpile.trials = 1;
    requests.push_back(select_request(apps::cc_circuit(16)));
    requests.back().transpile.trials = 8;
    requests.push_back(commuting_request());
    requests.back().select_by_esp = true;

    Service serial({.num_threads = 1});
    Service wide({.num_threads = 4});
    for (const auto& request : requests) {
        const auto a = serial.compile(request);
        const auto b = wide.compile(request);
        ASSERT_TRUE(a.ok()) << a.status.to_string();
        EXPECT_EQ(report_fingerprint(a), report_fingerprint(b));
    }
    const auto a = serial.compile_batch(requests);
    const auto b = wide.compile_batch(requests);
    for (std::size_t i = 0; i < requests.size(); ++i) {
        EXPECT_EQ(report_fingerprint(a[i]), report_fingerprint(b[i])) << i;
    }
}

/// Where there is nothing to select, the load stage rejects the flag
/// before any pass runs.
TEST(ServiceSelect, RejectedWhereNothingIsSelected)
{
    Service service({.num_threads = 1});
    const auto expect_rejected = [&](const CompileRequest& request) {
        const auto report = service.compile(request);
        EXPECT_EQ(report.status.code(), util::StatusCode::kInvalidArgument)
            << report.status.to_string();
        EXPECT_EQ(stage_names(report), (std::vector<std::string>{"load"}));
    };

    auto baseline = select_request(apps::bv_circuit(6));
    baseline.strategy = Strategy::kBaseline;
    expect_rejected(baseline);

    auto sr = select_request(apps::bv_circuit(6));
    sr.strategy = Strategy::kSrCaqr;
    expect_rejected(sr);

    auto logical = select_request(apps::bv_circuit(6));
    logical.map_to_backend = false;
    expect_rejected(logical);

    auto commuting = commuting_request();
    commuting.select_by_esp = true;
    commuting.map_to_backend = false;
    expect_rejected(commuting);
}

// ---------------------------------------------------------------------
// ESP: the mapping pass scores its winner once; nothing re-measures it.

/// Compiles @p request and requires its ESP to equal the one computed
/// afresh from the compiled circuit, bit for bit.
void
expect_esp_of_compiled(Service& service, const CompileRequest& request,
                       const std::string& label)
{
    const auto report = service.compile(request);
    ASSERT_TRUE(report.ok()) << label << ": " << report.status.to_string();
    for (const auto& stage : report.stages) EXPECT_NE(stage.stage, "esp");
    const auto backend = service.backend(request.backend).value();
    EXPECT_GT(report.esp, 0.0) << label;
    EXPECT_EQ(report.esp,
              arch::estimated_success_probability(report.compiled, *backend))
        << label;
}

TEST(ServiceEsp, ReportedEspMatchesTheSlowPath)
{
    Service service({.num_threads = 1});
    const auto multiply = apps::get_benchmark("multiply_13")->circuit;

    // Baseline: one trial, and four, where a challenger beats the
    // anchor.
    for (const int trials : {1, 4}) {
        CompileRequest baseline;
        baseline.circuit = multiply;
        baseline.strategy = Strategy::kBaseline;
        baseline.transpile.trials = trials;
        expect_esp_of_compiled(service, baseline,
                               "baseline trials " + std::to_string(trials));
    }

    CompileRequest qs;
    qs.circuit = multiply;
    expect_esp_of_compiled(service, qs, "qs_caqr");

    expect_esp_of_compiled(service, select_request(multiply),
                           "select_by_esp qs_caqr");
    auto commuting = commuting_request();
    commuting.select_by_esp = true;
    expect_esp_of_compiled(service, commuting, "select_by_esp qs_commuting");

    // SR-CaQR: on 4mod5 the wider portfolio beats the anchor.
    CompileRequest sr;
    sr.circuit = apps::get_benchmark("4mod5")->circuit;
    sr.strategy = Strategy::kSrCaqr;
    expect_esp_of_compiled(service, sr, "sr_caqr");
    auto sr_commuting = commuting_request();
    sr_commuting.strategy = Strategy::kSrCaqr;
    expect_esp_of_compiled(service, sr_commuting, "sr_caqr commuting");
}

/// On a device of two components the anchor's greedy layout splits a
/// gate and fails; the winner is another trial, and its ESP is the one
/// returned.
TEST(ServiceEsp, FailedAnchorReturnsTheWinnersEsp)
{
    graph::UndirectedGraph topology(10);
    for (int v = 1; v < 5; ++v) topology.add_edge(v - 1, v);
    for (int v = 6; v < 10; ++v) topology.add_edge(v - 1, v);
    const arch::Backend backend("split", topology,
                                arch::Calibration::synthesize(topology));
    // Odd and even qubits interact only among themselves; qubit 0 idles.
    circuit::Circuit logical(9, 0);
    logical.h(1);
    logical.cx(3, 1);
    logical.cx(2, 6);
    logical.cx(4, 8);
    logical.cx(2, 8);
    logical.cx(1, 3);
    logical.cx(5, 7);
    logical.h(2);

    // Two trials without refinement route only the anchor's layout.
    transpile::TranspileOptions anchor_only;
    anchor_only.trials = 2;
    anchor_only.layout_refine_passes = 0;
    ASSERT_FALSE(transpile::transpile_or(logical, backend, anchor_only).ok());

    transpile::TranspileOptions options;
    options.trials = 8;
    const auto mapped = transpile::transpile_or(logical, backend, options);
    ASSERT_TRUE(mapped.ok()) << mapped.status().to_string();
    EXPECT_GT(mapped->esp, 0.0);
    EXPECT_EQ(mapped->esp,
              arch::estimated_success_probability(mapped->circuit, backend));
}

}  // namespace
