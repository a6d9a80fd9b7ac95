/**
 * @file
 * Command-line QASM tool on top of the batch compilation service.
 *
 * Single-circuit mode reads an OpenQASM 2.0 circuit from stdin (or a
 * file), applies CaQR through `caqr::Service`, and emits the
 * transformed dynamic circuit. Batch mode (`--batch`) compiles every
 * .qasm file named by a directory or manifest concurrently and emits
 * a CSV report plus trace artifacts; `--repeat N` repeats the batch
 * (after a discarded warmup) so the timing columns are medians stable
 * enough to baseline. Serve mode (`--serve`) keeps one long-lived
 * `caqr::Service` behind a stdin line protocol — `compile`, `batch`,
 * `stats` (live latency-histogram snapshot), `set`, `reset`, `quit` —
 * see docs/observability.md for the protocol.
 *
 * Bind mode (`--bind V1,V2,...`) runs the compile-once/bind-many path:
 * the input compiles once as a template (named parameters in the QASM
 * become template parameters) and the comma-separated values rebind
 * the frozen schedule; the bound circuit prints as QASM.
 *
 * Usage:
 *   qasm_tool [--target-qubits N] [--stats] [file.qasm]
 *   qasm_tool --bind V1,V2,... [file.qasm]
 *   qasm_tool --batch PATH [--strategy S] [--backend B] [--threads N]
 *             [--repeat N] [--out PREFIX]
 *   qasm_tool --serve [--strategy S] [--backend B] [--threads N]
 *   qasm_tool --export-benchmarks DIR
 *
 * With no file, reads stdin. `--stats` prints the sweep table instead
 * of QASM. `--export-benchmarks` writes the built-in benchmark suite
 * as .qasm files into DIR (the source tree ships the result in
 * `circuits/`). Any I/O, parse, or compilation failure is reported on
 * stderr and exits nonzero.
 */
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/benchmarks.h"
#include "core/qs_caqr.h"
#include "qasm/parser.h"
#include "qasm/printer.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/service.h"
#include "util/metrics.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace {

constexpr const char kUsage[] =
    "usage: qasm_tool [--target-qubits N] [--stats] [file.qasm]\n"
    "       qasm_tool --bind V1,V2,... [file.qasm]\n"
    "       qasm_tool --batch PATH [--strategy S] [--backend B]\n"
    "                 [--threads N] [--repeat N] [--out PREFIX]\n"
    "       qasm_tool --serve [--strategy S] [--backend B] [--threads N]\n"
    "                 [--cache N] [--slow-ms MS] [--slow-dir DIR]\n"
    "       qasm_tool --listen PORT [--strategy S] [--backend B]\n"
    "                 [--threads N] [--cache N] [--max-sessions N]\n"
    "                 [--idle-timeout-ms N] [--slow-ms MS]\n"
    "                 [--slow-dir DIR] [--event-log FILE]\n"
    "       qasm_tool --export-benchmarks DIR\n"
    "\n"
    "observability (see docs/observability.md):\n"
    "  --slow-ms MS     capture per-request span trees; a request\n"
    "                   slower than MS (or failing) leaves\n"
    "                   slow_req_<id>.trace.json behind\n"
    "  --slow-dir DIR   directory for slow-request traces (default .)\n"
    "  --event-log FILE append one JSON object per serving event\n"
    "                   (JSONL); --listen also serves GET /metrics,\n"
    "                   /healthz, /varz on the same port\n";

int
export_benchmarks(const std::string& dir)
{
    using namespace caqr;
    for (const auto& name : apps::regular_benchmark_names()) {
        const auto bench = apps::get_benchmark(name);
        const std::string path = dir + "/" + name + ".qasm";
        std::ofstream out(path);
        if (!out) {
            std::cerr << "error: cannot write '" << path << "'\n";
            return 1;
        }
        out << qasm::to_qasm(bench->circuit);
        std::cout << "wrote " << path << "\n";
    }
    return 0;
}

/// Compiles every .qasm under @p batch_path through one Service and
/// writes <out>.csv + <out>.trace.json/.metrics.csv. With @p repeat
/// > 1, one warmup batch is discarded and the timing columns become
/// per-stage medians over the repeats (results are deterministic, so
/// only timings vary). Exits nonzero if any circuit fails.
int
run_batch(const std::string& batch_path, const std::string& strategy_name,
          const std::string& backend, int threads, int repeat,
          const std::string& out)
{
    using namespace caqr;

    const auto strategy = parse_strategy(strategy_name);
    if (!strategy.ok()) {
        std::cerr << "error: " << strategy.status().to_string() << "\n";
        return 1;
    }
    if (repeat < 1) {
        std::cerr << "error: --repeat needs a positive count\n";
        return 1;
    }

    CompileRequest prototype;
    prototype.strategy = *strategy;
    prototype.backend = backend;
    // The batch level owns the parallelism; each request compiles
    // serially so N circuits use N threads, not N x hardware.
    prototype.qs.num_threads = 1;
    prototype.qs_commuting.num_threads = 1;
    prototype.transpile.num_threads = 1;
    prototype.sr.num_threads = 1;

    const auto requests = requests_from_path(batch_path, prototype);
    if (!requests.ok()) {
        std::cerr << "error: " << requests.status().to_string() << "\n";
        return 1;
    }

    util::trace::set_enabled(true);
    Service service({.num_threads = threads});

    if (repeat > 1) service.compile_batch(*requests);  // warmup, dropped
    std::vector<std::vector<CompileReport>> runs;
    runs.reserve(static_cast<std::size_t>(repeat));
    for (int r = 0; r < repeat; ++r) {
        runs.push_back(service.compile_batch(*requests));
    }
    auto reports = std::move(runs.back());
    runs.pop_back();
    // Replace each report's stage timings with the median across
    // repeats; stage lists are identical across runs of the same
    // deterministic pipeline.
    for (std::size_t i = 0; i < reports.size(); ++i) {
        for (std::size_t s = 0; s < reports[i].stages.size(); ++s) {
            std::vector<double> samples{reports[i].stages[s].ms};
            for (const auto& run : runs) {
                if (i < run.size() &&
                    s < run[i].stages.size() &&
                    run[i].stages[s].stage == reports[i].stages[s].stage) {
                    samples.push_back(run[i].stages[s].ms);
                }
            }
            reports[i].stages[s].ms = util::median(samples);
        }
    }

    const std::string csv_path = out + ".csv";
    std::ofstream csv(csv_path);
    if (!csv) {
        std::cerr << "error: cannot write '" << csv_path << "'\n";
        return 1;
    }
    csv << batch_csv_header() << "\n";

    util::Table table({"circuit", "status", "qubits", "depth", "SWAPs"});
    table.set_title("Batch compile: " + batch_path + " (" +
                    strategy_name + " on " + backend + ")");
    int failures = 0;
    for (const auto& report : reports) {
        csv << batch_csv_row(report) << "\n";
        table.add_row(
            {report.name, report.status.ok() ? "ok" : "FAILED",
             util::Table::fmt(static_cast<long long>(report.qubits)),
             util::Table::fmt(static_cast<long long>(report.depth)),
             util::Table::fmt(static_cast<long long>(report.swaps))});
        if (!report.status.ok()) {
            ++failures;
            std::cerr << "error: " << report.name << ": "
                      << report.status.to_string() << "\n";
        }
    }
    table.print(std::cout);

    const auto metrics = service.metrics_snapshot();
    if (!util::trace::write_run_artifacts(out, metrics)) {
        std::cerr << "error: cannot write trace artifacts '" << out
                  << ".trace.json'\n";
        return 1;
    }
    if (repeat > 1) {
        std::cout << "timing columns: per-stage median of " << repeat
                  << " runs (1 warmup discarded)\n";
    }
    const auto count = [&](const std::string& name) {
        const auto it = metrics.counters.find(name);
        return it == metrics.counters.end() ? 0.0 : it->second;
    };
    std::cout << "\nwrote " << csv_path << ", " << out << ".trace.json, "
              << out << ".metrics.csv ("
              << count("service.backend_cache.miss") << " backend build(s), "
              << count("service.backend_cache.hit") << " cache hit(s))\n";
    return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------
// Serve mode: the serve::Session line protocol over stdin or TCP
// ---------------------------------------------------------------------

/**
 * The `--serve` loop: the `serve::Session` protocol (see
 * service/protocol.h and docs/serving.md) over stdin/stdout, flushing
 * after every response block so a pipe-driven client can interleave.
 *
 * Reads raw fd 0 through the same `LineBuffer` framing the TCP
 * transport uses, so a final command line without a trailing newline
 * is still served before EOF ends the session with `ok bye` and
 * exit 0.
 */
int
run_serve(const std::string& initial_strategy,
          const std::string& initial_backend, int threads,
          std::size_t cache_capacity, double slow_ms,
          const std::string& slow_dir)
{
    using namespace caqr;

    const auto strategy = parse_strategy(initial_strategy);
    if (!strategy.ok()) {
        std::cerr << "error: " << strategy.status().to_string() << "\n";
        return 1;
    }

    Service service({.num_threads = threads,
                     .cache_capacity = cache_capacity,
                     .slow_request_ms = slow_ms,
                     .slow_trace_dir = slow_dir});
    serve::SessionOptions options;
    options.strategy = *strategy;
    options.backend = initial_backend;
    serve::Session session(service, options);

    std::cout << serve::Session::greeting(options) << std::flush;

    constexpr std::size_t kMaxLineBytes = 64 * 1024;
    serve::LineBuffer lines(kMaxLineBytes);
    char buffer[4096];
    bool quit = false;
    while (!quit) {
        const auto n = ::read(0, buffer, sizeof(buffer));
        if (n > 0) {
            if (!lines.append(buffer, static_cast<std::size_t>(n))) {
                std::cout << "error line exceeds " << kMaxLineBytes
                          << " bytes, closing" << std::endl;
                break;
            }
            while (!quit) {
                auto line = lines.next_line();
                if (!line.has_value()) break;
                const auto result = session.handle_line(*line);
                std::cout << result.output << std::flush;
                quit = result.quit;
            }
            continue;
        }
        if (n == 0) {
            // EOF; a final unterminated line is still one command.
            if (auto partial = lines.take_partial();
                partial.has_value() && !partial->empty()) {
                const auto result = session.handle_line(*partial);
                std::cout << result.output << std::flush;
                quit = result.quit;
            }
            break;
        }
        if (errno == EINTR) continue;
        break;
    }
    // `quit` already answered "ok bye"; EOF says goodbye here.
    if (!quit) std::cout << "ok bye" << std::endl;
    return 0;
}

/// The drain hook for `--listen`: SIGTERM/SIGINT ask the server to
/// finish in-flight work, flush, and exit. request_drain() is
/// async-signal-safe.
caqr::serve::Server* g_listen_server = nullptr;

extern "C" void
qasm_tool_drain_signal(int)
{
    if (g_listen_server != nullptr) g_listen_server->request_drain();
}

/**
 * The `--listen PORT` loop: the same protocol served over TCP by the
 * epoll front end (service/server.h), many concurrent sessions over
 * one shared Service. Announces the bound address on stdout as
 * `ok caqr listen <addr>:<port> ...` (PORT may be 0 for an ephemeral
 * port — scripts parse the port from this line), then blocks until
 * SIGTERM/SIGINT triggers a graceful drain.
 */
int
run_listen(int port, const std::string& initial_strategy,
           const std::string& initial_backend, int threads,
           std::size_t cache_capacity, int max_sessions,
           int idle_timeout_ms, double slow_ms,
           const std::string& slow_dir, const std::string& event_log)
{
    using namespace caqr;

    const auto strategy = parse_strategy(initial_strategy);
    if (!strategy.ok()) {
        std::cerr << "error: " << strategy.status().to_string() << "\n";
        return 1;
    }

    Service service({.num_threads = threads,
                     .cache_capacity = cache_capacity,
                     .slow_request_ms = slow_ms,
                     .slow_trace_dir = slow_dir});
    serve::ServerOptions options;
    options.port = port;
    options.max_sessions = max_sessions;
    options.idle_timeout_ms = idle_timeout_ms;
    options.num_workers = threads;
    options.event_log_path = event_log;
    options.session.strategy = *strategy;
    options.session.backend = initial_backend;

    serve::Server server(service, options);
    const auto started = server.start();
    if (!started.ok()) {
        std::cerr << "error: " << started.to_string() << "\n";
        return 1;
    }

    g_listen_server = &server;
    std::signal(SIGTERM, qasm_tool_drain_signal);
    std::signal(SIGINT, qasm_tool_drain_signal);

    std::cout << "ok caqr listen " << options.bind_address << ":"
              << server.port() << " (strategy="
              << strategy_name(*strategy) << " backend="
              << initial_backend << " cache=" << cache_capacity
              << " workers="
              << util::ThreadPool::resolve_threads(threads) << ")"
              << std::endl;

    server.wait();
    g_listen_server = nullptr;

    // The transport counters live in the service registry, so they
    // count from the last `reset`, like `stats`.
    const auto counters = service.metrics_snapshot().counters;
    const auto count = [&](const std::string& name) {
        const auto it = counters.find("server." + name);
        return it == counters.end() ? 0LL : static_cast<long long>(it->second);
    };
    std::cout << "ok bye connections=" << count("connections")
              << " requests=" << count("requests")
              << " rejected_busy=" << count("rejected_busy")
              << " timeouts=" << count("timeouts") << std::endl;
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    using namespace caqr;

    int target_qubits = -1;
    bool stats_only = false;
    bool bind_mode = false;
    std::string bind_values;
    bool serve = false;
    bool listen = false;
    int listen_port = 0;
    std::string path;
    std::string batch_path;
    std::string strategy = "qs_caqr";
    std::string backend = "FakeMumbai";
    std::string out = "qasm_batch";
    int threads = 0;
    int repeat = 1;
    std::size_t cache_capacity = 0;
    int max_sessions = 64;
    int idle_timeout_ms = 30000;
    double slow_ms = 0.0;
    std::string slow_dir;
    std::string event_log;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--target-qubits" && i + 1 < argc) {
            target_qubits = std::stoi(argv[++i]);
        } else if (arg == "--stats") {
            stats_only = true;
        } else if (arg == "--bind" && i + 1 < argc) {
            bind_mode = true;
            bind_values = argv[++i];
        } else if (arg == "--serve") {
            serve = true;
        } else if (arg == "--listen" && i + 1 < argc) {
            listen = true;
            listen_port = std::stoi(argv[++i]);
        } else if (arg == "--cache" && i + 1 < argc) {
            const long long entries = std::stoll(argv[++i]);
            cache_capacity = entries > 0
                                 ? static_cast<std::size_t>(entries)
                                 : 0;
        } else if (arg == "--max-sessions" && i + 1 < argc) {
            max_sessions = std::stoi(argv[++i]);
        } else if (arg == "--idle-timeout-ms" && i + 1 < argc) {
            idle_timeout_ms = std::stoi(argv[++i]);
        } else if (arg == "--slow-ms" && i + 1 < argc) {
            slow_ms = std::stod(argv[++i]);
        } else if (arg == "--slow-dir" && i + 1 < argc) {
            slow_dir = argv[++i];
        } else if (arg == "--event-log" && i + 1 < argc) {
            event_log = argv[++i];
        } else if (arg == "--export-benchmarks" && i + 1 < argc) {
            return export_benchmarks(argv[++i]);
        } else if (arg == "--batch" && i + 1 < argc) {
            batch_path = argv[++i];
        } else if (arg == "--strategy" && i + 1 < argc) {
            strategy = argv[++i];
        } else if (arg == "--backend" && i + 1 < argc) {
            backend = argv[++i];
        } else if (arg == "--threads" && i + 1 < argc) {
            threads = std::stoi(argv[++i]);
        } else if (arg == "--repeat" && i + 1 < argc) {
            repeat = std::stoi(argv[++i]);
        } else if (arg == "--out" && i + 1 < argc) {
            out = argv[++i];
        } else if (arg == "--help") {
            std::cout << kUsage;
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "error: unknown option '" << arg << "'\n"
                      << kUsage;
            return 1;
        } else {
            path = arg;
        }
    }

    if (listen) {
        return run_listen(listen_port, strategy, backend, threads,
                          cache_capacity, max_sessions, idle_timeout_ms,
                          slow_ms, slow_dir, event_log);
    }
    if (serve) {
        return run_serve(strategy, backend, threads, cache_capacity,
                         slow_ms, slow_dir);
    }
    if (!batch_path.empty()) {
        return run_batch(batch_path, strategy, backend, threads, repeat,
                         out);
    }

    // Single-circuit mode: one request through the service, QS-CaQR at
    // the logical level (no hardware mapping), exactly the historical
    // tool behavior but with uniform error reporting.
    CompileRequest request;
    request.strategy = Strategy::kQsCaqr;
    request.map_to_backend = false;
    request.qs.target_qubits = target_qubits;
    if (path.empty()) {
        std::ostringstream buffer;
        buffer << std::cin.rdbuf();
        request.qasm = buffer.str();
        request.name = "<stdin>";
    } else {
        request.qasm_file = path;
    }

    if (stats_only) {
        // The sweep table needs every version, which the single-report
        // facade does not carry — drive the pass directly through the
        // same envelope the service uses.
        auto parsed = path.empty() ? qasm::parse_circuit(request.qasm)
                                   : qasm::parse_circuit_file(path);
        if (!parsed.ok()) {
            std::cerr << "error: " << parsed.status().to_string() << "\n";
            return 1;
        }
        core::QsCaqrOptions options;
        const auto result = core::qs_caqr_or(*parsed, options).value();
        util::trace::write_env_artifacts("qasm_tool",
                                         util::metrics::global().snapshot());
        util::Table table({"qubits", "depth", "duration (dt)"});
        table.set_title("QS-CaQR sweep");
        for (const auto& version : result.versions) {
            table.add_row(
                {util::Table::fmt(static_cast<long long>(version.qubits)),
                 util::Table::fmt(static_cast<long long>(version.depth)),
                 util::Table::fmt(version.duration_dt, 0)});
        }
        table.print(std::cout);
        if (target_qubits >= 0 &&
            result.versions.back().qubits > target_qubits) {
            std::cerr << "note: target of " << target_qubits
                      << " qubits is not reachable\n";
        }
        return 0;
    }

    Service service({.num_threads = 1});

    if (bind_mode) {
        // Compile-once / bind-many: the template freezes the schedule,
        // the values rebind its named parameters in table order.
        std::vector<double> values;
        std::istringstream list(bind_values);
        std::string token;
        while (std::getline(list, token, ',')) {
            if (token.empty()) continue;
            try {
                values.push_back(std::stod(token));
            } catch (const std::exception&) {
                std::cerr << "error: --bind value '" << token
                          << "' is not a number\n";
                return 1;
            }
        }
        const auto handle = service.compile_template(request);
        if (!handle.ok()) {
            std::cerr << "error: " << handle.status().to_string() << "\n";
            return 1;
        }
        const auto bound = service.bind(*handle, values);
        if (!bound.ok()) {
            std::cerr << "error: " << bound.status().to_string() << "\n";
            return 1;
        }
        std::cout << qasm::to_qasm(bound->compiled);
        return 0;
    }

    const auto report = service.compile(request);

    // Opt-in observability: CAQR_TRACE=1 leaves
    // qasm_tool.trace.json / .metrics.csv next to the output.
    util::trace::write_env_artifacts("qasm_tool", service.metrics_snapshot());

    if (!report.ok()) {
        std::cerr << "error: " << report.status.to_string() << "\n";
        return 1;
    }
    std::cout << qasm::to_qasm(report.compiled);
    return 0;
}
