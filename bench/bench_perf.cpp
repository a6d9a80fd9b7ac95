/**
 * @file
 * Machine-readable performance + quality baseline for the compile
 * pipeline.
 *
 * Runs a fixed corpus — every `.qasm` in circuits/ under the baseline,
 * QS-CaQR, and SR-CaQR strategies, two synthetic QAOA commuting
 * workloads under QS-CaQR-commuting, two simulator-backed entries
 * (single-threaded and shot-parallel), and a device-scale tier of
 * generated BV, counterfeit-coin and QAOA circuits on heavy-hex
 * 127/433 —
 * through one `caqr::Service` with warmup + repeat sampling, and
 * emits a schema-versioned `BENCH_caqr.json`:
 *
 *   { "schema_version": 1, "generator": "bench_perf",
 *     "git_sha": "...", "threads": 1, "warmup": 1, "repeats": 3,
 *     "benchmarks": [ { "name", "strategy", "backend",
 *       "wall_ms_median", "wall_ms_p90", "wall_ms_min",
 *       "qubits", "depth", "swaps", "reuses", "esp",
 *       "shots_per_sec" (sim entries only) }, ... ],
 *     "metrics": { <util::metrics::Snapshot JSON> } }
 *
 * Quality fields (qubits/depth/swaps/reuses/esp) are deterministic;
 * wall fields are medians over `--repeats` timed runs after
 * `--warmup` discarded runs. `tools/check_regression.py` diffs two
 * such documents and gates CI. Entries whose pipeline legitimately
 * fails (e.g. baseline mapping of 64-qubit BV onto 27-qubit Mumbai is
 * infeasible) are reported on stderr and excluded — nothing is
 * dropped silently.
 *
 * Usage: bench_perf [--out PATH] [--repeats N] [--warmup N]
 *                   [--corpus DIR] [--backend B]
 */
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "apps/benchmarks.h"
#include "apps/qaoa.h"
#include "core/commuting.h"
#include "graph/generators.h"
#include "service/service.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace caqr;

constexpr int kSchemaVersion = 1;

/// Short git revision of the working tree: $CAQR_GIT_SHA wins (CI
/// sets it from the checkout), then `git rev-parse`, then "unknown".
std::string
git_sha()
{
    if (const char* env = std::getenv("CAQR_GIT_SHA");
        env != nullptr && *env != '\0') {
        return env;
    }
    std::string sha;
    if (FILE* pipe = ::popen("git rev-parse --short HEAD 2>/dev/null",
                             "r")) {
        char buffer[64];
        if (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
            sha = buffer;
        }
        ::pclose(pipe);
    }
    while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
        sha.pop_back();
    }
    return sha.empty() ? "unknown" : sha;
}

std::string
json_number(double value)
{
    std::ostringstream os;
    os.precision(17);
    os << value;
    return os.str();
}

/// One corpus entry: a request prototype plus its stable identity.
struct BenchCase
{
    std::string name;
    CompileRequest request;
    bool simulate = false;
};

/// One finished entry, quality + sampled timing.
struct BenchResult
{
    std::string name;
    std::string strategy;
    std::string backend;
    double wall_ms_median = 0.0;
    double wall_ms_p90 = 0.0;
    double wall_ms_min = 0.0;
    int qubits = 0;
    int depth = 0;
    int swaps = 0;
    int reuses = 0;
    double esp = 0.0;
    std::optional<double> shots_per_sec;
    /// Template-bind entries only: fresh-compile median over bind
    /// median for the same skeleton (compile-once / bind-many payoff).
    std::optional<double> bind_speedup;
    /// The raced-routing entry only: serial 32-trial median over the
    /// 8-thread raced median for the same request. Emitted only on
    /// machines with >= 8 hardware threads — anything smaller cannot
    /// demonstrate the scaling and would only baseline noise.
    std::optional<double> trial_speedup;
};

/// Wall-clock ms of the simulate stage, if the request ran one.
std::optional<double>
simulate_stage_ms(const CompileReport& report)
{
    for (const auto& stage : report.stages) {
        if (stage.stage == "simulate") return stage.ms;
    }
    return std::nullopt;
}

/// QAOA max-cut circuit (one layer) on a ring of @p nodes plus
/// nodes / 2 chords seeded by @p seed: connected, mean degree 3.
circuit::Circuit
ring_qaoa(int nodes, unsigned seed)
{
    util::Rng rng(seed);
    graph::UndirectedGraph problem(nodes);
    for (int v = 0; v < nodes; ++v) problem.add_edge(v, (v + 1) % nodes);
    for (int added = 0; added < nodes / 2;) {
        const int u = rng.next_int(0, nodes - 1);
        const int v = rng.next_int(0, nodes - 1);
        if (u != v && problem.add_edge(u, v)) ++added;
    }
    apps::QaoaParams params;
    params.gammas = {0.7};
    params.betas = {0.3};
    return apps::qaoa_circuit(problem, params);
}

/// The fixed corpus: every circuits/*.qasm x {baseline, qs_caqr,
/// sr_caqr}, two synthetic QAOA interaction graphs under
/// qs_commuting, bv_10 with the shot simulator attached at one and
/// eight threads, multiply_13 routed with 32 trials at one and eight
/// threads, generated BV-127/BV-400 on scaled heavy-hex (baseline,
/// QS-CaQR, and SR-CaQR at 127), SR-CaQR of CC-127 and of a QAOA-64
/// on heavy_hex:127, and the baseline of a fixed-seed QAOA-256 and of
/// CC-400 on heavy_hex:433.
std::vector<BenchCase>
build_corpus(const std::string& corpus_dir, const std::string& backend)
{
    std::vector<BenchCase> cases;

    CompileRequest prototype;
    prototype.backend = backend;
    prototype.qs.num_threads = 1;
    prototype.qs_commuting.num_threads = 1;
    prototype.transpile.num_threads = 1;
    prototype.sr.num_threads = 1;

    for (const Strategy strategy :
         {Strategy::kBaseline, Strategy::kQsCaqr, Strategy::kSrCaqr}) {
        CompileRequest request = prototype;
        request.strategy = strategy;
        const auto requests = requests_from_path(corpus_dir, request);
        if (!requests.ok()) {
            std::fprintf(stderr, "error: %s\n",
                         requests.status().to_string().c_str());
            std::exit(2);
        }
        for (const auto& expanded : *requests) {
            BenchCase entry;
            entry.request = expanded;
            cases.push_back(std::move(entry));
        }
    }

    // Commuting workloads have no .qasm form; fixed seeds keep the
    // interaction graphs — and so the quality metrics — bit-stable.
    for (const auto& [nodes, prob, seed] :
         {std::tuple<int, double, unsigned>{12, 0.30, 7u},
          std::tuple<int, double, unsigned>{16, 0.25, 11u}}) {
        util::Rng rng(seed);
        core::CommutingSpec spec;
        spec.interaction = graph::random_graph(nodes, prob, rng);
        BenchCase entry;
        entry.name = "qaoa_" + std::to_string(nodes);
        entry.request = prototype;
        entry.request.name = entry.name;
        entry.request.strategy = Strategy::kQsCommuting;
        entry.request.commuting = spec;
        cases.push_back(std::move(entry));
    }

    // Simulator throughput probes: small circuit, reuse-level width 2,
    // so the statevector stays tiny and shots/sec measures the
    // dynamic-circuit kernel, not allocation. The shot count is large
    // enough to amortize program compilation and timer granularity —
    // shots_per_sec is per-shot normalized, so raising it only reduces
    // noise. One entry per thread mode: single-threaded (the kernel
    // number CI gates on) and the shot-parallel path.
    for (const auto& [suffix, threads] :
         {std::pair<const char*, int>{"+sim", 1},
          std::pair<const char*, int>{"+sim8", 8}}) {
        BenchCase sim_entry;
        sim_entry.name = std::string("bv_10") + suffix;
        sim_entry.request = prototype;
        sim_entry.request.name = sim_entry.name;
        sim_entry.request.strategy = Strategy::kQsCaqr;
        sim_entry.request.qasm_file = corpus_dir + "/bv_10.qasm";
        sim_entry.request.simulate = true;
        sim_entry.request.sim.shots = 65536;
        sim_entry.request.sim.num_threads = threads;
        sim_entry.simulate = true;
        cases.push_back(std::move(sim_entry));
    }

    // Raced-routing scaling probes: the most routing-dominated corpus
    // circuit at 32 trials, serial vs raced on 8 threads. The trial
    // winner is bit-identical between the two (the quality columns
    // must match); only the wall time may differ, and the +route8
    // entry carries `trial_speedup` for CI to gate on.
    for (const auto& [suffix, threads] :
         {std::pair<const char*, int>{"+route", 1},
          std::pair<const char*, int>{"+route8", 8}}) {
        BenchCase entry;
        entry.name = std::string("multiply_13") + suffix;
        entry.request = prototype;
        entry.request.name = entry.name;
        entry.request.strategy = Strategy::kBaseline;
        entry.request.qasm_file = corpus_dir + "/multiply_13.qasm";
        entry.request.transpile.trials = 32;
        entry.request.transpile.num_threads = threads;
        cases.push_back(std::move(entry));
    }

    // Device-scale tier: generated BV circuits on scaled heavy-hex,
    // where layout seeding, SR-CaQR placement and the QS-CaQR sweeps
    // grow with the device. The secret sets every third bit, so most
    // data qubits share no gate and each one is placed as a fresh seed.
    for (const auto& [qubits, strategy, device] :
         {std::tuple<int, Strategy, const char*>{127, Strategy::kBaseline,
                                                 "heavy_hex:127"},
          std::tuple<int, Strategy, const char*>{127, Strategy::kQsCaqr,
                                                 "heavy_hex:127"},
          std::tuple<int, Strategy, const char*>{127, Strategy::kSrCaqr,
                                                 "heavy_hex:127"},
          std::tuple<int, Strategy, const char*>{400, Strategy::kBaseline,
                                                 "heavy_hex:433"},
          std::tuple<int, Strategy, const char*>{400, Strategy::kQsCaqr,
                                                 "heavy_hex:433"}}) {
        std::vector<int> secret(static_cast<std::size_t>(qubits - 1));
        for (std::size_t i = 0; i < secret.size(); ++i) {
            secret[i] = i % 3 == 0 ? 1 : 0;
        }
        BenchCase entry;
        entry.name = "bv_" + std::to_string(qubits);
        entry.request = prototype;
        entry.request.name = entry.name;
        entry.request.strategy = strategy;
        entry.request.backend = device;
        entry.request.circuit = apps::bv_circuit(qubits, secret);
        cases.push_back(std::move(entry));
    }

    // SR-CaQR device rows beyond BV: CC-127 with every other coin fake
    // and a QAOA-64 (ring plus 32 seeded chords) on heavy_hex:127.
    // Then the routing-dominated rows: baseline mapping of a QAOA-256
    // (ring plus 128 seeded chords) and of CC-400 on heavy_hex:433.
    for (const auto& [name, strategy, device, logical] :
         {std::tuple<const char*, Strategy, const char*, circuit::Circuit>{
              "cc_127", Strategy::kSrCaqr, "heavy_hex:127",
              apps::cc_circuit(127)},
          std::tuple<const char*, Strategy, const char*, circuit::Circuit>{
              "qaoa_64", Strategy::kSrCaqr, "heavy_hex:127",
              ring_qaoa(64, 64)},
          std::tuple<const char*, Strategy, const char*, circuit::Circuit>{
              "qaoa_256", Strategy::kBaseline, "heavy_hex:433",
              ring_qaoa(256, 256)},
          std::tuple<const char*, Strategy, const char*, circuit::Circuit>{
              "cc_400", Strategy::kBaseline, "heavy_hex:433",
              apps::cc_circuit(400)}}) {
        BenchCase entry;
        entry.name = name;
        entry.request = prototype;
        entry.request.name = entry.name;
        entry.request.strategy = strategy;
        entry.request.backend = device;
        entry.request.circuit = logical;
        cases.push_back(std::move(entry));
    }

    return cases;
}

void
write_json(std::ostream& os, const std::vector<BenchResult>& results,
           const util::metrics::Snapshot& snapshot, int warmup,
           int repeats)
{
    os << "{\"schema_version\":" << kSchemaVersion
       << ",\"generator\":\"bench_perf\""
       << ",\"git_sha\":\"" << git_sha() << "\""
       << ",\"threads\":1"
       << ",\"warmup\":" << warmup << ",\"repeats\":" << repeats
       << ",\n\"benchmarks\":[";
    bool first = true;
    for (const auto& result : results) {
        if (!first) os << ",";
        first = false;
        os << "\n{\"name\":\"" << result.name << "\""
           << ",\"strategy\":\"" << result.strategy << "\""
           << ",\"backend\":\"" << result.backend << "\""
           << ",\"wall_ms_median\":" << json_number(result.wall_ms_median)
           << ",\"wall_ms_p90\":" << json_number(result.wall_ms_p90)
           << ",\"wall_ms_min\":" << json_number(result.wall_ms_min)
           << ",\"qubits\":" << result.qubits
           << ",\"depth\":" << result.depth
           << ",\"swaps\":" << result.swaps
           << ",\"reuses\":" << result.reuses
           << ",\"esp\":" << json_number(result.esp);
        if (result.shots_per_sec.has_value()) {
            os << ",\"shots_per_sec\":"
               << json_number(*result.shots_per_sec);
        }
        if (result.bind_speedup.has_value()) {
            os << ",\"bind_speedup\":"
               << json_number(*result.bind_speedup);
        }
        if (result.trial_speedup.has_value()) {
            os << ",\"trial_speedup\":"
               << json_number(*result.trial_speedup);
        }
        os << "}";
    }
    os << "\n],\n\"metrics\":";
    snapshot.write_json(os);
    os << "}\n";
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string out = "BENCH_caqr.json";
    std::string corpus_dir = CAQR_CIRCUITS_DIR;
    std::string backend = "FakeMumbai";
    int repeats = 3;
    int warmup = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--out" && i + 1 < argc) {
            out = argv[++i];
        } else if (arg == "--repeats" && i + 1 < argc) {
            repeats = std::stoi(argv[++i]);
        } else if (arg == "--warmup" && i + 1 < argc) {
            warmup = std::stoi(argv[++i]);
        } else if (arg == "--corpus" && i + 1 < argc) {
            corpus_dir = argv[++i];
        } else if (arg == "--backend" && i + 1 < argc) {
            backend = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: bench_perf [--out PATH] [--repeats N]"
                         " [--warmup N] [--corpus DIR] [--backend B]\n");
            return 2;
        }
    }
    if (repeats < 1 || warmup < 0) {
        std::fprintf(stderr, "error: need --repeats >= 1, --warmup >= 0\n");
        return 2;
    }

    // One serial service: per-entry timings must not contend with each
    // other, and quality results are thread-count-independent anyway.
    Service service({.num_threads = 1});
    const auto corpus = build_corpus(corpus_dir, backend);

    std::vector<BenchResult> results;
    std::vector<std::string> skipped;
    for (const auto& entry : corpus) {
        for (int i = 0; i < warmup; ++i) service.compile(entry.request);

        std::vector<double> wall_ms;
        CompileReport report;
        for (int i = 0; i < repeats; ++i) {
            report = service.compile(entry.request);
            if (!report.ok()) break;
            wall_ms.push_back(report.total_ms());
        }
        const std::string label =
            (entry.name.empty() ? report.name : entry.name) + "/" +
            report.strategy;
        if (!report.ok()) {
            std::fprintf(stderr, "skip %s: %s\n", label.c_str(),
                         report.status.to_string().c_str());
            skipped.push_back(label);
            continue;
        }

        BenchResult result;
        result.name = entry.name.empty() ? report.name : entry.name;
        result.strategy = report.strategy;
        result.backend = report.backend;
        result.wall_ms_median = util::median(wall_ms);
        result.wall_ms_p90 = util::percentile(wall_ms, 90);
        result.wall_ms_min = util::min_value(wall_ms);
        result.qubits = report.qubits;
        result.depth = report.depth;
        result.swaps = report.swaps;
        result.reuses = report.reuses;
        result.esp = report.esp;
        if (entry.simulate) {
            if (const auto sim_ms = simulate_stage_ms(report);
                sim_ms.has_value() && *sim_ms > 0.0) {
                result.shots_per_sec =
                    static_cast<double>(entry.request.sim.shots) *
                    1000.0 / *sim_ms;
            }
        }
        results.push_back(std::move(result));
    }

    // Multi-trial routing scaling: serial median over raced median
    // for the +route pair, attached to the raced entry. Skipped below
    // 8 hardware threads (see BenchResult::trial_speedup).
    if (std::thread::hardware_concurrency() >= 8) {
        const BenchResult* serial_route = nullptr;
        BenchResult* raced_route = nullptr;
        for (auto& result : results) {
            if (result.name == "multiply_13+route") serial_route = &result;
            if (result.name == "multiply_13+route8") raced_route = &result;
        }
        if (serial_route != nullptr && raced_route != nullptr &&
            raced_route->wall_ms_median > 0.0) {
            raced_route->trial_speedup =
                serial_route->wall_ms_median / raced_route->wall_ms_median;
        }
    }

    // Template-bind probe: the qaoa_12 skeleton through the
    // compile-once / bind-many API. The fresh cost is the qaoa_12
    // corpus median just measured; the bind cost is sampled over the
    // same repeat count with per-repeat angles (see bench_template for
    // the full sweep + equivalence harness).
    for (const auto& fresh : results) {
        if (fresh.name != "qaoa_12" || fresh.strategy != "qs_commuting") {
            continue;
        }
        util::Rng rng(7u);
        CompileRequest request;
        request.name = "qaoa_12";
        request.backend = backend;
        request.strategy = Strategy::kQsCommuting;
        request.qs_commuting.num_threads = 1;
        request.commuting.emplace();
        request.commuting->interaction = graph::random_graph(12, 0.30, rng);
        const auto handle = service.compile_template(request);
        if (!handle.ok()) {
            std::fprintf(stderr, "skip qaoa_12+bind: %s\n",
                         handle.status().to_string().c_str());
            skipped.push_back("qaoa_12+bind/qs_commuting");
            break;
        }
        std::vector<double> bind_ms;
        CompileReport bound;
        for (int i = 0; i < warmup + repeats; ++i) {
            const auto report = service.bind(
                *handle, {{2.0 * (0.7 + 0.01 * i), 2.0 * (0.3 + 0.01 * i)}});
            if (!report.ok()) break;
            if (i >= warmup) {
                bind_ms.push_back(report->total_ms());
                bound = *report;
            }
        }
        if (bind_ms.size() != static_cast<std::size_t>(repeats)) {
            std::fprintf(stderr, "skip qaoa_12+bind: bind failed\n");
            skipped.push_back("qaoa_12+bind/qs_commuting");
            break;
        }
        BenchResult result;
        result.name = "qaoa_12+bind";
        result.strategy = bound.strategy;
        result.backend = bound.backend;
        result.wall_ms_median = util::median(bind_ms);
        result.wall_ms_p90 = util::percentile(bind_ms, 90);
        result.wall_ms_min = util::min_value(bind_ms);
        result.qubits = bound.qubits;
        result.depth = bound.depth;
        result.swaps = bound.swaps;
        result.reuses = bound.reuses;
        result.esp = bound.esp;
        if (result.wall_ms_median > 0.0) {
            result.bind_speedup =
                fresh.wall_ms_median / result.wall_ms_median;
        }
        results.push_back(std::move(result));
        break;
    }

    std::ofstream os(out);
    if (!os) {
        std::fprintf(stderr, "error: cannot write '%s'\n", out.c_str());
        return 2;
    }
    write_json(os, results, service.metrics_snapshot(), warmup, repeats);

    util::Table table({"benchmark", "strategy", "median_ms", "qubits",
                       "depth", "SWAPs", "ESP"});
    table.set_title("bench_perf: " + std::to_string(results.size()) +
                    " entries, " + std::to_string(skipped.size()) +
                    " infeasible skipped -> " + out);
    for (const auto& result : results) {
        table.add_row(
            {result.name, result.strategy,
             util::Table::fmt(result.wall_ms_median, 3),
             util::Table::fmt(static_cast<long long>(result.qubits)),
             util::Table::fmt(static_cast<long long>(result.depth)),
             util::Table::fmt(static_cast<long long>(result.swaps)),
             util::Table::fmt(result.esp, 4)});
    }
    table.print(std::cout);
    return 0;
}
