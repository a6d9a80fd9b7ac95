/**
 * @file
 * Benchmark driver for the CaQR compile service.
 *
 * Generates one seeded workload, sets it up several times (timing each
 * set-up), drives it for a fixed number of seconds, checks the
 * compiled outputs, and prints one JSON result line:
 *
 *   {"correct":true,"attempted":N,"failed":0,"metrics":{...}}
 *
 * Workloads (see README.md for why each exists):
 *  - reuse_sweep: QS-CaQR max-reuse compiles of BV / counterfeit-coin
 *    circuits, mapped onto FakeMumbai, in-process, one request at a
 *    time. Dominated by the reuse pass.
 *  - device_map: baseline SABRE routing and SR-CaQR of 48–400 qubit
 *    circuits (BV, counterfeit coin, QAOA) onto heavy_hex:127 and
 *    heavy_hex:433, in-process. Dominated by layout and routing.
 *  - serve_hot90: one closed-loop TCP client against an in-process
 *    `serve::Server` at the protocol's default options, in the hot90
 *    mix of bench/bench_serve: 9 of 10 requests repeat a pre-warmed
 *    hot set (compile-cache hits), the rest are circuits new to the
 *    server (full compiles).
 *
 * Correctness: every compiled BV / counterfeit-coin program is run once
 * on an independent stabilizer simulator (stabilizer.h) and must print
 * the circuit's known answer; every two-qubit gate of a mapped program
 * must sit on a coupled pair of the device; and every served reply must
 * match a fresh in-process compile of the same circuit field by field.
 *
 * Usage: caqrbench_driver --workload NAME --seed N --seconds S
 *                         --trace 0|1 --workdir DIR
 */
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "apps/benchmarks.h"
#include "apps/qaoa.h"
#include "graph/undirected_graph.h"
#include "qasm/printer.h"
#include "service/client.h"
#include "service/server.h"
#include "service/service.h"
#include "stabilizer.h"
#include "util/trace.h"

namespace {

using namespace caqr;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double
ms_since(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/// splitmix64: the benchmark's own generator, so inputs depend on the
/// seed alone.
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    int below(int n) { return static_cast<int>(next() % n); }

  private:
    std::uint64_t state_;
};

/// @p n bits with exactly @p ones set, at seeded positions — a fixed
/// weight keeps the compile cost of every seed alike.
std::vector<int>
random_bits(int n, int ones, Rng& rng)
{
    std::vector<int> bits(static_cast<std::size_t>(n), 0);
    std::fill(bits.begin(), bits.begin() + ones, 1);
    for (int i = n - 1; i > 0; --i) {
        std::swap(bits[static_cast<std::size_t>(i)],
                  bits[static_cast<std::size_t>(rng.below(i + 1))]);
    }
    return bits;
}

/// One distinct compile input.
struct Input
{
    std::string name;
    std::string qasm;
    Strategy strategy = Strategy::kQsCaqr;
    std::string backend;
    std::string expected;  ///< known outcome; empty when not Clifford
};

enum class Family { kBv, kCc, kQaoa };

/// A seeded circuit of @p family over @p n qubits. BV secrets and
/// fake-coin sets have @p ones set bits (default: half).
Input
make_input(Family family, int n, Strategy strategy,
           const std::string& backend, Rng& rng, const std::string& tag,
           int ones = -1)
{
    Input input;
    input.strategy = strategy;
    input.backend = backend;
    if (ones < 0) ones = (n - 1) / 2;
    circuit::Circuit circuit;
    if (family == Family::kBv) {
        const auto secret = random_bits(n - 1, ones, rng);
        circuit = apps::bv_circuit(n, secret);
        input.expected = apps::bv_expected(n, secret);
        input.name = "bv" + std::to_string(n);
    } else if (family == Family::kCc) {
        const auto fake = random_bits(n - 1, ones, rng);
        circuit = apps::cc_circuit(n, fake);
        input.expected = apps::cc_expected(n, fake);
        input.name = "cc" + std::to_string(n);
    } else {
        // Ring plus n/2 random chords: connected, mean degree 3.
        graph::UndirectedGraph problem(n);
        for (int v = 0; v < n; ++v) problem.add_edge(v, (v + 1) % n);
        for (int added = 0; added < n / 2;) {
            const int u = rng.below(n);
            const int v = rng.below(n);
            if (u != v && problem.add_edge(u, v)) ++added;
        }
        apps::QaoaParams params;
        params.gammas = {0.7};
        params.betas = {0.3};
        circuit = apps::qaoa_circuit(problem, params);
        input.name = "qaoa" + std::to_string(n);
    }
    input.name += "_" + std::string(strategy_name(strategy)) + tag;
    input.qasm = qasm::to_qasm(circuit);
    return input;
}

/// The inputs of an in-process workload (45 or 15), in seeded order.
/// These counts put the median and the 95th percentile of a whole
/// number of passes inside one input's samples, not between two.
std::vector<Input>
make_workload(const std::string& name, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Input> inputs;
    const auto add = [&](Family family, int n, Strategy strategy,
                         const char* backend) {
        inputs.push_back(make_input(family, n, strategy, backend, rng,
                                    "_" + std::to_string(inputs.size())));
    };
    if (name == "reuse_sweep") {
        for (int copy = 0; copy < 3; ++copy) {
            for (int n : {12, 14, 16, 18, 20, 22, 24, 26}) {
                add(Family::kBv, n, Strategy::kQsCaqr, "FakeMumbai");
            }
            for (int n : {13, 15, 17, 19, 21, 23, 25}) {
                add(Family::kCc, n, Strategy::kQsCaqr, "FakeMumbai");
            }
        }
    } else if (name == "device_map") {
        for (int n : {64, 127}) {
            add(Family::kBv, n, Strategy::kBaseline, "heavy_hex:127");
            add(Family::kCc, n, Strategy::kBaseline, "heavy_hex:127");
        }
        for (int n : {48, 80, 127}) {
            add(Family::kBv, n, Strategy::kSrCaqr, "heavy_hex:127");
            add(Family::kCc, n, Strategy::kSrCaqr, "heavy_hex:127");
        }
        add(Family::kQaoa, 64, Strategy::kBaseline, "heavy_hex:127");
        add(Family::kQaoa, 48, Strategy::kSrCaqr, "heavy_hex:127");
        add(Family::kBv, 400, Strategy::kBaseline, "heavy_hex:433");
        add(Family::kCc, 400, Strategy::kBaseline, "heavy_hex:433");
        add(Family::kQaoa, 256, Strategy::kBaseline, "heavy_hex:433");
    }
    for (std::size_t i = inputs.size(); i > 1; --i) {
        std::swap(inputs[i - 1], inputs[static_cast<std::size_t>(
                                     rng.below(static_cast<int>(i)))]);
    }
    return inputs;
}

CompileRequest
to_request(const Input& input)
{
    CompileRequest request;
    request.name = input.name;
    request.qasm = input.qasm;
    request.backend = input.backend;
    request.strategy = input.strategy;
    // Every pass runs serially, as in a served request (serve::Session
    // sets the same), so one request occupies one core.
    request.qs.num_threads = 1;
    request.qs_commuting.num_threads = 1;
    request.sr.num_threads = 1;
    request.transpile.num_threads = 1;
    return request;
}

/// Output check shared by every workload: a mapped program respects
/// the coupling map, and a Clifford program prints its known answer.
/// Returns "" when correct, else why not.
std::string
check_report(const Input& input, const CompileReport& report,
             const arch::Backend& backend)
{
    if (!report.ok()) return report.status.to_string();
    for (const auto& op : report.compiled.instructions()) {
        if (circuit::is_two_qubit(op.kind) &&
            !backend.are_adjacent(op.qubits[0], op.qubits[1])) {
            return "two-qubit gate on uncoupled pair (" +
                   std::to_string(op.qubits[0]) + "," +
                   std::to_string(op.qubits[1]) + ")";
        }
    }
    if (input.expected.empty()) return "";
    const auto outcome = caqrbench::run_clifford(report.compiled, 1);
    if (!outcome.has_value()) return "compiled program is not Clifford";
    if (*outcome != input.expected) {
        return "outcome " + *outcome + " != expected " + input.expected;
    }
    return "";
}

/// Linear-interpolated percentile of @p values (copied, then sorted).
double
percentile(std::vector<double> values, double p)
{
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (rank - lo);
}

/**
 * Every latency of @p r replaced by the fastest one of its kind in the
 * run. On a shared machine other tenants slow requests in bursts, so a
 * kind's fastest run is its cost on an idle core; percentiles of these
 * move with the program, not with the neighbours. Each kind keeps its
 * share of requests, so the 95th percentile of serve_hot90 is still
 * the median miss.
 */
std::vector<double>
best_of_kind(const std::vector<double>& latencies,
             const std::vector<int>& kinds)
{
    std::map<int, double> best;
    for (std::size_t i = 0; i < latencies.size(); ++i) {
        const auto [it, added] = best.emplace(kinds[i], latencies[i]);
        if (!added) it->second = std::min(it->second, latencies[i]);
    }
    std::vector<double> out;
    for (const int kind : kinds) out.push_back(best[kind]);
    return out;
}

/// Pipeline stages folded into the per-layer metrics: the reuse pass of
/// each strategy ("analyze" for the baseline) counts as "reuse".
std::string
layer_of_stage(const std::string& stage)
{
    if (stage == "qs_caqr" || stage == "sr_caqr" || stage == "analyze") {
        return "reuse";
    }
    return stage;
}

const char* const kLayers[] = {"load", "backend", "reuse", "map", "esp"};

/// What one run measured.
struct Result
{
    bool correct = true;
    std::string why;  ///< first failed check
    long attempted = 0;
    long failed = 0;

    long completed = 0;
    /// Request latencies of whole blocks of identical composition
    /// (passes over the inputs; replays of the serve block), so every
    /// run weighs each kind of request the same.
    std::vector<double> latencies;
    /// The kind of each request in `latencies`: its input in-process,
    /// its entry of the serve block (a hot circuit, or a miss slot).
    std::vector<int> kinds;
    double qubits_sum = 0.0;
    double reuses_sum = 0.0;
    double swaps_sum = 0.0;
    std::vector<double> setup_s;

    std::map<std::string, double> stage_ms;  ///< summed by layer
    long pipeline_requests = 0;              ///< ran the stages
    double overhead_ms_sum = 0.0;            ///< latency minus stages
    double cache_hits = 0.0;
    double cache_lookups = 0.0;

    void
    fail(const std::string& reason)
    {
        if (correct) why = reason;
        correct = false;
    }
};

// ---------------------------------------------------------------- in-process

void
run_in_process(const std::vector<Input>& inputs, double seconds, int setups,
               Result& r)
{
    std::vector<CompileRequest> requests;
    for (const auto& input : inputs) requests.push_back(to_request(input));

    // Set-up: a fresh service answering every input once, cold. The
    // last set-up's outputs are the ones checked.
    std::unique_ptr<Service> service;
    for (int i = 0; i < setups; ++i) {
        service.reset();
        std::vector<CompileReport> reports;
        const auto start = Clock::now();
        service = std::make_unique<Service>(
            ServiceOptions{.num_threads = 1, .cache_capacity = 0});
        for (const auto& request : requests) {
            reports.push_back(service->compile(request));
        }
        r.setup_s.push_back(ms_since(start) / 1000.0);
        if (i + 1 < setups) continue;
        for (std::size_t k = 0; k < inputs.size(); ++k) {
            const auto backend = service->backend(inputs[k].backend);
            const std::string why =
                backend.ok() ? check_report(inputs[k], reports[k], **backend)
                             : backend.status().to_string();
            if (!why.empty()) r.fail(inputs[k].name + ": " + why);
        }
    }

    // Whole passes over the inputs until the compile time reaches the
    // budget, so every input weighs the same in the percentiles.
    std::vector<std::vector<double>> per_input(inputs.size());
    const double budget_ms = seconds * 1000.0;
    double busy_ms = 0.0;
    while (busy_ms < budget_ms) {
        for (std::size_t k = 0; k < requests.size(); ++k) {
            const auto start = Clock::now();
            const auto report = service->compile(requests[k]);
            const double ms = ms_since(start);
            busy_ms += ms;
            ++r.attempted;
            if (!report.ok()) {
                ++r.failed;
                r.fail(inputs[k].name + ": " + report.status.to_string());
                continue;
            }
            ++r.completed;
            r.latencies.push_back(ms);
            r.kinds.push_back(static_cast<int>(k));
            per_input[k].push_back(ms);
            r.qubits_sum += report.physical_qubits;
            r.reuses_sum += report.reuses;
            r.swaps_sum += report.swaps;
            ++r.pipeline_requests;
            double stage_total = 0.0;
            for (const auto& stage : report.stages) {
                r.stage_ms[layer_of_stage(stage.stage)] += stage.ms;
                stage_total += stage.ms;
            }
            r.overhead_ms_sum += ms - stage_total;
        }
    }
    for (std::size_t k = 0; k < inputs.size(); ++k) {
        std::cerr << "  " << inputs[k].name << " on " << inputs[k].backend
                  << ": median " << percentile(per_input[k], 50)
                  << " ms over " << per_input[k].size() << "\n";
    }
}

// --------------------------------------------------------------------- serve

/// One served reply, parsed from `ok <batch_csv_row>`.
struct Reply
{
    std::string fields;  ///< qubits..reuses columns, compared verbatim
    double physical_qubits = 0.0;
    double swaps = 0.0;
    double reuses = 0.0;
    double total_ms = 0.0;
};

std::optional<Reply>
parse_reply(const std::string& line)
{
    if (line.rfind("ok ", 0) != 0) return std::nullopt;
    std::vector<std::string> cols;
    std::stringstream row(line.substr(3));
    for (std::string col; std::getline(row, col, ',');) cols.push_back(col);
    // name,strategy,backend,status,logical_qubits,qubits,
    // physical_qubits,depth,duration_dt,swaps,reuses,esp,total_ms
    if (cols.size() != 13) return std::nullopt;
    Reply reply;
    reply.fields = cols[4] + "," + cols[5] + "," + cols[6] + "," + cols[7] +
                   "," + cols[9] + "," + cols[10];
    reply.physical_qubits = std::atof(cols[6].c_str());
    reply.swaps = std::atof(cols[9].c_str());
    reply.reuses = std::atof(cols[10].c_str());
    reply.total_ms = std::atof(cols[12].c_str());
    return reply;
}

/// The same columns for an in-process report, for the served-reply
/// check.
std::string
report_fields(const CompileReport& report)
{
    return std::to_string(report.logical_qubits) + "," +
           std::to_string(report.qubits) + "," +
           std::to_string(report.physical_qubits) + "," +
           std::to_string(report.depth) + "," +
           std::to_string(report.swaps) + "," +
           std::to_string(report.reuses);
}

constexpr int kServeSizes[] = {16, 18, 20, 22, 24};
/// Slots 0..8 of make_serve_input: BV and counterfeit coin of 16-22
/// qubits, and BV of 24.
constexpr int kHot = 9;
/// The run repeats one block of this many requests: 90% cache hits,
/// each hot circuit the same number of times, and kBlockMisses
/// circuits new to the server, one of each size. The odd miss count
/// puts the 95th percentile (the median miss) inside one size's
/// samples instead of between two.
constexpr int kBlock = 50;
constexpr int kBlockMisses = 5;
/// Fresh circuits whose replies are checked against an in-process
/// compile (every hot circuit is checked).
constexpr int kCheckedFresh = 200;

/// Slots 2k and 2k + 1 are the BV and the counterfeit-coin circuit of
/// kServeSizes[k].
Input
make_serve_input(int slot, Rng& rng, const std::string& tag)
{
    return make_input(slot % 2 == 0 ? Family::kBv : Family::kCc,
                      kServeSizes[slot / 2], Strategy::kQsCaqr, "FakeMumbai",
                      rng, tag);
}

std::string
write_input(const fs::path& dir, const Input& input)
{
    const fs::path path = dir / (input.name + ".qasm");
    std::ofstream(path) << input.qasm;
    return path.string();
}

const util::metrics::Histogram*
find_histogram(const util::metrics::Snapshot& snapshot,
               const std::string& name)
{
    const auto it = snapshot.histograms.find(name);
    return it == snapshot.histograms.end() ? nullptr : &it->second;
}

double
find_counter(const util::metrics::Snapshot& snapshot, const std::string& name)
{
    const auto it = snapshot.counters.find(name);
    return it == snapshot.counters.end() ? 0.0 : it->second;
}

void
run_serve(std::uint64_t seed, double seconds, int setups,
          const fs::path& workdir, Result& r)
{
    const fs::path dir = workdir / "serve_inputs";
    fs::remove_all(dir);
    fs::create_directories(dir);

    // The hot set, and one seeded block of requests (a hot index, or
    // -1 - slot for a fresh circuit of that slot), replayed so every
    // block asks for the same mix.
    Rng rng(seed);
    std::vector<Input> hot;
    std::vector<std::string> hot_paths;
    for (int h = 0; h < kHot; ++h) {
        hot.push_back(make_serve_input(h, rng, "_h" + std::to_string(h)));
        hot_paths.push_back(write_input(dir, hot.back()));
    }
    std::vector<int> block;
    for (int i = 0; i < kBlock; ++i) {
        // Misses of size i alternate BV and coin: slots 0, 3, 4, 7, 8.
        block.push_back(i < kBlockMisses ? -1 - (2 * i + i % 2)
                                         : (i - kBlockMisses) % kHot);
    }
    for (int i = kBlock - 1; i > 0; --i) {
        std::swap(block[static_cast<std::size_t>(i)],
                  block[static_cast<std::size_t>(rng.below(i + 1))]);
    }

    // Set-up: a fresh service and server at the protocol's defaults
    // (QS-CaQR on FakeMumbai), then the client sends the hot set once
    // (cold compiles).
    std::unique_ptr<Service> service;
    std::unique_ptr<serve::Server> server;
    serve::Client client;
    for (int i = 0; i < setups; ++i) {
        client.close();
        server.reset();
        service.reset();
        const auto start = Clock::now();
        service = std::make_unique<Service>(
            ServiceOptions{.num_threads = 1, .cache_capacity = 4096});
        serve::ServerOptions options;
        options.num_workers = 1;
        options.max_sessions = 4;
        server = std::make_unique<serve::Server>(*service, options);
        const auto started = server->start();
        if (!started.ok()) {
            r.fail("server start: " + started.to_string());
            return;
        }
        if (!client.connect("127.0.0.1", server->port()).ok()) {
            r.fail("client connect failed");
            server->stop();
            return;
        }
        for (const auto& path : hot_paths) client.command("compile " + path);
        r.setup_s.push_back(ms_since(start) / 1000.0);
    }
    service->reset_metrics();

    // Closed loop: the next request goes out once the reply to the
    // previous one is in. Fresh circuits are new to the server (cache
    // misses); they are drawn as they are needed. `keys` names each
    // reply's circuit as in `block`, fresh ones by -1 - draw order.
    std::vector<Input> fresh;
    std::vector<std::string> replies;
    std::vector<double> reply_ms;
    std::vector<int> keys;
    std::set<std::string> seen;
    for (const auto& input : hot) seen.insert(input.qasm);
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    for (std::size_t i = 0; Clock::now() < deadline; ++i) {
        int key = block[i % kBlock];
        std::string path;
        if (key >= 0) {
            path = hot_paths[static_cast<std::size_t>(key)];
        } else {
            const int id = static_cast<int>(fresh.size());
            const std::string tag = "_f" + std::to_string(id);
            Input input = make_serve_input(-1 - key, rng, tag);
            for (int retry = 0; retry < 64 && !seen.insert(input.qasm).second;
                 ++retry) {
                input = make_serve_input(-1 - key, rng, tag);
            }
            fresh.push_back(std::move(input));
            key = -1 - id;
            path = write_input(dir, fresh.back());
        }
        const auto start = Clock::now();
        const auto response = client.command("compile " + path);
        const double ms = ms_since(start);
        ++r.attempted;
        if (!response.ok() || !response->ok) {
            ++r.failed;
            r.fail("request failed: " + (response.ok()
                                             ? response->final_line()
                                             : response.status().to_string()));
            continue;
        }
        replies.push_back(response->final_line());
        reply_ms.push_back(ms);
        keys.push_back(key);
        r.latencies.push_back(ms);
        r.kinds.push_back(block[i % kBlock]);
        ++r.completed;
    }
    const auto snapshot = service->metrics_snapshot();
    client.close();
    server->stop();
    // A block cut off by the deadline has a different mix; drop it.
    if (r.latencies.size() >= kBlock) {
        r.latencies.resize(r.latencies.size() / kBlock * kBlock);
        r.kinds.resize(r.latencies.size());
    }

    // Fold the replies, and check each distinct circuit's reply against
    // an in-process compile of it (which is itself checked).
    Service reference(ServiceOptions{.num_threads = 1, .cache_capacity = 0});
    std::map<int, std::string> expected_fields;
    for (std::size_t i = 0; i < replies.size(); ++i) {
        const auto reply = parse_reply(replies[i]);
        if (!reply.has_value()) {
            r.fail("unparsable reply: " + replies[i]);
            continue;
        }
        r.qubits_sum += reply->physical_qubits;
        r.swaps_sum += reply->swaps;
        r.reuses_sum += reply->reuses;
        r.overhead_ms_sum += reply_ms[i] - reply->total_ms;

        if (keys[i] < -kCheckedFresh) continue;
        auto known = expected_fields.find(keys[i]);
        if (known == expected_fields.end()) {
            const Input& input =
                keys[i] >= 0 ? hot[static_cast<std::size_t>(keys[i])]
                             : fresh[static_cast<std::size_t>(-1 - keys[i])];
            const auto report = reference.compile(to_request(input));
            const std::string why = check_report(
                input, report, **reference.backend(input.backend));
            if (!why.empty()) r.fail(input.name + ": " + why);
            known =
                expected_fields.emplace(keys[i], report_fields(report)).first;
        }
        if (reply->fields != known->second) {
            r.fail("served reply " + reply->fields + " != in-process " +
                   known->second);
        }
    }

    if (const auto* load = find_histogram(snapshot, "service.stage.load_ms")) {
        r.pipeline_requests = static_cast<long>(load->count());
    }
    for (const char* stage : {"load", "backend", "qs_caqr", "sr_caqr",
                              "analyze", "map", "esp"}) {
        const auto* histogram = find_histogram(
            snapshot, std::string("service.stage.") + stage + "_ms");
        if (histogram != nullptr) {
            r.stage_ms[layer_of_stage(stage)] += histogram->sum();
        }
    }
    r.cache_hits = find_counter(snapshot, "service.cache.hit");
    r.cache_lookups =
        r.cache_hits + find_counter(snapshot, "service.cache.miss");
    fs::remove_all(dir);
}

// -------------------------------------------------------------------- output

void
print_result(const Result& r, bool trace)
{
    std::vector<std::tuple<std::string, double, std::string>> metrics;
    const double done = static_cast<double>(r.completed);
    const double per_req = done > 0.0 ? 1.0 / done : 0.0;
    if (!trace) {
        const auto best = best_of_kind(r.latencies, r.kinds);
        metrics = {
            {"best_p50_ms", percentile(best, 50), "ms"},
            {"best_p95_ms", percentile(best, 95), "ms"},
            {"qubits_per_req", r.qubits_sum * per_req, "count"},
            {"setup_s", percentile(r.setup_s, 50), "s"},
        };
    } else {
        const double per_pipeline =
            r.pipeline_requests > 0 ? 1.0 / r.pipeline_requests : 0.0;
        for (const char* layer : kLayers) {
            const auto it = r.stage_ms.find(layer);
            metrics.emplace_back(
                std::string("stage_") + layer + "_ms",
                (it == r.stage_ms.end() ? 0.0 : it->second) * per_pipeline,
                "ms");
        }
        metrics.emplace_back("overhead_ms", r.overhead_ms_sum * per_req,
                             "ms");
        metrics.emplace_back("cache_hit_ratio",
                             r.cache_lookups > 0.0
                                 ? r.cache_hits / r.cache_lookups
                                 : 0.0,
                             "ratio");
        metrics.emplace_back("swaps_per_req", r.swaps_sum * per_req,
                             "count");
        metrics.emplace_back("reuses_per_req", r.reuses_sum * per_req,
                             "count");
        metrics.emplace_back("requests", done, "count");
        // Plain percentiles over every request, which the best-of-kind
        // figures leave out: a slowdown that hits only some repetitions
        // of a kind shows here.
        metrics.emplace_back("latency_p50_ms", percentile(r.latencies, 50),
                             "ms");
        metrics.emplace_back("latency_p95_ms", percentile(r.latencies, 95),
                             "ms");
    }
    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\":" << (r.correct ? "true" : "false")
       << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
       << ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const auto& [name, value, unit] = metrics[i];
        os << (i == 0 ? "" : ",") << "\"" << name << "\":{\"value\":"
           << value << ",\"unit\":\"" << unit << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    fs::path workdir = ".";
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload") {
            workload = value;
        } else if (flag == "--seed") {
            seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (flag == "--seconds") {
            seconds = std::atof(value.c_str());
        } else if (flag == "--trace") {
            trace = value == "1";
        } else if (flag == "--workdir") {
            workdir = value;
        } else {
            std::cerr << "unknown flag " << flag << "\n";
            return 2;
        }
    }
    // Every thread of the run (client, event loop, workers) shares the
    // core the driver starts on: a served request then costs the same
    // same-core hand-offs on every run, instead of cross-core wake-ups
    // whose price depends on where the scheduler put each thread.
    cpu_set_t one_core;
    CPU_ZERO(&one_core);
    CPU_SET(std::max(0, sched_getcpu()), &one_core);
    sched_setaffinity(0, sizeof(one_core), &one_core);

    // With --trace 1 the program's own spans (service stages, passes,
    // server) are recorded and written out as a Chrome trace.
    util::trace::set_enabled(trace);

    constexpr int kSetups = 5;
    Result result;
    if (workload == "serve_hot90") {
        run_serve(seed, seconds, kSetups, workdir, result);
    } else {
        const auto inputs = make_workload(workload, seed);
        if (inputs.empty()) {
            std::cerr << "unknown workload '" << workload << "'\n";
            return 2;
        }
        run_in_process(inputs, seconds, kSetups, result);
    }
    if (!result.correct) std::cerr << "check failed: " << result.why << "\n";
    if (trace) {
        std::ofstream out(workdir / (workload + ".trace.json"));
        util::trace::write_chrome_trace(out);
    }
    if (result.completed == 0) {
        std::cerr << "no request completed\n";
        return 1;
    }
    print_result(result, trace);
    return 0;
}
