#include "service/service.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "circuit/schedule.h"
#include "circuit/timing.h"
#include "qasm/parser.h"
#include "qasm/printer.h"
#include "service/cache.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace caqr {

namespace {

namespace fs = std::filesystem;

/// Lowercase with separators ('-', '_', ' ', '.') removed — the
/// normalization behind the backend-name aliases.
std::string
normalize_key(const std::string& name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        if (c == '-' || c == '_' || c == ' ' || c == '.') continue;
        out.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
    }
    return out;
}

/// Parses a backend registry key into (canonical cache key, factory
/// argument). heavy-hex sizes are capped to keep a typo'd size from
/// allocating a gigantic APSP matrix.
struct BackendKey
{
    std::string canonical;
    int heavy_hex_qubits = 0;  ///< 0 = FakeMumbai
};

util::StatusOr<BackendKey>
parse_backend_key(const std::string& name)
{
    constexpr int kMaxHeavyHexQubits = 4096;
    const std::string key = normalize_key(name);
    if (key == "fakemumbai" || key == "mumbai") {
        return BackendKey{"FakeMumbai", 0};
    }
    if (key.rfind("heavyhex", 0) == 0) {
        std::string digits = key.substr(8);
        if (!digits.empty() && digits.front() == ':') digits.erase(0, 1);
        if (!digits.empty() &&
            std::all_of(digits.begin(), digits.end(), [](char c) {
                return std::isdigit(static_cast<unsigned char>(c));
            })) {
            const long qubits = std::strtol(digits.c_str(), nullptr, 10);
            if (qubits > 0 && qubits <= kMaxHeavyHexQubits) {
                return BackendKey{
                    "heavy_hex:" + std::to_string(qubits),
                    static_cast<int>(qubits)};
            }
        }
        return util::Status::invalid_argument(
            "heavy-hex backend needs a qubit count in [1, " +
            std::to_string(kMaxHeavyHexQubits) + "]: '" + name + "'");
    }
    return util::Status::not_found(
        "unknown backend '" + name +
        "' (known: FakeMumbai, heavy_hex:<min_qubits>)");
}

/// Escapes a free-text field for the one-line CSV format.
std::string
csv_escape(const std::string& text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        if (c == ',') {
            out.push_back(';');
        } else if (c == '\n' || c == '\r') {
            out.push_back(' ');
        } else {
            out.push_back(c);
        }
    }
    return out;
}

std::string
format_double(double value)
{
    std::ostringstream os;
    os.precision(17);
    os << value;
    return os.str();
}

/// slots[ref] = indices of the instructions in @p circuit whose angle
/// mirrors parameter `ref` (a rotation can lower into several sites).
std::vector<std::vector<std::size_t>>
slot_map(const circuit::Circuit& circuit)
{
    std::vector<std::vector<std::size_t>> slots(
        static_cast<std::size_t>(circuit.num_params()));
    const auto& instrs = circuit.instructions();
    for (std::size_t i = 0; i < instrs.size(); ++i) {
        const auto ref = instrs[i].param_ref;
        if (ref >= 0) slots[static_cast<std::size_t>(ref)].push_back(i);
    }
    return slots;
}

/// The report label: the request's name, else the input file's stem,
/// else "commuting" or "circuit" by input kind. A cache hit applies it
/// too, so a hit is named for its own request, not the filler's.
std::string
report_name(const CompileRequest& request)
{
    if (!request.name.empty()) return request.name;
    if (!request.qasm_file.empty()) {
        return fs::path(request.qasm_file).stem().string();
    }
    return request.commuting.has_value() ? "commuting" : "circuit";
}

}  // namespace

/// Side-channel from `compile_uncached` to `compile_template`: the
/// reuse-level circuit, which non-SR templates freeze as their
/// simulation target (the routed circuit simulates physical wires;
/// counts are defined over logical ones).
struct TemplateCapture
{
    circuit::Circuit reuse_level;
    bool has_reuse_level = false;
};

const char*
strategy_name(Strategy strategy)
{
    switch (strategy) {
      case Strategy::kBaseline: return "baseline";
      case Strategy::kQsCaqr: return "qs_caqr";
      case Strategy::kQsCommuting: return "qs_commuting";
      case Strategy::kSrCaqr: return "sr_caqr";
    }
    return "unknown";
}

util::StatusOr<Strategy>
parse_strategy(const std::string& name)
{
    const std::string key = normalize_key(name);
    if (key == "baseline") return Strategy::kBaseline;
    if (key == "qscaqr" || key == "qs") return Strategy::kQsCaqr;
    if (key == "qscommuting") return Strategy::kQsCommuting;
    if (key == "srcaqr" || key == "sr") return Strategy::kSrCaqr;
    return util::Status::invalid_argument(
        "unknown strategy '" + name +
        "' (known: baseline, qs_caqr, qs_commuting, sr_caqr)");
}

double
CompileReport::total_ms() const
{
    double total = 0.0;
    for (const auto& stage : stages) total += stage.ms;
    return total;
}

std::string
report_fingerprint(const CompileReport& report)
{
    std::ostringstream os;
    os << "status=" << report.status.to_string() << '\n'
       << "name=" << report.name << '\n'
       << "backend=" << report.backend << '\n'
       << "strategy=" << report.strategy << '\n'
       << "logical_qubits=" << report.logical_qubits << '\n'
       << "qubits=" << report.qubits << '\n'
       << "physical_qubits=" << report.physical_qubits << '\n'
       << "depth=" << report.depth << '\n'
       << "duration_dt=" << format_double(report.duration_dt) << '\n'
       << "swaps=" << report.swaps << '\n'
       << "reuses=" << report.reuses << '\n'
       << "esp=" << format_double(report.esp) << '\n';
    for (const auto& [key, count] : report.counts) {
        os << "count[" << key << "]=" << count << '\n';
    }
    if (report.compiled.size() > 0 || report.compiled.num_qubits() > 0) {
        os << qasm::to_qasm(report.compiled);
    }
    return os.str();
}

std::string
batch_csv_header()
{
    return "name,strategy,backend,status,logical_qubits,qubits,"
           "physical_qubits,depth,duration_dt,swaps,reuses,esp,total_ms";
}

std::string
batch_csv_row(const CompileReport& report)
{
    std::ostringstream os;
    os << csv_escape(report.name) << ',' << report.strategy << ','
       << csv_escape(report.backend) << ','
       << csv_escape(report.status.to_string()) << ','
       << report.logical_qubits << ',' << report.qubits << ','
       << report.physical_qubits << ',' << report.depth << ','
       << report.duration_dt << ',' << report.swaps << ','
       << report.reuses << ',' << report.esp << ',' << report.total_ms();
    return os.str();
}

util::Status
check_single_input(const CompileRequest& request)
{
    const int provided = (request.circuit.has_value() ? 1 : 0) +
                         (request.qasm.empty() ? 0 : 1) +
                         (request.qasm_file.empty() ? 0 : 1) +
                         (request.commuting.has_value() ? 1 : 0);
    if (provided == 1) return {};
    return util::Status::invalid_argument(
        "provide exactly one input (circuit, qasm, qasm_file, or "
        "commuting), got " +
        std::to_string(provided));
}

util::StatusOr<std::string>
canonical_backend_name(const std::string& name)
{
    auto key = parse_backend_key(name);
    if (!key.ok()) return key.status();
    return key->canonical;
}

Service::Service(ServiceOptions options) : options_(std::move(options))
{
    if (options_.cache_capacity > 0) {
        cache_ = std::make_unique<Lru<std::shared_ptr<const CompileReport>>>(
            options_.cache_capacity, metrics_, "service.cache");
    }
    if (options_.template_cache_capacity > 0) {
        template_cache_ =
            std::make_unique<Lru<std::shared_ptr<const CompiledTemplate>>>(
                options_.template_cache_capacity, metrics_,
                "service.template");
    }
}

Service::~Service() = default;

util::StatusOr<std::shared_ptr<const arch::Backend>>
Service::backend(const std::string& name)
{
    auto key = parse_backend_key(name);
    if (!key.ok()) return key.status();

    // Build-under-the-mutex keeps the compute-once guarantee trivially:
    // concurrent first lookups of one backend serialize, every later
    // lookup shares the immutable instance.
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = backends_.find(key->canonical);
    if (it != backends_.end()) {
        metrics_.add("service.backend_cache.hit", 1.0);
        return it->second;
    }
    metrics_.add("service.backend_cache.miss", 1.0);
    util::trace::Span span("service.backend_build");
    auto built = std::make_shared<const arch::Backend>(
        key->heavy_hex_qubits == 0
            ? arch::Backend::fake_mumbai()
            : arch::Backend::scaled_heavy_hex(key->heavy_hex_qubits));
    backends_.emplace(key->canonical, built);
    return built;
}

CompileReport
Service::compile(const CompileRequest& request)
{
    // Per-request identity: every span recorded while this compile
    // runs — including those of pool tasks, which `ThreadPool::map`
    // binds to the caller's request — is tagged with this id, and
    // (when slow capture is configured) mirrored into a private
    // capture so a slow or failed request can be flushed as a
    // standalone trace artifact.
    const std::uint64_t request_id =
        next_request_id_.fetch_add(1, std::memory_order_relaxed);
    std::unique_ptr<util::trace::RequestCapture> capture;
    if (options_.slow_request_ms > 0.0) {
        capture =
            std::make_unique<util::trace::RequestCapture>(request_id);
    }
    const util::trace::RequestContext ctx{request_id, capture.get()};
    util::trace::RequestScope request_scope(&ctx);

    CompileReport report = [&]() -> CompileReport {
        util::trace::Span span("service.compile");
        // A file input is read once: the cache key and the load stage
        // share its bytes.
        std::string storage;
        const auto qasm = read_qasm_source(request, storage);

        // Content-addressed fast path: when a cache is configured and
        // the request's input is addressable, a hit replays the stored
        // report for the cost of one lookup. Failures are never
        // cached, and a request whose key cannot be computed (e.g.
        // unreadable file) falls through to the pipeline, which
        // reports the same failure.
        if (cache_ != nullptr && qasm.ok()) {
            const auto key = request_cache_key(request, *qasm);
            if (key.ok()) {
                const auto start = std::chrono::steady_clock::now();
                const auto hit = cache_->get(*key);
                const double lookup_ms =
                    std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
                if (hit != nullptr) {
                    CompileReport cached = *hit;
                    cached.from_cache = true;
                    cached.stages = {{"cache", lookup_ms}};
                    cached.name = report_name(request);
                    record_request_metrics(request, cached);
                    return cached;
                }
                CompileReport fresh = compile_uncached(request, qasm);
                record_request_metrics(request, fresh);
                if (fresh.ok()) {
                    cache_->put(*key,
                                std::make_shared<const CompileReport>(fresh));
                }
                return fresh;
            }
        }

        CompileReport fresh = compile_uncached(request, qasm);
        record_request_metrics(request, fresh);
        return fresh;
    }();

    report.request_id = request_id;
    if (capture != nullptr) maybe_write_slow_trace(report, *capture);
    return report;
}

void
Service::maybe_write_slow_trace(const CompileReport& report,
                                const util::trace::RequestCapture& capture)
{
    const bool slow = report.total_ms() > options_.slow_request_ms;
    if (!slow && report.ok()) return;
    // Lifetime rate limit, claimed with a CAS so concurrent offenders
    // never write more than slow_trace_max artifacts between them.
    std::size_t written =
        slow_traces_written_.load(std::memory_order_relaxed);
    while (true) {
        if (written >= options_.slow_trace_max) {
            metrics_.add("service.slow_captures_suppressed", 1.0);
            return;
        }
        if (slow_traces_written_.compare_exchange_weak(
                written, written + 1, std::memory_order_relaxed)) {
            break;
        }
    }
    fs::path path = options_.slow_trace_dir.empty()
                        ? fs::path(".")
                        : fs::path(options_.slow_trace_dir);
    path /= "slow_req_" + std::to_string(capture.request_id()) +
            ".trace.json";
    std::ofstream out(path);
    if (!out) {
        metrics_.add("service.slow_capture_errors", 1.0);
        return;
    }
    capture.write_chrome_trace(out);
    metrics_.add("service.slow_captures", 1.0);
}

CompileReport
Service::compile_uncached(const CompileRequest& request,
                          const util::StatusOr<std::string_view>& qasm,
                          TemplateCapture* capture)
{
    CompileReport report;
    report.name = request.name;
    report.strategy = strategy_name(request.strategy);

    // Shared stage path: every pass invocation goes through run_stage,
    // which skips once a prior stage failed, records wall-clock per
    // stage, and funnels failures into report.status.
    auto run_stage = [&report](const char* name, auto&& body) {
        if (!report.status.ok()) return false;
        util::trace::Span stage_span(std::string("service.stage.") + name);
        const auto start = std::chrono::steady_clock::now();
        util::Status status = body();
        const double ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start)
                .count();
        report.stages.push_back({name, ms});
        if (!status.ok()) report.status = std::move(status);
        return report.status.ok();
    };

    circuit::Circuit input;
    run_stage("load", [&]() -> util::Status {
        if (auto single = check_single_input(request); !single.ok()) {
            return single;
        }
        report.name = report_name(request);
        if (request.select_by_esp) {
            if (request.strategy != Strategy::kQsCaqr &&
                request.strategy != Strategy::kQsCommuting) {
                return util::Status::invalid_argument(
                    "select_by_esp needs strategy qs_caqr or "
                    "qs_commuting");
            }
            if (!request.map_to_backend) {
                return util::Status::invalid_argument(
                    "select_by_esp needs map_to_backend");
            }
        }
        if (request.commuting.has_value()) {
            if (request.strategy != Strategy::kQsCommuting &&
                request.strategy != Strategy::kSrCaqr) {
                return util::Status::invalid_argument(
                    "a commuting workload needs strategy qs_commuting "
                    "or sr_caqr");
            }
            report.logical_qubits =
                request.commuting->interaction.num_nodes();
            return {};
        }
        if (request.strategy == Strategy::kQsCommuting) {
            return util::Status::invalid_argument(
                "strategy qs_commuting needs a commuting workload "
                "input");
        }
        if (request.circuit.has_value()) {
            input = *request.circuit;
        } else {
            if (!qasm.ok()) return qasm.status();
            auto parsed = qasm::parse_circuit(*qasm);
            if (!parsed.ok()) return parsed.status();
            input = std::move(parsed).value();
        }
        report.logical_qubits = input.active_qubit_count();
        return {};
    });

    std::shared_ptr<const arch::Backend> backend;
    const bool needs_backend =
        request.map_to_backend || request.strategy == Strategy::kSrCaqr;
    if (needs_backend) {
        run_stage("backend", [&]() -> util::Status {
            auto resolved = this->backend(request.backend);
            if (!resolved.ok()) return resolved.status();
            backend = std::move(resolved).value();
            report.backend = backend->name();
            return {};
        });
    }

    // Reuse pass (strategy dispatch). `reuse_level` is the logical
    // circuit the mapping and simulation stages consume; kSrCaqr maps
    // internally and fills the report directly.
    circuit::Circuit reuse_level;
    auto report_version = [&](const core::VersionInfo& version) {
        report.qubits = version.qubits;
        report.reuses = version.reuses;
        report.depth = version.depth;
        report.duration_dt = version.duration_dt;
    };
    // Both QS engines end here. Without selection the max-reuse
    // version's circuit, which the search already built, moves out and
    // the search result goes with the stage; with it, every version
    // waits for `select_version`.
    std::optional<core::VersionSet> candidates;
    auto take_versions = [&](core::VersionSet versions) {
        if (request.select_by_esp) {
            candidates.emplace(std::move(versions));
            return;
        }
        report_version(versions.back());
        reuse_level = std::move(versions).take_max_reuse();
    };
    auto take_mapped = [&](transpile::TranspileResult result) {
        report.compiled = std::move(result.circuit);
        report.swaps = result.swaps_added;
        report.depth = result.depth;
        report.duration_dt = result.duration_dt;
        report.esp = result.esp;
        report.physical_qubits = report.compiled.active_qubit_count();
    };
    switch (request.strategy) {
      case Strategy::kBaseline:
        run_stage("analyze", [&]() -> util::Status {
            reuse_level = std::move(input);
            report.qubits = report.logical_qubits;
            if (!request.map_to_backend) {
                report.depth = circuit::depth(reuse_level);
                circuit::LogicalDurations model;
                report.duration_dt =
                    circuit::critical_path(reuse_level, model);
            }
            return {};
        });
        break;
      case Strategy::kQsCaqr:
        run_stage("qs_caqr", [&]() -> util::Status {
            // The stage is the input's last reader.
            auto result = core::qs_caqr_or(std::move(input), request.qs);
            if (!result.ok()) return result.status();
            take_versions(core::VersionSet(std::move(result).value()));
            return {};
        });
        break;
      case Strategy::kQsCommuting:
        run_stage("qs_commuting", [&]() -> util::Status {
            auto result = core::qs_caqr_commuting_or(*request.commuting,
                                                      request.qs_commuting);
            if (!result.ok()) return result.status();
            take_versions(core::VersionSet(std::move(result).value()));
            return {};
        });
        break;
      case Strategy::kSrCaqr:
        run_stage("sr_caqr", [&]() -> util::Status {
            auto result =
                request.commuting.has_value()
                    ? core::sr_caqr_commuting_or(*request.commuting,
                                                 *backend, request.sr,
                                                 request.qs_commuting)
                    : core::sr_caqr_or(input, *backend, request.sr);
            if (!result.ok()) return result.status();
            report.compiled = std::move(result->circuit);
            report.qubits = result->physical_qubits_used;
            report.physical_qubits = result->physical_qubits_used;
            report.swaps = result->swaps_added;
            report.reuses = result->reuses;
            report.depth = result->depth;
            report.duration_dt = result->duration_dt;
            report.esp = result->esp;
            return {};
        });
        break;
    }

    if (candidates.has_value()) {
        // Paper §3.2 version selection: rank every version mapped with
        // the request's own options, and keep the winner's mapping.
        run_stage("select_version", [&]() -> util::Status {
            auto versions =
                core::map_versions(*candidates, *backend, request.transpile);
            if (!versions.ok()) return versions.status();
            const std::size_t index = core::best_by_esp(*versions);
            reuse_level = candidates->circuit(index);
            report_version((*candidates)[index]);
            take_mapped(std::move((*versions)[index]));
            return {};
        });
        candidates.reset();
    } else if (request.strategy != Strategy::kSrCaqr) {
        if (request.map_to_backend) {
            run_stage("map", [&]() -> util::Status {
                auto result = transpile::transpile_or(
                    reuse_level, *backend, request.transpile);
                if (!result.ok()) return result.status();
                take_mapped(std::move(result).value());
                return {};
            });
        } else if (report.status.ok()) {
            report.compiled = reuse_level;
        }
    }

    if (request.simulate) {
        run_stage("simulate", [&]() -> util::Status {
            const circuit::Circuit& target =
                request.strategy == Strategy::kSrCaqr ? report.compiled
                                                      : reuse_level;
            report.counts = sim::simulate(target, request.sim);
            return {};
        });
    }

    if (capture != nullptr && report.status.ok() &&
        request.strategy != Strategy::kSrCaqr) {
        capture->reuse_level = std::move(reuse_level);
        capture->has_reuse_level = true;
    }

    return report;
}

util::StatusOr<TemplateHandle>
Service::compile_template(const CompileRequest& request)
{
    util::trace::Span span("service.compile_template");
    if (template_cache_ == nullptr) {
        return util::Status::invalid_argument(
            "templates are disabled (template_cache_capacity = 0)");
    }

    CompileRequest shaped = request;
    if (shaped.commuting.has_value()) {
        // Commuting angles become named gamma<l>/beta<l> parameters so
        // the frozen schedule stays rebindable.
        shaped.commuting->symbolic = true;
    } else if (!shaped.circuit.has_value()) {
        // A QASM input is parsed once: the skeleton key and the compile
        // both read the parsed circuit.
        if (auto single = check_single_input(request); !single.ok()) {
            return single;
        }
        std::string storage;
        const auto qasm = read_qasm_source(request, storage);
        if (!qasm.ok()) return qasm.status();
        auto parsed = qasm::parse_circuit(*qasm);
        if (!parsed.ok()) return parsed.status();
        shaped.name = report_name(request);
        shaped.qasm.clear();
        shaped.qasm_file.clear();
        shaped.circuit = std::move(parsed).value();
    }
    const auto key = template_cache_key(shaped);
    if (!key.ok()) return key.status();

    // Admission lock: one skeleton compiles at most once concurrently;
    // losers of the race resolve to the winner's resident template.
    // Binds only take template_mutex_, so they never wait on this.
    std::lock_guard<std::mutex> admission(template_admission_mutex_);
    if (auto resident = template_cache_->get(*key)) {
        return TemplateHandle{resident->id};
    }

    shaped.simulate = false;  // deferred to bind time
    TemplateCapture capture;
    CompileReport base =
        compile_uncached(shaped, std::string_view(), &capture);
    if (!base.ok()) return base.status;

    auto built = std::make_shared<CompiledTemplate>();
    built->id = next_template_id_.fetch_add(1, std::memory_order_relaxed);
    built->param_names.reserve(base.compiled.params().size());
    for (const auto& param : base.compiled.params()) {
        built->param_names.push_back(param.name);
        built->default_values.push_back(param.value);
    }
    built->slots = slot_map(base.compiled);
    built->simulate = request.simulate;
    built->sim_separate = request.strategy != Strategy::kSrCaqr &&
                          capture.has_reuse_level;
    built->sim_options = request.sim;
    if (built->simulate && built->sim_separate) {
        built->sim_circuit = std::move(capture.reuse_level);
        built->sim_slots = slot_map(built->sim_circuit);
    }
    built->base = std::move(base);

    std::shared_ptr<const CompiledTemplate> frozen = std::move(built);
    {
        std::lock_guard<std::mutex> lock(template_mutex_);
        templates_by_id_.emplace(frozen->id, frozen);
        for (const auto& dropped : template_cache_->put(*key, frozen)) {
            templates_by_id_.erase(dropped->id);
        }
    }
    return TemplateHandle{frozen->id};
}

util::StatusOr<CompileReport>
Service::bind(TemplateHandle handle, std::span<const double> values)
{
    util::trace::Span span("service.bind");
    const auto start = std::chrono::steady_clock::now();

    std::shared_ptr<const CompiledTemplate> tmpl;
    {
        std::lock_guard<std::mutex> lock(template_mutex_);
        auto it = templates_by_id_.find(handle.id);
        if (it != templates_by_id_.end()) tmpl = it->second;
    }
    if (tmpl == nullptr) {
        return util::Status::not_found(
            "unknown or evicted template handle " +
            std::to_string(handle.id));
    }
    if (values.size() != tmpl->param_names.size()) {
        std::string names;
        for (const auto& name : tmpl->param_names) {
            if (!names.empty()) names += ", ";
            names += name;
        }
        return util::Status::invalid_argument(
            "template " + std::to_string(handle.id) + " takes " +
            std::to_string(tmpl->param_names.size()) + " value(s) [" +
            names + "], got " + std::to_string(values.size()));
    }

    // Everything below is O(#params + #slots): the frozen schedule is
    // copied and the slot lists rewrite only the referenced angles.
    CompileReport report = tmpl->base;
    for (std::size_t p = 0; p < values.size(); ++p) {
        const auto ref = static_cast<circuit::ParamRef>(p);
        report.compiled.set_param_value(ref, values[p]);
        for (std::size_t index : tmpl->slots[p]) {
            report.compiled.set_angle(index, values[p]);
        }
    }
    const double bind_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    report.stages = {{"bind", bind_ms}};

    if (tmpl->simulate) {
        const auto sim_start = std::chrono::steady_clock::now();
        if (tmpl->sim_separate) {
            circuit::Circuit target = tmpl->sim_circuit;
            for (std::size_t p = 0; p < values.size(); ++p) {
                target.set_param_value(
                    static_cast<circuit::ParamRef>(p), values[p]);
                for (std::size_t index : tmpl->sim_slots[p]) {
                    target.set_angle(index, values[p]);
                }
            }
            report.counts = sim::simulate(target, tmpl->sim_options);
        } else {
            report.counts =
                sim::simulate(report.compiled, tmpl->sim_options);
        }
        report.stages.push_back(
            {"simulate", std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - sim_start)
                             .count()});
    }

    // Binds are not compile requests: they keep service.requests and
    // the stage histograms describing pipeline runs untouched.
    metrics_.add("service.binds", 1.0);
    metrics_.observe("service.bind_ms", report.total_ms());
    return report;
}

util::StatusOr<TemplateInfo>
Service::template_info(TemplateHandle handle) const
{
    std::shared_ptr<const CompiledTemplate> tmpl;
    {
        std::lock_guard<std::mutex> lock(template_mutex_);
        auto it = templates_by_id_.find(handle.id);
        if (it != templates_by_id_.end()) tmpl = it->second;
    }
    if (tmpl == nullptr) {
        return util::Status::not_found(
            "unknown or evicted template handle " +
            std::to_string(handle.id));
    }
    TemplateInfo info;
    info.id = tmpl->id;
    info.name = tmpl->base.name;
    info.backend = tmpl->base.backend;
    info.strategy = tmpl->base.strategy;
    info.param_names = tmpl->param_names;
    info.default_values = tmpl->default_values;
    return info;
}

void
Service::record_request_metrics(const CompileRequest& request,
                                const CompileReport& report)
{
    const bool mapped = report.ok() &&
                        (request.map_to_backend ||
                         request.strategy == Strategy::kSrCaqr);
    // Per-request aggregation: unlike the last-write-wins trace
    // gauges, every request lands in the histograms, so a batch's
    // metrics snapshot carries real p50/p90/p99 distributions. Cache
    // hits contribute too — the latency histograms describe what
    // clients actually observed.
    metrics_.add("service.requests", 1.0);
    if (!report.ok()) metrics_.add("service.failures", 1.0);
    metrics_.observe("service.total_ms", report.total_ms());
    for (const auto& stage : report.stages) {
        metrics_.observe("service.stage." + stage.stage + "_ms",
                         stage.ms);
    }
    if (report.ok()) {
        metrics_.observe("service.qubits",
                         static_cast<double>(report.qubits));
        metrics_.observe("service.depth",
                         static_cast<double>(report.depth));
        if (mapped) {
            metrics_.observe("service.swaps",
                             static_cast<double>(report.swaps));
            metrics_.observe("service.esp", report.esp);
        }
    }
}

util::metrics::Snapshot
Service::metrics_snapshot() const
{
    auto snapshot = metrics_.snapshot();
    snapshot.merge(util::metrics::global().snapshot());
    return snapshot;
}

std::vector<CompileReport>
Service::compile_batch(const std::vector<CompileRequest>& requests)
{
    util::trace::Span span("service.compile_batch");
    return util::fan_out(
        requests.size(),
        util::ThreadPool::resolve_threads(options_.num_threads),
        [&](std::size_t index) { return compile(requests[index]); });
}

util::StatusOr<std::vector<CompileRequest>>
requests_from_path(const std::string& path, const CompileRequest& prototype)
{
    std::error_code ec;
    std::vector<std::string> files;
    if (fs::is_directory(path, ec)) {
        for (const auto& entry : fs::directory_iterator(path, ec)) {
            if (entry.is_regular_file() &&
                entry.path().extension() == ".qasm") {
                files.push_back(entry.path().string());
            }
        }
        std::sort(files.begin(), files.end());
    } else if (fs::is_regular_file(path, ec)) {
        std::ifstream manifest(path);
        if (!manifest) {
            return util::Status::io_error("cannot open manifest '" +
                                          path + "'");
        }
        const fs::path base = fs::path(path).parent_path();
        std::string line;
        bool first_line = true;
        while (std::getline(manifest, line)) {
            const auto begin = line.find_first_not_of(" \t\r");
            if (begin == std::string::npos) continue;
            const auto end = line.find_last_not_of(" \t\r");
            line = line.substr(begin, end - begin + 1);
            if (std::exchange(first_line, false) &&
                line.starts_with("OPENQASM")) {
                files.push_back(path);  // a QASM file, not a manifest
                break;
            }
            if (line.front() == '#') continue;
            fs::path entry(line);
            if (entry.is_relative()) entry = base / entry;
            files.push_back(entry.string());
        }
    } else {
        return util::Status::not_found(
            "no such directory or manifest: '" + path + "'");
    }

    if (files.empty()) {
        return util::Status::invalid_argument(
            "'" + path + "' names no .qasm files");
    }
    std::vector<CompileRequest> requests;
    requests.reserve(files.size());
    for (const auto& file : files) {
        CompileRequest request = prototype;
        request.name.clear();
        request.circuit.reset();
        request.qasm.clear();
        request.commuting.reset();
        request.qasm_file = file;
        requests.push_back(std::move(request));
    }
    return requests;
}

}  // namespace caqr
