#include "service/cache.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "qasm/parser.h"
#include "qasm/printer.h"

namespace caqr {

namespace {

std::string
fmt_double(double value)
{
    std::ostringstream os;
    os.precision(17);
    os << value;
    return os.str();
}

std::string
opt(const std::string& key, const std::string& value)
{
    return key + "=" + value;
}

std::string
opt(const std::string& key, double value)
{
    return key + "=" + fmt_double(value);
}

std::string
opt(const std::string& key, long long value)
{
    return key + "=" + std::to_string(value);
}

std::string
opt(const std::string& key, bool value)
{
    return key + (value ? "=1" : "=0");
}

void
append_common(std::vector<std::string>& lines, const std::string& prefix,
              const CommonOptions& common)
{
    // num_threads is an execution knob with a bit-identical result
    // guarantee; only the heuristic seed reaches the output.
    lines.push_back(opt(prefix + ".seed",
                        static_cast<long long>(common.seed)));
}

/// Serializes the request's input as content, not identity: file
/// inputs are read, circuits printed, commuting specs flattened.
util::StatusOr<std::string>
input_content(const CompileRequest& request)
{
    const int provided = (request.circuit.has_value() ? 1 : 0) +
                         (request.qasm.empty() ? 0 : 1) +
                         (request.qasm_file.empty() ? 0 : 1) +
                         (request.commuting.has_value() ? 1 : 0);
    if (provided != 1) {
        return util::Status::invalid_argument(
            "request has no single input to address");
    }
    if (request.commuting.has_value()) {
        const auto& spec = *request.commuting;
        std::ostringstream os;
        os << "commuting nodes=" << spec.interaction.num_nodes()
           << " layers=" << spec.layers
           << " symbolic=" << (spec.symbolic ? 1 : 0)
           << " gamma=" << fmt_double(spec.gamma)
           << " beta=" << fmt_double(spec.beta) << '\n';
        for (double gamma : spec.gammas) {
            os << "gamma_layer=" << fmt_double(gamma) << '\n';
        }
        for (double beta : spec.betas) {
            os << "beta_layer=" << fmt_double(beta) << '\n';
        }
        // Edge identity, not insertion order: the same interaction
        // graph assembled in a different order must hash equal.
        std::vector<std::pair<int, int>> edges = spec.interaction.edges();
        for (auto& [u, v] : edges) {
            if (u > v) std::swap(u, v);
        }
        std::sort(edges.begin(), edges.end());
        for (const auto& [u, v] : edges) {
            os << "edge " << u << ' ' << v << '\n';
        }
        return os.str();
    }
    if (request.circuit.has_value()) {
        return qasm::to_qasm(*request.circuit);
    }
    if (!request.qasm.empty()) {
        return request.qasm;
    }
    std::ifstream in(request.qasm_file, std::ios::binary);
    if (!in) {
        return util::Status::not_found("cannot read '" +
                                       request.qasm_file + "'");
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (in.bad()) {
        return util::Status::io_error("error reading '" +
                                      request.qasm_file + "'");
    }
    return buffer.str();
}

/// Serializes the request's input by structure, masking bound values:
/// circuits print parameter names, commuting specs drop their angles.
util::StatusOr<std::string>
input_skeleton(const CompileRequest& request)
{
    const int provided = (request.circuit.has_value() ? 1 : 0) +
                         (request.qasm.empty() ? 0 : 1) +
                         (request.qasm_file.empty() ? 0 : 1) +
                         (request.commuting.has_value() ? 1 : 0);
    if (provided != 1) {
        return util::Status::invalid_argument(
            "request has no single input to address");
    }
    if (request.commuting.has_value()) {
        const auto& spec = *request.commuting;
        std::ostringstream os;
        // Angles are the template's parameters; structure is the graph
        // and the layer count.
        os << "commuting nodes=" << spec.interaction.num_nodes()
           << " layers=" << spec.layers << '\n';
        std::vector<std::pair<int, int>> edges = spec.interaction.edges();
        for (auto& [u, v] : edges) {
            if (u > v) std::swap(u, v);
        }
        std::sort(edges.begin(), edges.end());
        for (const auto& [u, v] : edges) {
            os << "edge " << u << ' ' << v << '\n';
        }
        return os.str();
    }
    if (request.circuit.has_value()) {
        return qasm::to_qasm_template(*request.circuit);
    }
    // Textual inputs are parsed so named parameters mask out — the raw
    // bytes differ per bound value, the template print does not.
    std::string source;
    if (!request.qasm.empty()) {
        source = request.qasm;
    } else if (!request.qasm_file.empty()) {
        std::ifstream in(request.qasm_file, std::ios::binary);
        if (!in) {
            return util::Status::not_found("cannot read '" +
                                           request.qasm_file + "'");
        }
        std::ostringstream buffer;
        buffer << in.rdbuf();
        if (in.bad()) {
            return util::Status::io_error("error reading '" +
                                          request.qasm_file + "'");
        }
        source = buffer.str();
    } else {
        return util::Status::invalid_argument(
            "request has no single input to address");
    }
    auto parsed = qasm::parse_circuit(source);
    if (!parsed.ok()) return parsed.status();
    return qasm::to_qasm_template(*parsed);
}

/// The result-affecting option lines shared by `request_cache_key` and
/// `template_cache_key` — everything except the input serialization.
std::vector<std::string>
request_option_lines(const CompileRequest& request)
{
    std::vector<std::string> lines;
    lines.push_back(opt("strategy",
                        std::string(strategy_name(request.strategy))));
    const bool needs_backend = request.map_to_backend ||
                               request.strategy == Strategy::kSrCaqr;
    if (needs_backend) {
        // Collapse alias spellings; an unknown backend keeps its raw
        // spelling (the compile fails and failures are never cached).
        const auto canonical = canonical_backend_name(request.backend);
        lines.push_back(opt("backend", canonical.ok()
                                           ? *canonical
                                           : request.backend));
    }
    lines.push_back(opt("map_to_backend", request.map_to_backend));
    lines.push_back(opt("compute_esp", request.compute_esp));
    lines.push_back(opt("select_by_esp", request.select_by_esp));
    lines.push_back(opt("simulate", request.simulate));
    if (request.simulate) {
        lines.push_back(opt("sim.shots",
                            static_cast<long long>(request.sim.shots)));
        lines.push_back(opt("sim.seed",
                            static_cast<long long>(request.sim.seed)));
        // Fusion changes the floating-point association of gate
        // products, so counts can differ in the last ulp of a
        // measurement draw — it is an output-affecting knob. Thread
        // count is deliberately absent: per-shot RNG streams make
        // counts bit-identical at any num_threads.
        lines.push_back(opt("sim.fuse", request.sim.fuse_gates));
    }

    // Only the option struct the strategy actually consults reaches
    // the key — flipping an SR knob must not split QS entries.
    switch (request.strategy) {
      case Strategy::kBaseline:
        break;
      case Strategy::kQsCaqr:
        append_common(lines, "qs", request.qs);
        lines.push_back(opt("qs.target_qubits",
                            static_cast<long long>(
                                request.qs.target_qubits)));
        lines.push_back(opt(
            "qs.metric",
            std::string(request.qs.metric == core::ReuseMetric::kDepth
                            ? "depth"
                            : "duration")));
        break;
      case Strategy::kQsCommuting:
        append_common(lines, "qsc", request.qs_commuting);
        lines.push_back(opt("qsc.target_qubits",
                            static_cast<long long>(
                                request.qs_commuting.target_qubits)));
        lines.push_back(opt("qsc.max_candidates",
                            static_cast<long long>(
                                request.qs_commuting.max_candidates)));
        lines.push_back(opt(
            "qsc.exact_matching_limit",
            static_cast<long long>(
                request.qs_commuting.scheduling.exact_matching_limit)));
        lines.push_back(opt(
            "qsc.reuse_priority_weight",
            static_cast<long long>(
                request.qs_commuting.scheduling.reuse_priority_weight)));
        break;
      case Strategy::kSrCaqr:
        append_common(lines, "sr", request.sr);
        lines.push_back(opt("sr.error_aware", request.sr.error_aware));
        lines.push_back(opt("sr.lookahead_weight",
                            request.sr.lookahead_weight));
        lines.push_back(opt("sr.swap_lookahead_weight",
                            request.sr.swap_lookahead_weight));
        lines.push_back(opt("sr.trials",
                            static_cast<long long>(request.sr.trials)));
        lines.push_back(opt("sr.placement_pull",
                            request.sr.placement_pull));
        lines.push_back(opt("sr.jitter", request.sr.jitter));
        lines.push_back(opt("sr.jitter_stream",
                            static_cast<long long>(
                                request.sr.jitter_stream)));
        lines.push_back(opt("sr.delay_noncritical",
                            request.sr.delay_noncritical));
        break;
    }
    if (request.strategy != Strategy::kSrCaqr && request.map_to_backend) {
        const auto& tr = request.transpile;
        append_common(lines, "transpile", tr);
        lines.push_back(opt("transpile.keep_rzz", tr.keep_rzz));
        lines.push_back(opt("transpile.trials",
                            static_cast<long long>(tr.trials)));
        lines.push_back(opt("transpile.layout_refine_passes",
                            static_cast<long long>(
                                tr.layout_refine_passes)));
        lines.push_back(opt("transpile.peephole", tr.peephole));
        lines.push_back(opt("router.lookahead_weight",
                            tr.router.lookahead_weight));
        lines.push_back(opt("router.lookahead_size",
                            static_cast<long long>(
                                tr.router.lookahead_size)));
        lines.push_back(opt("router.decay_delta",
                            tr.router.decay_delta));
        lines.push_back(opt("router.decay_reset_interval",
                            static_cast<long long>(
                                tr.router.decay_reset_interval)));
        lines.push_back(opt("router.error_aware",
                            tr.router.error_aware));
        lines.push_back(opt("router.stall_escape_after",
                            static_cast<long long>(
                                tr.router.stall_escape_after)));
    }
    return lines;
}

}  // namespace

std::string
canonicalize_option_lines(std::vector<std::string> lines)
{
    std::sort(lines.begin(), lines.end());
    std::string out;
    for (const auto& line : lines) {
        out += line;
        out += '\n';
    }
    return out;
}

util::StatusOr<std::string>
request_cache_key(const CompileRequest& request)
{
    auto content = input_content(request);
    if (!content.ok()) return content.status();
    return "caqr-cache-v1\n" +
           canonicalize_option_lines(request_option_lines(request)) +
           "---input---\n" + *content;
}

util::StatusOr<std::string>
template_cache_key(const CompileRequest& request)
{
    auto skeleton = input_skeleton(request);
    if (!skeleton.ok()) return skeleton.status();
    return "caqr-template-v1\n" +
           canonicalize_option_lines(request_option_lines(request)) +
           "---skeleton---\n" + *skeleton;
}

CompileCache::CompileCache(std::size_t capacity,
                           util::metrics::Registry* registry)
    : capacity_(capacity), registry_(registry) {}

std::optional<CompileReport>
CompileCache::get(const std::string& key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it == index_.end()) {
        ++misses_;
        if (registry_ != nullptr) registry_->add("service.cache.miss", 1.0);
        return std::nullopt;
    }
    ++hits_;
    if (registry_ != nullptr) registry_->add("service.cache.hit", 1.0);
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second;
}

void
CompileCache::put(const std::string& key, const CompileReport& report)
{
    if (capacity_ == 0) return;
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it != index_.end()) {
        // A concurrent miss on the same key compiled twice; results
        // are deterministic, so refreshing recency is all that's left.
        it->second->second = report;
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    lru_.emplace_front(key, report);
    index_.emplace(key, lru_.begin());
    while (lru_.size() > capacity_) {
        index_.erase(lru_.back().first);
        lru_.pop_back();
        ++evictions_;
        if (registry_ != nullptr) {
            registry_->add("service.cache.evict", 1.0);
        }
    }
}

CompileCacheStats
CompileCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    CompileCacheStats stats;
    stats.hits = hits_;
    stats.misses = misses_;
    stats.evictions = evictions_;
    stats.size = lru_.size();
    stats.capacity = capacity_;
    return stats;
}

void
CompileCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    lru_.clear();
    index_.clear();
}

TemplateCache::TemplateCache(std::size_t capacity,
                             util::metrics::Registry* registry)
    : capacity_(capacity), registry_(registry) {}

std::shared_ptr<const CompiledTemplate>
TemplateCache::get(const std::string& key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it == index_.end()) {
        ++misses_;
        if (registry_ != nullptr) {
            registry_->add("service.template.miss", 1.0);
        }
        return nullptr;
    }
    ++hits_;
    if (registry_ != nullptr) registry_->add("service.template.hit", 1.0);
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second;
}

std::vector<std::shared_ptr<const CompiledTemplate>>
TemplateCache::put(const std::string& key,
                   std::shared_ptr<const CompiledTemplate> entry)
{
    std::vector<std::shared_ptr<const CompiledTemplate>> evicted;
    if (capacity_ == 0) {
        // Nothing is stored, so the entry itself is "evicted" — the
        // caller must not hand out a handle that can never resolve.
        evicted.push_back(std::move(entry));
        return evicted;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it != index_.end()) {
        // Two concurrent misses compiled the same skeleton. Results
        // are deterministic, so either copy serves; keeping the newer
        // one lets the caller uniformly register its handle and retire
        // whatever comes back.
        evicted.push_back(std::move(it->second->second));
        it->second->second = std::move(entry);
        lru_.splice(lru_.begin(), lru_, it->second);
        return evicted;
    }
    lru_.emplace_front(key, std::move(entry));
    index_.emplace(key, lru_.begin());
    while (lru_.size() > capacity_) {
        evicted.push_back(std::move(lru_.back().second));
        index_.erase(lru_.back().first);
        lru_.pop_back();
        ++evictions_;
        if (registry_ != nullptr) {
            registry_->add("service.template.evict", 1.0);
        }
    }
    return evicted;
}

TemplateCacheStats
TemplateCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    TemplateCacheStats stats;
    stats.hits = hits_;
    stats.misses = misses_;
    stats.evictions = evictions_;
    stats.size = lru_.size();
    stats.capacity = capacity_;
    return stats;
}

std::vector<std::shared_ptr<const CompiledTemplate>>
TemplateCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::shared_ptr<const CompiledTemplate>> evicted;
    evicted.reserve(lru_.size());
    for (auto& [key, entry] : lru_) {
        evicted.push_back(std::move(entry));
    }
    lru_.clear();
    index_.clear();
    return evicted;
}

}  // namespace caqr
