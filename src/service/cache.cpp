#include "service/cache.h"

#include <algorithm>
#include <charconv>
#include <sstream>

#include "qasm/parser.h"
#include "qasm/printer.h"

namespace caqr {

namespace {

/// `%.17g`: enough digits to tell every two doubles apart.
std::string
fmt_double(double value)
{
    char text[32];
    const auto end = std::to_chars(text, text + sizeof text, value,
                                   std::chars_format::general, 17);
    return std::string(text, end.ptr);
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
    // guarantee; only the heuristic seed reaches the output, and only
    // for the passes that read one (not the QS engines).
    lines.push_back(opt(prefix + ".seed",
                        static_cast<long long>(common.seed)));
}

void
append_qs_commuting(std::vector<std::string>& lines,
                    const core::QsCommutingOptions& options)
{
    lines.push_back(opt("qsc.target_qubits",
                        static_cast<long long>(options.target_qubits)));
    lines.push_back(opt("qsc.max_candidates",
                        static_cast<long long>(options.max_candidates)));
    lines.push_back(opt("qsc.exact_matching_limit",
                        static_cast<long long>(
                            options.scheduling.exact_matching_limit)));
}

/// A commuting spec's edges as "edge u v" lines in canonical order:
/// the same interaction graph assembled in a different order must hash
/// equal.
std::string
edge_lines(const core::CommutingSpec& spec)
{
    std::vector<std::pair<int, int>> edges = spec.interaction.edges();
    for (auto& [u, v] : edges) {
        if (u > v) std::swap(u, v);
    }
    std::sort(edges.begin(), edges.end());
    std::ostringstream os;
    for (const auto& [u, v] : edges) {
        os << "edge " << u << ' ' << v << '\n';
    }
    return std::move(os).str();
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
        append_qs_commuting(lines, request.qs_commuting);
        break;
      case Strategy::kSrCaqr:
        // On a commuting input SR-CaQR sweeps reuse levels with the
        // commuting QS engine first, under the request's options.
        if (request.commuting.has_value()) {
            append_qs_commuting(lines, request.qs_commuting);
        }
        append_common(lines, "sr", request.sr);
        lines.push_back(opt("sr.error_aware", request.sr.error_aware));
        lines.push_back(opt("sr.trials",
                            static_cast<long long>(request.sr.trials)));
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

util::StatusOr<std::string_view>
read_qasm_source(const CompileRequest& request, std::string& storage)
{
    if (!request.qasm.empty() || request.qasm_file.empty()) {
        return std::string_view(request.qasm);
    }
    auto bytes = qasm::read_file(request.qasm_file);
    if (!bytes.ok()) return bytes.status();
    storage = std::move(bytes).value();
    return std::string_view(storage);
}

util::StatusOr<std::string>
request_cache_key(const CompileRequest& request, std::string_view qasm)
{
    if (auto single = check_single_input(request); !single.ok()) {
        return single;
    }
    std::string key =
        "caqr-cache-v1\n" +
        canonicalize_option_lines(request_option_lines(request)) +
        "---input---\n";
    if (const auto& spec = request.commuting) {
        key += "commuting nodes=" +
               std::to_string(spec->interaction.num_nodes()) +
               " layers=" + std::to_string(spec->layers) +
               " symbolic=" + (spec->symbolic ? "1" : "0") +
               " gamma=" + fmt_double(spec->gamma) +
               " beta=" + fmt_double(spec->beta) + '\n';
        for (double gamma : spec->gammas) {
            key += "gamma_layer=" + fmt_double(gamma) + '\n';
        }
        for (double beta : spec->betas) {
            key += "beta_layer=" + fmt_double(beta) + '\n';
        }
        key += edge_lines(*spec);
    } else if (request.circuit.has_value()) {
        key += qasm::to_qasm(*request.circuit);
    } else {
        key += qasm;
    }
    return key;
}

util::StatusOr<std::string>
request_cache_key(const CompileRequest& request)
{
    std::string storage;
    auto qasm = read_qasm_source(request, storage);
    if (!qasm.ok()) return qasm.status();
    return request_cache_key(request, *qasm);
}

util::StatusOr<std::string>
template_cache_key(const CompileRequest& request)
{
    if (auto single = check_single_input(request); !single.ok()) {
        return single;
    }
    std::string key =
        "caqr-template-v1\n" +
        canonicalize_option_lines(request_option_lines(request)) +
        "---skeleton---\n";
    if (const auto& spec = request.commuting) {
        // Angles are the template's parameters; structure is the graph
        // and the layer count.
        key += "commuting nodes=" +
               std::to_string(spec->interaction.num_nodes()) +
               " layers=" + std::to_string(spec->layers) + '\n';
        key += edge_lines(*spec);
    } else if (request.circuit.has_value()) {
        key += qasm::to_qasm_template(*request.circuit);
    } else {
        return util::Status::invalid_argument(
            "a template key needs a circuit or commuting input; parse "
            "QASM first");
    }
    return key;
}

}  // namespace caqr
