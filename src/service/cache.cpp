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
    // guarantee; only the heuristic seed reaches the output, and only
    // for the passes that read one (not the QS engines).
    lines.push_back(opt(prefix + ".seed",
                        static_cast<long long>(common.seed)));
}

/// The request's one input, read once for both keys: `text` holds
/// inline QASM or the file's bytes; a circuit or commuting spec is
/// borrowed from the request, the spec's edges pre-serialized.
struct KeyInput
{
    const circuit::Circuit* circuit = nullptr;
    const core::CommutingSpec* commuting = nullptr;
    std::string text;
    std::string edges;  ///< "edge u v" lines, canonical order
};

util::StatusOr<KeyInput>
read_key_input(const CompileRequest& request)
{
    if (auto single = check_single_input(request); !single.ok()) {
        return single;
    }
    KeyInput input;
    if (request.commuting.has_value()) {
        input.commuting = &*request.commuting;
        // Edge identity, not insertion order: the same interaction
        // graph assembled in a different order must hash equal.
        std::vector<std::pair<int, int>> edges =
            request.commuting->interaction.edges();
        for (auto& [u, v] : edges) {
            if (u > v) std::swap(u, v);
        }
        std::sort(edges.begin(), edges.end());
        std::ostringstream os;
        for (const auto& [u, v] : edges) {
            os << "edge " << u << ' ' << v << '\n';
        }
        input.edges = std::move(os).str();
    } else if (request.circuit.has_value()) {
        input.circuit = &*request.circuit;
    } else if (!request.qasm.empty()) {
        input.text = request.qasm;
    } else {
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
        input.text = std::move(buffer).str();
    }
    return input;
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
        break;
      case Strategy::kSrCaqr:
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

util::StatusOr<std::string>
request_cache_key(const CompileRequest& request)
{
    auto input = read_key_input(request);
    if (!input.ok()) return input.status();
    std::string key =
        "caqr-cache-v1\n" +
        canonicalize_option_lines(request_option_lines(request)) +
        "---input---\n";
    if (const auto* spec = input->commuting) {
        std::ostringstream os;
        os << "commuting nodes=" << spec->interaction.num_nodes()
           << " layers=" << spec->layers
           << " symbolic=" << (spec->symbolic ? 1 : 0)
           << " gamma=" << fmt_double(spec->gamma)
           << " beta=" << fmt_double(spec->beta) << '\n';
        for (double gamma : spec->gammas) {
            os << "gamma_layer=" << fmt_double(gamma) << '\n';
        }
        for (double beta : spec->betas) {
            os << "beta_layer=" << fmt_double(beta) << '\n';
        }
        key += std::move(os).str();
        key += input->edges;
    } else if (input->circuit != nullptr) {
        key += qasm::to_qasm(*input->circuit);
    } else {
        key += input->text;
    }
    return key;
}

util::StatusOr<std::string>
template_cache_key(const CompileRequest& request)
{
    auto input = read_key_input(request);
    if (!input.ok()) return input.status();
    std::string key =
        "caqr-template-v1\n" +
        canonicalize_option_lines(request_option_lines(request)) +
        "---skeleton---\n";
    if (const auto* spec = input->commuting) {
        // Angles are the template's parameters; structure is the graph
        // and the layer count.
        key += "commuting nodes=" +
               std::to_string(spec->interaction.num_nodes()) +
               " layers=" + std::to_string(spec->layers) + '\n';
        key += input->edges;
    } else if (input->circuit != nullptr) {
        key += qasm::to_qasm_template(*input->circuit);
    } else {
        // Textual inputs are parsed so named parameters mask out — the
        // raw bytes differ per bound value, the template print does not.
        auto parsed = qasm::parse_circuit(input->text);
        if (!parsed.ok()) return parsed.status();
        key += qasm::to_qasm_template(*parsed);
    }
    return key;
}

}  // namespace caqr
