#include "service/protocol.h"

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <vector>

#include "util/metrics.h"

namespace caqr::serve {

namespace {

/// One %.6g-formatted double for protocol lines.
std::string
fmt6(double value)
{
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.6g", value);
    return buffer;
}

/// Renders the live metrics snapshot as `stat` lines. Histograms
/// carry count/min/mean/p50/p90/p99/max; counters a single value.
void
print_stats(std::ostream& os, const util::metrics::Snapshot& snapshot)
{
    for (const auto& [name, histogram] : snapshot.histograms) {
        os << "stat " << name << " count=" << histogram.count()
           << " min=" << fmt6(histogram.min())
           << " mean=" << fmt6(histogram.mean())
           << " p50=" << fmt6(histogram.percentile(50))
           << " p90=" << fmt6(histogram.percentile(90))
           << " p99=" << fmt6(histogram.percentile(99))
           << " max=" << fmt6(histogram.max()) << "\n";
    }
    // Rolling windows mirror their lifetime histograms under a
    // `.window` suffix — live tail latency over the last
    // `window_seconds`, not since process start.
    for (const auto& [name, histogram] : snapshot.windows) {
        os << "stat " << name << ".window count=" << histogram.count()
           << " p50=" << fmt6(histogram.percentile(50))
           << " p90=" << fmt6(histogram.percentile(90))
           << " p99=" << fmt6(histogram.percentile(99))
           << " max=" << fmt6(histogram.max()) << "\n";
    }
    for (const auto& [name, value] : snapshot.counters) {
        os << "stat " << name << " value=" << fmt6(value) << "\n";
    }
    for (const auto& [name, value] : snapshot.gauges) {
        os << "stat " << name << " gauge=" << fmt6(value) << "\n";
    }
}

}  // namespace

LineBuffer::LineBuffer(std::size_t max_line_bytes)
    : max_line_bytes_(max_line_bytes) {}

bool
LineBuffer::append(const char* data, std::size_t size)
{
    if (overflowed_) return false;
    buffer_.append(data, size);
    // Only the unterminated tail counts against the limit; complete
    // lines are extracted by next_line() before more bytes arrive.
    const auto last_newline = buffer_.rfind('\n');
    const std::size_t tail = last_newline == std::string::npos
                                 ? buffer_.size()
                                 : buffer_.size() - last_newline - 1;
    if (tail > max_line_bytes_) {
        overflowed_ = true;
        return false;
    }
    return true;
}

std::optional<std::string>
LineBuffer::next_line()
{
    const auto newline = buffer_.find('\n');
    if (newline == std::string::npos) return std::nullopt;
    std::string line = buffer_.substr(0, newline);
    buffer_.erase(0, newline + 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    return line;
}

std::optional<std::string>
LineBuffer::take_partial()
{
    if (buffer_.empty()) return std::nullopt;
    std::string line = std::move(buffer_);
    buffer_.clear();
    if (!line.empty() && line.back() == '\r') line.pop_back();
    return line;
}

Session::Session(Service& service, const SessionOptions& options)
    : service_(service)
{
    prototype_.strategy = options.strategy;
    prototype_.backend = options.backend;
    // The serving level owns the parallelism — sessions compile
    // concurrently — so each request compiles serially.
    prototype_.qs.num_threads = 1;
    prototype_.qs_commuting.num_threads = 1;
    prototype_.transpile.num_threads = 1;
    prototype_.sr.num_threads = 1;
}

std::string
Session::greeting(const SessionOptions& options)
{
    return std::string("ok caqr serve protocol=") +
           std::to_string(kProtocolVersion) +
           " (strategy=" + strategy_name(options.strategy) +
           " backend=" + options.backend + "); try help\n";
}

Session::Result
Session::handle_line(const std::string& line)
{
    std::istringstream words(line);
    std::string command;
    words >> command;
    if (command.empty() || command[0] == '#') return {};

    std::ostringstream out;
    int compiles = 0;
    int cache_hits = 0;
    if (command == "quit" || command == "exit") {
        out << "ok bye\n";
        return {out.str(), true};
    }

    if (command == "help") {
        out << "# compile <file.qasm> | batch <dir|manifest> |"
               " template <file.qasm> | bind <id> <value...> |"
               " stats [json] |"
               " set strategy|backend <name> |"
               " set trials|threads <n> | version | reset | quit\n"
            << "ok help\n";
    } else if (command == "version") {
        out << "ok version protocol=" << kProtocolVersion
            << " features=template,bind\n";
    } else if (command == "template") {
        std::string path;
        words >> path;
        if (path.empty()) {
            out << "error template needs a .qasm path\n";
            return {out.str(), false};
        }
        CompileRequest request = prototype_;
        request.qasm_file = path;
        const auto handle = service_.compile_template(request);
        if (!handle.ok()) {
            out << "error " << handle.status().to_string() << "\n";
            return {out.str(), false};
        }
        const auto info = service_.template_info(*handle);
        if (!info.ok()) {
            out << "error " << info.status().to_string() << "\n";
            return {out.str(), false};
        }
        out << "ok template id=" << info->id << " params=";
        for (std::size_t i = 0; i < info->param_names.size(); ++i) {
            if (i > 0) out << ',';
            out << info->param_names[i];
        }
        out << "\n";
    } else if (command == "bind") {
        std::uint64_t id = 0;
        if (!(words >> id)) {
            out << "error bind needs a template id (see template)\n";
            return {out.str(), false};
        }
        std::vector<double> values;
        double value = 0.0;
        while (words >> value) values.push_back(value);
        if (!words.eof()) {
            out << "error bind values must be numbers\n";
            return {out.str(), false};
        }
        const auto report = service_.bind(TemplateHandle{id}, values);
        if (!report.ok()) {
            out << "error " << report.status().to_string() << "\n";
            return {out.str(), false};
        }
        compiles = 1;
        if (report->from_cache) cache_hits = 1;
        out << "ok " << batch_csv_row(*report) << "\n";
    } else if (command == "compile") {
        std::string path;
        words >> path;
        if (path.empty()) {
            out << "error compile needs a .qasm path\n";
            return {out.str(), false};
        }
        CompileRequest request = prototype_;
        request.qasm_file = path;
        const auto report = service_.compile(request);
        compiles = 1;
        if (report.from_cache) cache_hits = 1;
        if (report.ok()) {
            out << "ok " << batch_csv_row(report) << "\n";
        } else {
            out << "error " << report.name << ": "
                << report.status.to_string() << "\n";
        }
    } else if (command == "batch") {
        std::string path;
        words >> path;
        const auto requests = requests_from_path(path, prototype_);
        if (!requests.ok()) {
            out << "error " << requests.status().to_string() << "\n";
            return {out.str(), false};
        }
        const auto reports = service_.compile_batch(*requests);
        int failures = 0;
        for (const auto& report : reports) {
            out << "row " << batch_csv_row(report) << "\n";
            if (!report.ok()) ++failures;
            ++compiles;
            if (report.from_cache) ++cache_hits;
        }
        out << "ok batch n=" << reports.size()
            << " failures=" << failures << "\n";
    } else if (command == "stats") {
        std::string format;
        words >> format;
        const auto snapshot = service_.metrics_snapshot();
        if (format == "json") {
            snapshot.write_json(out);
        } else {
            print_stats(out, snapshot);
        }
        out << "ok stats\n";
    } else if (command == "set") {
        std::string key, value;
        words >> key >> value;
        if (key == "strategy") {
            const auto parsed = parse_strategy(value);
            if (!parsed.ok()) {
                out << "error " << parsed.status().to_string() << "\n";
                return {out.str(), false};
            }
            prototype_.strategy = *parsed;
            out << "ok set strategy " << strategy_name(*parsed) << "\n";
        } else if (key == "backend") {
            const auto resolved = service_.backend(value);
            if (!resolved.ok()) {
                out << "error " << resolved.status().to_string() << "\n";
                return {out.str(), false};
            }
            prototype_.backend = value;
            out << "ok set backend " << (*resolved)->name() << "\n";
        } else if (key == "trials" || key == "threads") {
            int parsed = 0;
            try {
                parsed = std::stoi(value);
            } catch (const std::exception&) {
                out << "error set " << key << " needs an integer, not '"
                    << value << "'\n";
                return {out.str(), false};
            }
            if (key == "trials") {
                if (parsed < 1) {
                    out << "error set trials needs n >= 1\n";
                    return {out.str(), false};
                }
                // One knob drives both engines: the routing trial
                // count and the SR variant-trial count.
                prototype_.transpile.trials = parsed;
                prototype_.sr.trials = parsed;
            } else {
                // 0 = one thread per hardware core; capped by the
                // service pool at compile time.
                prototype_.transpile.num_threads = parsed;
                prototype_.sr.num_threads = parsed;
            }
            out << "ok set " << key << " " << parsed << "\n";
        } else {
            out << "error set knows strategy|backend|trials|threads, not '"
                << key << "'\n";
        }
    } else if (command == "reset") {
        service_.reset_metrics();
        util::metrics::global().reset();
        out << "ok reset\n";
    } else {
        out << "error unknown command '" << command << "' (try help)\n";
    }
    return {out.str(), false, compiles, cache_hits};
}

}  // namespace caqr::serve
