#include "arch/calibration.h"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "util/logging.h"
#include "util/rng.h"

namespace caqr::arch {

std::pair<int, int>
Calibration::key(int a, int b)
{
    return {std::min(a, b), std::max(a, b)};
}

Calibration
Calibration::synthesize(const graph::UndirectedGraph& topology, unsigned seed)
{
    Calibration cal;
    cal.qubits_.resize(static_cast<std::size_t>(topology.num_nodes()));

    // Deterministic per-entity draws: hash the entity id with the seed.
    auto entity_rng = [seed](std::uint64_t entity) {
        return util::Rng(0x5851f42d4c957f2dULL * (entity + 1) + seed);
    };

    for (int q = 0; q < topology.num_nodes(); ++q) {
        util::Rng rng = entity_rng(static_cast<std::uint64_t>(q));
        QubitCalibration& qc = cal.qubits_[static_cast<std::size_t>(q)];
        qc.readout_error = 0.01 + 0.03 * rng.next_double();
        qc.t1_us = 70.0 + 60.0 * rng.next_double();
        qc.t2_us = std::min(qc.t1_us, 50.0 + 60.0 * rng.next_double());
        qc.sx_error = 2e-4 + 3e-4 * rng.next_double();
    }
    for (const auto& [a, b] : topology.edges()) {
        util::Rng rng = entity_rng(
            (static_cast<std::uint64_t>(a) << 20) ^
            static_cast<std::uint64_t>(b) ^ 0xabcdefULL);
        LinkCalibration lc;
        lc.cx_error = 0.005 + 0.015 * rng.next_double();
        lc.cx_duration_dt = 800.0 + 1800.0 * rng.next_double();
        cal.links_[key(a, b)] = lc;
    }
    return cal;
}

const QubitCalibration&
Calibration::qubit(int q) const
{
    CAQR_CHECK(q >= 0 && q < num_qubits(), "qubit id out of range");
    return qubits_[static_cast<std::size_t>(q)];
}

const LinkCalibration&
Calibration::link(int a, int b) const
{
    auto it = links_.find(key(a, b));
    CAQR_CHECK(it != links_.end(), "no calibration for this link");
    return it->second;
}

bool
Calibration::has_link(int a, int b) const
{
    return links_.count(key(a, b)) > 0;
}

void
Calibration::set_qubit(int q, QubitCalibration cal)
{
    if (q >= num_qubits()) {
        qubits_.resize(static_cast<std::size_t>(q) + 1);
    }
    qubits_[static_cast<std::size_t>(q)] = cal;
}

void
Calibration::set_link(int a, int b, LinkCalibration cal)
{
    links_[key(a, b)] = cal;
}

std::string
Calibration::serialize() const
{
    std::ostringstream os;
    os << "# caqr calibration v1\n";
    os << std::setprecision(17);
    for (int q = 0; q < num_qubits(); ++q) {
        const auto& qc = qubits_[static_cast<std::size_t>(q)];
        os << "qubit " << q << " " << qc.readout_error << " " << qc.t1_us
           << " " << qc.t2_us << " " << qc.sx_error << "\n";
    }
    for (const auto& [key, lc] : links_) {
        os << "link " << key.first << " " << key.second << " "
           << lc.cx_error << " " << lc.cx_duration_dt << "\n";
    }
    return os.str();
}

std::optional<Calibration>
Calibration::deserialize(const std::string& text, std::string* error)
{
    Calibration cal;
    std::istringstream is(text);
    std::string line;
    int line_number = 0;
    auto fail = [&](const std::string& message) {
        if (error != nullptr) {
            *error = "line " + std::to_string(line_number) + ": " +
                     message;
        }
        return std::nullopt;
    };

    while (std::getline(is, line)) {
        ++line_number;
        std::istringstream fields(line);
        std::string kind;
        if (!(fields >> kind) || kind[0] == '#') continue;
        if (kind == "qubit") {
            int id;
            QubitCalibration qc;
            if (!(fields >> id >> qc.readout_error >> qc.t1_us >>
                  qc.t2_us >> qc.sx_error) ||
                id < 0) {
                return fail("malformed qubit record");
            }
            cal.set_qubit(id, qc);
        } else if (kind == "link") {
            int a, b;
            LinkCalibration lc;
            if (!(fields >> a >> b >> lc.cx_error >>
                  lc.cx_duration_dt) ||
                a < 0 || b < 0 || a == b) {
                return fail("malformed link record");
            }
            cal.set_link(a, b, lc);
        } else {
            return fail("unknown record kind '" + kind + "'");
        }
    }
    return cal;
}

bool
Calibration::save_file(const std::string& path) const
{
    std::ofstream out(path);
    if (!out) return false;
    out << serialize();
    return static_cast<bool>(out);
}

std::optional<Calibration>
Calibration::load_file(const std::string& path, std::string* error)
{
    std::ifstream in(path);
    if (!in) {
        if (error != nullptr) *error = "cannot open '" + path + "'";
        return std::nullopt;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return deserialize(buffer.str(), error);
}

}  // namespace caqr::arch
