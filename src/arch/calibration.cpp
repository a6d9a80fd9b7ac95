#include "arch/calibration.h"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "util/logging.h"
#include "util/rng.h"

namespace caqr::arch {

namespace {

/// First entry of a sorted link row whose high endpoint is >= @p high.
template <typename Row>
auto
row_position(Row& row, int high)
{
    return std::lower_bound(
        row.begin(), row.end(), high,
        [](const auto& entry, int h) { return entry.high < h; });
}

}  // namespace

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
        cal.set_link(a, b, lc);
    }
    return cal;
}

const LinkCalibration*
Calibration::find_link(int a, int b) const
{
    const int lo = std::min(a, b);
    const int hi = std::max(a, b);
    if (lo < 0 || lo >= static_cast<int>(links_.size())) return nullptr;
    const auto& row = links_[static_cast<std::size_t>(lo)];
    const auto it = row_position(row, hi);
    return it != row.end() && it->high == hi ? &it->cal : nullptr;
}

const LinkCalibration&
Calibration::link(int a, int b) const
{
    const LinkCalibration* cal = find_link(a, b);
    CAQR_CHECK(cal != nullptr, "no calibration for this link");
    return *cal;
}

bool
Calibration::has_link(int a, int b) const
{
    return find_link(a, b) != nullptr;
}

void
Calibration::set_qubit(int q, QubitCalibration cal)
{
    CAQR_CHECK(q >= 0, "qubit id out of range");
    if (q >= num_qubits()) {
        qubits_.resize(static_cast<std::size_t>(q) + 1);
    }
    qubits_[static_cast<std::size_t>(q)] = cal;
}

void
Calibration::set_link(int a, int b, LinkCalibration cal)
{
    const int lo = std::min(a, b);
    const int hi = std::max(a, b);
    CAQR_CHECK(lo >= 0, "link endpoint out of range");
    if (lo >= static_cast<int>(links_.size())) {
        links_.resize(static_cast<std::size_t>(lo) + 1);
    }
    auto& row = links_[static_cast<std::size_t>(lo)];
    const auto it = row_position(row, hi);
    if (it != row.end() && it->high == hi) {
        it->cal = cal;
    } else {
        row.insert(it, LinkEntry{hi, cal});
    }
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
    for (std::size_t lo = 0; lo < links_.size(); ++lo) {
        for (const auto& [hi, lc] : links_[lo]) {
            os << "link " << lo << " " << hi << " " << lc.cx_error << " "
               << lc.cx_duration_dt << "\n";
        }
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
