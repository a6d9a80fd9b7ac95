#include "arch/calibration.h"

#include <algorithm>

#include "util/rng.h"

namespace caqr::arch {

Calibration
Calibration::synthesize(const graph::UndirectedGraph& topology, unsigned seed)
{
    Calibration cal;
    cal.qubits.reserve(static_cast<std::size_t>(topology.num_nodes()));
    cal.links.reserve(topology.edges().size());

    // Deterministic per-entity draws: hash the entity id with the seed.
    auto entity_rng = [seed](std::uint64_t entity) {
        return util::Rng(0x5851f42d4c957f2dULL * (entity + 1) + seed);
    };

    for (int q = 0; q < topology.num_nodes(); ++q) {
        util::Rng rng = entity_rng(static_cast<std::uint64_t>(q));
        QubitCalibration& qc = cal.qubits.emplace_back();
        qc.readout_error = 0.01 + 0.03 * rng.next_double();
        qc.t1_us = 70.0 + 60.0 * rng.next_double();
        qc.t2_us = std::min(qc.t1_us, 50.0 + 60.0 * rng.next_double());
        qc.sx_error = 2e-4 + 3e-4 * rng.next_double();
    }
    for (const auto& [a, b] : topology.edges()) {
        util::Rng rng = entity_rng(
            (static_cast<std::uint64_t>(a) << 20) ^
            static_cast<std::uint64_t>(b) ^ 0xabcdefULL);
        LinkCalibration& lc = cal.links.emplace_back();
        lc.cx_error = 0.005 + 0.015 * rng.next_double();
        lc.cx_duration_dt = 800.0 + 1800.0 * rng.next_double();
    }
    return cal;
}

}  // namespace caqr::arch
