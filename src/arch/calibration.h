/**
 * @file
 * Device calibration data: per-qubit readout errors and coherence
 * times, per-link CNOT error rates and durations.
 *
 * The paper reads real calibration from IBM systems ("including the
 * CNOT duration, CNOT error for each physical link, and qubit readout
 * errors", §4.1). We synthesize representative values deterministically
 * from qubit/link ids so every experiment is reproducible; magnitudes
 * follow published Falcon-generation characteristics.
 */
#ifndef CAQR_ARCH_CALIBRATION_H
#define CAQR_ARCH_CALIBRATION_H

#include <vector>

#include "graph/undirected_graph.h"
#include "util/logging.h"

namespace caqr::arch {

/// Per-qubit calibration record.
struct QubitCalibration
{
    double readout_error = 0.02;   ///< probability of a readout flip
    double t1_us = 100.0;          ///< relaxation time, microseconds
    double t2_us = 80.0;           ///< dephasing time, microseconds
    double sx_error = 3e-4;        ///< single-qubit gate error
};

/// Per-physical-link calibration record.
struct LinkCalibration
{
    double cx_error = 1e-2;        ///< CNOT error rate
    double cx_duration_dt = 1800;  ///< CNOT duration in dt cycles
};

/// Calibration of a device topology: one record per qubit and one per
/// link. `Backend` maps a physical pair to its link record.
struct Calibration
{
    /// Indexed by qubit id.
    std::vector<QubitCalibration> qubits;
    /// Indexed by link id: links[i] calibrates topology.edges()[i].
    std::vector<LinkCalibration> links;

    /**
     * Synthesizes a deterministic calibration for @p topology using
     * @p seed. Values vary per qubit/link within Falcon-like ranges:
     * readout 1–4%, CX error 0.5–2%, CX duration 800–2600 dt,
     * T1 ≈ 70–130 µs, T2 ≈ 50–110 µs.
     */
    static Calibration synthesize(const graph::UndirectedGraph& topology,
                                  unsigned seed = 7);

    const QubitCalibration&
    qubit(int q) const
    {
        CAQR_CHECK(q >= 0 && q < static_cast<int>(qubits.size()),
                   "qubit id out of range");
        return qubits[static_cast<std::size_t>(q)];
    }
};

}  // namespace caqr::arch

#endif  // CAQR_ARCH_CALIBRATION_H
