/**
 * @file
 * Device calibration data: per-qubit readout errors and coherence
 * times, per-link CNOT error rates and durations.
 *
 * The paper exports real calibration from IBM systems ("including the
 * CNOT duration, CNOT error for each physical link, and qubit readout
 * errors", §4.1). We synthesize representative values deterministically
 * from qubit/link ids so every experiment is reproducible; magnitudes
 * follow published Falcon-generation characteristics.
 */
#ifndef CAQR_ARCH_CALIBRATION_H
#define CAQR_ARCH_CALIBRATION_H

#include <optional>
#include <string>
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

/// Calibration table for a device topology.
class Calibration
{
  public:
    Calibration() = default;

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
        CAQR_CHECK(q >= 0 && q < num_qubits(), "qubit id out of range");
        return qubits_[static_cast<std::size_t>(q)];
    }

    const LinkCalibration& link(int a, int b) const;
    bool has_link(int a, int b) const;

    int num_qubits() const { return static_cast<int>(qubits_.size()); }

    /// Mutable access for tests / custom devices.
    void set_qubit(int q, QubitCalibration cal);
    void set_link(int a, int b, LinkCalibration cal);

    /// @name Calibration snapshot I/O
    /// The paper consumes "real calibration data exported from the IBM
    /// systems"; these serialize the same fields in a line-oriented
    /// text format (`qubit <id> <readout> <t1_us> <t2_us> <sx_error>` /
    /// `link <a> <b> <cx_error> <cx_duration_dt>`, `#` comments).
    /// @{
    std::string serialize() const;
    static std::optional<Calibration> deserialize(const std::string& text,
                                                  std::string* error);
    bool save_file(const std::string& path) const;
    static std::optional<Calibration> load_file(const std::string& path,
                                                std::string* error);
    /// @}

  private:
    /// A link stored in the row of its lower endpoint.
    struct LinkEntry
    {
        int high;
        LinkCalibration cal;
    };

    /// The record of link {a, b}, or null when it has none.
    const LinkCalibration* find_link(int a, int b) const;

    std::vector<QubitCalibration> qubits_;
    /// links_[lo] holds lo's links to higher ids, sorted by the high
    /// endpoint: a lookup scans one short row (heavy-hex degree <= 3).
    std::vector<std::vector<LinkEntry>> links_;
};

}  // namespace caqr::arch

#endif  // CAQR_ARCH_CALIBRATION_H
