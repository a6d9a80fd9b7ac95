/**
 * @file
 * Backend = topology + calibration, plus the device-aware duration
 * model and the estimated-success-probability (ESP) fidelity metric.
 */
#ifndef CAQR_ARCH_BACKEND_H
#define CAQR_ARCH_BACKEND_H

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "arch/calibration.h"
#include "circuit/circuit.h"
#include "circuit/schedule.h"
#include "circuit/timing.h"
#include "graph/undirected_graph.h"
#include "util/logging.h"

namespace caqr::arch {

/// A quantum device model: coupling graph + calibration + distances,
/// plus per-qubit placement tables derived from them at construction.
/// The calibration is exposed only as `const`, so the tables never go
/// stale.
class Backend
{
  public:
    Backend(std::string name, graph::UndirectedGraph topology,
            Calibration calibration);

    /// A physical link seen from one endpoint.
    struct Link
    {
        int neighbor;  ///< the other endpoint
        int id;        ///< dense id: its index in topology().edges()
                       ///< and in calibration().links
    };

    /// 27-qubit dynamic-circuit-capable device modeled on IBM Mumbai.
    static Backend fake_mumbai();

    /// Heavy-hex device with at least @p min_qubits qubits.
    static Backend scaled_heavy_hex(int min_qubits, unsigned seed = 7);

    const std::string& name() const { return name_; }
    const graph::UndirectedGraph& topology() const { return topology_; }
    const Calibration& calibration() const { return calibration_; }
    int num_qubits() const { return topology_.num_nodes(); }

    /// Hop distance between physical qubits (precomputed APSP); -1
    /// when they are disconnected.
    int
    distance(int a, int b) const
    {
        CAQR_CHECK(a >= 0 && a < num_qubits() && b >= 0 && b < num_qubits(),
                   "physical qubit id out of range");
        return distances_[static_cast<std::size_t>(a)]
                         [static_cast<std::size_t>(b)];
    }

    /// Row @p a of the distance matrix: `distance_row(a)[b]` is
    /// `distance(a, b)`, for loops that scan many qubits against one.
    const int*
    distance_row(int a) const
    {
        CAQR_CHECK(a >= 0 && a < num_qubits(),
                   "physical qubit id out of range");
        return distances_[static_cast<std::size_t>(a)].data();
    }

    /// Sum of hop distances from @p q to every qubit, an unreachable
    /// one counting as num_qubits(). Lower = more central; layout and
    /// SR-CaQR seed placement read it instead of summing a row of the
    /// distance matrix per candidate.
    long long
    total_distance(int q) const
    {
        CAQR_CHECK(q >= 0 && q < num_qubits(),
                   "physical qubit id out of range");
        return total_distance_[static_cast<std::size_t>(q)];
    }

    /// Lowest CX error among the links incident to @p q; 1.0 if it has
    /// none.
    double
    best_incident_cx_error(int q) const
    {
        CAQR_CHECK(q >= 0 && q < num_qubits(),
                   "physical qubit id out of range");
        return best_cx_error_[static_cast<std::size_t>(q)];
    }

    /// The links incident to @p q, one per topology neighbor, built
    /// once at construction: routing reads a candidate SWAP's id here
    /// and its calibration at `calibration().links[id]`.
    std::span<const Link>
    links(int q) const
    {
        CAQR_CHECK(q >= 0 && q < num_qubits(),
                   "physical qubit id out of range");
        const auto begin = static_cast<std::size_t>(link_start_[q]);
        const auto end = static_cast<std::size_t>(link_start_[q + 1]);
        return {links_.data() + begin, end - begin};
    }

    /// Number of physical links; every Link::id is below it.
    int
    num_links() const
    {
        return static_cast<int>(topology_.edges().size());
    }

    /// True if @p a and @p b share a physical link.
    bool
    are_adjacent(int a, int b) const
    {
        return topology_.has_edge(a, b);
    }

    /// The link between @p a and @p b, or null when they share none
    /// (including ids out of range). Scans one short row: heavy-hex
    /// degree is at most 3.
    const Link*
    find_link(int a, int b) const
    {
        if (a < 0 || a >= num_qubits()) return nullptr;
        const auto end = links_.begin() + link_start_[a + 1];
        for (auto it = links_.begin() + link_start_[a]; it != end; ++it) {
            if (it->neighbor == b) return &*it;
        }
        return nullptr;
    }

    /// Calibrated CX error of link {@p a, @p b}; a fixed fallback for a
    /// pair that shares no link.
    double cx_error(int a, int b) const;

    /// Calibrated CX duration (dt) of link {@p a, @p b};
    /// `LogicalDurations::kTwoQubitGate` for a pair that shares no link.
    double cx_duration_dt(int a, int b) const;

  private:
    std::string name_;
    graph::UndirectedGraph topology_;
    Calibration calibration_;
    std::vector<std::vector<int>> distances_;
    std::vector<long long> total_distance_;
    std::vector<double> best_cx_error_;
    /// Links of qubit q: links_[link_start_[q] .. link_start_[q + 1]).
    std::vector<int> link_start_;
    std::vector<Link> links_;
};

/// Routing distance: a hop distance, with a disconnected pair (-1)
/// counted as 2 * num_qubits(), farther than any connected pair.
inline int
routing_distance(int hops, int num_qubits)
{
    return hops < 0 ? num_qubits * 2 : hops;
}

/// routing_distance() of physical qubits @p a and @p b.
inline int
safe_distance(const Backend& backend, int a, int b)
{
    return routing_distance(backend.distance(a, b), backend.num_qubits());
}

/**
 * Duration model calibrated to a backend: CX durations come from
 * `Backend::cx_duration_dt` (operands are *physical* qubit ids), SWAPs
 * cost three CX of that link, measurements/resets and conditioned
 * gates use the logical-model constants.
 */
class CalibratedDurations : public circuit::DurationModel
{
  public:
    explicit CalibratedDurations(const Backend& backend)
        : backend_(&backend) {}

    double duration(const circuit::Instruction& instr) const override;

  private:
    const Backend* backend_;
};

/**
 * Estimated success probability of a hardware-mapped circuit:
 * Π (1 - gate error) over all gates × Π (1 - readout error) over all
 * measurements, with idle decoherence folded in as
 * exp(-idle_time / T1) per qubit (computed from an ASAP schedule).
 * This is the fidelity estimate CaQR's tradeoff tuning can target.
 */
double estimated_success_probability(const circuit::Circuit& circuit,
                                     const Backend& backend);

/// How a mapping pass scores a finished hardware-mapped circuit.
struct MappedScore
{
    int depth = 0;             ///< circuit depth
    double duration_dt = 0.0;  ///< makespan under CalibratedDurations
    double esp = 0.0;          ///< estimated_success_probability()
};

/// Scores @p circuit on @p backend from one `CalibratedDurations`
/// schedule, which gives both the duration and the ESP's idle terms;
/// `esp` equals `estimated_success_probability(circuit, backend)`.
MappedScore score_mapped(const circuit::Circuit& circuit,
                         const Backend& backend);

}  // namespace caqr::arch

#endif  // CAQR_ARCH_BACKEND_H
