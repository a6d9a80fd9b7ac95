/**
 * @file
 * ASAP schedule artifact: per-instruction start/finish times under a
 * duration model, plus per-qubit busy/idle accounting. Shared by the
 * fidelity estimator (idle decoherence in ESP), the noisy simulator
 * (idle-gap noise), and analysis tooling.
 *
 * The schedule is computed in one program-order pass over per-wire
 * clocks, with no dependency DAG: qubits and clbits are wires, an
 * instruction starts when the last instruction on each of its wires has
 * finished, and a barrier joins every wire. For non-negative durations
 * the finish times equal the earliest completion times of the
 * gate-dependency DAG exactly — the same maxima of the same sums;
 * `schedule_test` checks them against the tests' reference DAG.
 */
#ifndef CAQR_CIRCUIT_SCHEDULE_H
#define CAQR_CIRCUIT_SCHEDULE_H

#include <cstddef>
#include <vector>

#include "circuit/circuit.h"
#include "circuit/timing.h"

namespace caqr::circuit {

/// An as-soon-as-possible schedule of a circuit.
class Schedule
{
  public:
    /// Computes the ASAP schedule of @p circuit under @p model.
    /// @p circuit must outlive the schedule.
    Schedule(const Circuit& circuit, const DurationModel& model);

    /// Start / finish time (dt) of instruction @p index.
    double start(std::size_t index) const { return finish_[index] - duration_[index]; }
    double finish(std::size_t index) const { return finish_[index]; }
    double duration_of(std::size_t index) const { return duration_[index]; }

    /// Total schedule makespan (max finish; 0 for an empty circuit).
    double makespan() const { return makespan_; }

    /**
     * Idle gap on qubit @p q immediately before instruction @p index
     * (0 if the instruction does not touch q, q was untouched before,
     * or there is no gap).
     */
    double idle_gap_before(std::size_t index, int q) const;

    /// Per-qubit totals over the whole schedule.
    struct QubitActivity
    {
        bool touched = false;
        double first_start = 0.0;
        double last_finish = 0.0;
        double busy = 0.0;

        /// Total idle time inside the qubit's active window.
        double
        idle() const
        {
            const double window = last_finish - first_start;
            return window > busy ? window - busy : 0.0;
        }
    };

    const QubitActivity& activity(int q) const { return activity_[q]; }

  private:
    const Circuit* circuit_;
    std::vector<double> duration_;
    std::vector<double> finish_;
    /// prev_finish_[prev_offset_[i] + slot] holds, per operand slot of
    /// instruction i, the finish time of the previous instruction on
    /// that operand's qubit (or -1 when the qubit was untouched).
    std::vector<double> prev_finish_;
    std::vector<std::size_t> prev_offset_;
    std::vector<QubitActivity> activity_;
    double makespan_ = 0.0;
};

/// Makespan of the ASAP schedule of @p circuit under @p model, without
/// storing one: the weighted critical path of the dependency DAG.
double critical_path(const Circuit& circuit, const DurationModel& model);

/// Circuit depth: the critical path under `UnitDepthModel`, rounded.
int depth(const Circuit& circuit);

}  // namespace caqr::circuit

#endif  // CAQR_CIRCUIT_SCHEDULE_H
