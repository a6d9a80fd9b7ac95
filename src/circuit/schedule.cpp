#include "circuit/schedule.h"

#include <algorithm>

namespace caqr::circuit {

namespace {

/// The one ASAP pass behind `Schedule` and `critical_path`. Wires
/// 0..num_qubits-1 are the qubits, the rest the clbits. A non-barrier
/// instruction starts at the latest clock among its wires and the last
/// barrier's finish; a barrier starts once everything before it has
/// finished, i.e. at the running makespan (durations are non-negative,
/// so nothing after a barrier finishes before it). @p on_finish(index,
/// duration, finish) sees every instruction in program order. Returns
/// the makespan.
template <typename OnFinish>
double
asap(const Circuit& circuit, const DurationModel& model,
     OnFinish&& on_finish)
{
    const int num_qubits = circuit.num_qubits();
    std::vector<double> clock(
        static_cast<std::size_t>(num_qubits + circuit.num_clbits()), 0.0);
    double barrier_finish = 0.0;
    double makespan = 0.0;
    const auto& instrs = circuit.instructions();
    for (std::size_t i = 0; i < instrs.size(); ++i) {
        const Instruction& instr = instrs[i];
        const double duration = model.duration(instr);
        if (instr.kind == GateKind::kBarrier) {
            barrier_finish = makespan + duration;
            makespan = barrier_finish;
            on_finish(i, duration, barrier_finish);
            continue;
        }
        double start = barrier_finish;
        for (int q : instr.qubits) start = std::max(start, clock[q]);
        if (instr.clbit >= 0) {
            start = std::max(start, clock[num_qubits + instr.clbit]);
        }
        if (instr.condition_bit >= 0) {
            start =
                std::max(start, clock[num_qubits + instr.condition_bit]);
        }
        const double finish = start + duration;
        for (int q : instr.qubits) clock[q] = finish;
        if (instr.clbit >= 0) clock[num_qubits + instr.clbit] = finish;
        if (instr.condition_bit >= 0) {
            clock[num_qubits + instr.condition_bit] = finish;
        }
        makespan = std::max(makespan, finish);
        on_finish(i, duration, finish);
    }
    return makespan;
}

}  // namespace

Schedule::Schedule(const Circuit& circuit, const DurationModel& model)
    : circuit_(&circuit),
      activity_(static_cast<std::size_t>(circuit.num_qubits()))
{
    duration_.reserve(circuit.size());
    finish_.reserve(circuit.size());
    prev_offset_.reserve(circuit.size());
    std::vector<double> last_finish(
        static_cast<std::size_t>(circuit.num_qubits()), -1.0);
    makespan_ = asap(circuit, model, [&](std::size_t i, double duration,
                                         double finish) {
        duration_.push_back(duration);
        finish_.push_back(finish);
        prev_offset_.push_back(prev_finish_.size());
        const double s = finish - duration;
        for (int q : circuit.at(i).qubits) {
            prev_finish_.push_back(last_finish[q]);
            last_finish[q] = std::max(last_finish[q], finish);

            auto& act = activity_[static_cast<std::size_t>(q)];
            if (!act.touched || s < act.first_start) {
                act.first_start = act.touched
                                      ? std::min(act.first_start, s)
                                      : s;
            }
            act.touched = true;
            act.last_finish = std::max(act.last_finish, finish);
            act.busy += duration;
        }
    });
}

double
Schedule::idle_gap_before(std::size_t index, int q) const
{
    const auto& instr = circuit_->at(index);
    for (std::size_t slot = 0; slot < instr.qubits.size(); ++slot) {
        if (instr.qubits[slot] != q) continue;
        const double prev = prev_finish_[prev_offset_[index] + slot];
        if (prev < 0.0) return 0.0;
        const double gap = start(index) - prev;
        return gap > 1e-9 ? gap : 0.0;
    }
    return 0.0;
}

double
critical_path(const Circuit& circuit, const DurationModel& model)
{
    return asap(circuit, model, [](std::size_t, double, double) {});
}

int
depth(const Circuit& circuit)
{
    UnitDepthModel model;
    return static_cast<int>(critical_path(circuit, model) + 0.5);
}

}  // namespace caqr::circuit
