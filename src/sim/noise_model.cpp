#include "sim/noise_model.h"

#include "circuit/timing.h"
#include "util/logging.h"

namespace caqr::sim {

NoiseModel
NoiseModel::ideal()
{
    return NoiseModel{};
}

NoiseModel
NoiseModel::uniform(double p1, double p2, double readout)
{
    NoiseModel model;
    model.enabled_ = true;
    model.p1_ = p1;
    model.p2_ = p2;
    model.readout_ = readout;
    return model;
}

NoiseModel
NoiseModel::from_backend(const arch::Backend& backend)
{
    NoiseModel model;
    model.enabled_ = true;
    model.backend_ = &backend;
    return model;
}

double
NoiseModel::gate_error(const circuit::Instruction& instr) const
{
    using circuit::GateKind;
    if (!enabled_) return 0.0;
    if (instr.kind == GateKind::kBarrier ||
        instr.kind == GateKind::kMeasure ||
        instr.kind == GateKind::kReset) {
        return 0.0;
    }
    if (backend_ != nullptr) {
        if (circuit::is_two_qubit(instr.kind)) {
            const double err =
                backend_->cx_error(instr.qubits[0], instr.qubits[1]);
            // A SWAP is three CX back to back.
            return instr.kind == GateKind::kSwap ? 3 * err : err;
        }
        return backend_->calibration().qubit(instr.qubits[0]).sx_error;
    }
    return circuit::is_two_qubit(instr.kind) ? p2_ : p1_;
}

double
NoiseModel::readout_error(int q) const
{
    if (!enabled_) return 0.0;
    if (backend_ != nullptr) {
        return backend_->calibration().qubit(q).readout_error;
    }
    return readout_;
}

bool
NoiseModel::coherence_dt(int q, double* t1_dt, double* t2_dt) const
{
    if (!enabled_ || backend_ == nullptr) return false;
    const auto& qc = backend_->calibration().qubit(q);
    *t1_dt = qc.t1_us * 1e-6 / circuit::kSecondsPerDt;
    *t2_dt = qc.t2_us * 1e-6 / circuit::kSecondsPerDt;
    return true;
}

}  // namespace caqr::sim
