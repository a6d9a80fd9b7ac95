#include "transpile/peephole.h"

#include <cmath>
#include <optional>
#include <vector>

#include "util/logging.h"

namespace caqr::transpile {

namespace {

using circuit::Circuit;
using circuit::GateKind;
using circuit::Instruction;

constexpr double kTau = 6.28318530717958647692;
constexpr double kAngleEps = 1e-12;

bool
is_self_inverse(GateKind kind)
{
    switch (kind) {
      case GateKind::kH:
      case GateKind::kX:
      case GateKind::kY:
      case GateKind::kZ:
      case GateKind::kCx:
      case GateKind::kCz:
      case GateKind::kSwap:
      case GateKind::kCcx:
        return true;
      default:
        return false;
    }
}

/// True if kinds a then b cancel (inverse pairs).
bool
are_inverse_kinds(GateKind a, GateKind b)
{
    return (a == GateKind::kS && b == GateKind::kSdg) ||
           (a == GateKind::kSdg && b == GateKind::kS) ||
           (a == GateKind::kT && b == GateKind::kTdg) ||
           (a == GateKind::kTdg && b == GateKind::kT);
}

bool
is_mergeable_rotation(GateKind kind)
{
    return kind == GateKind::kRx || kind == GateKind::kRy ||
           kind == GateKind::kRz || kind == GateKind::kRzz;
}

/// True if the gate's action is operand-order symmetric.
bool
is_symmetric(GateKind kind)
{
    return kind == GateKind::kCz || kind == GateKind::kSwap ||
           kind == GateKind::kRzz;
}

/// True if a and b act on the same operand set, respecting operand
/// order except for symmetric gates.
bool
same_operands(const Instruction& a, const Instruction& b)
{
    if (a.qubits.size() != b.qubits.size()) return false;
    if (a.qubits == b.qubits) return true;
    if (a.qubits.size() == 2 && is_symmetric(a.kind) &&
        a.kind == b.kind) {
        return a.qubits[0] == b.qubits[1] && a.qubits[1] == b.qubits[0];
    }
    return false;
}

/// Angle folded into (-pi, pi]; treats multiples of 2*pi as zero.
double
normalize_angle(double angle)
{
    double folded = std::fmod(angle, kTau);
    if (folded > kTau / 2) folded -= kTau;
    if (folded <= -kTau / 2) folded += kTau;
    return folded;
}

/// One optimization pass; returns true if anything changed.
bool
run_pass(std::vector<std::optional<Instruction>>& instrs, int num_qubits,
         PeepholeStats* stats)
{
    // last[q] = index of the latest kept *optimizable* instruction
    // touching q, or -1 after a fence (measure/reset/barrier/
    // conditioned gate).
    std::vector<int> last(static_cast<std::size_t>(num_qubits), -1);
    bool changed = false;

    auto fence = [&](const Instruction& instr) {
        for (int q : instr.qubits) last[q] = -1;
    };

    for (std::size_t i = 0; i < instrs.size(); ++i) {
        if (!instrs[i].has_value()) continue;
        Instruction& instr = *instrs[i];

        if (instr.kind == GateKind::kBarrier) {
            for (auto& l : last) l = -1;
            continue;
        }
        if (instr.has_condition() ||
            instr.kind == GateKind::kMeasure ||
            instr.kind == GateKind::kReset) {
            fence(instr);
            continue;
        }

        // The candidate predecessor must be the immediately previous
        // kept op on *every* operand.
        int prev = last[instr.qubits[0]];
        bool aligned = prev >= 0;
        for (int q : instr.qubits) {
            if (last[q] != prev) aligned = false;
        }
        if (aligned && instrs[prev].has_value()) {
            const Instruction& before = *instrs[prev];
            if (same_operands(before, instr)) {
                const auto operands = instr.qubits;
                const bool cancel =
                    (before.kind == instr.kind &&
                     is_self_inverse(instr.kind)) ||
                    are_inverse_kinds(before.kind, instr.kind);
                if (cancel) {
                    instrs[prev].reset();
                    instrs[i].reset();
                    for (int q : operands) last[q] = -1;
                    if (stats != nullptr) ++stats->cancelled_pairs;
                    changed = true;
                    continue;
                }
                if (before.kind == instr.kind &&
                    is_mergeable_rotation(instr.kind) &&
                    !before.is_symbolic() && !instr.is_symbolic()) {
                    const double merged = normalize_angle(
                        before.params[0] + instr.params[0]);
                    instrs[prev].reset();
                    if (std::abs(merged) < kAngleEps) {
                        instrs[i].reset();
                        for (int q : operands) last[q] = -1;
                        if (stats != nullptr) ++stats->dropped_identity;
                        changed = true;
                        continue;
                    }
                    instr.params[0] = merged;
                    if (stats != nullptr) ++stats->merged_rotations;
                    changed = true;
                    // fall through: instr stays and becomes last[q].
                }
            }
        }

        // Zero-angle rotations vanish on their own. Symbolic rotations
        // never do: the current value is a placeholder for whatever a
        // later bind writes, so the slot must survive.
        if (is_mergeable_rotation(instr.kind) && !instr.is_symbolic() &&
            std::abs(normalize_angle(instr.params[0])) < kAngleEps) {
            instrs[i].reset();
            if (stats != nullptr) ++stats->dropped_identity;
            changed = true;
            continue;
        }

        for (int q : instr.qubits) last[q] = static_cast<int>(i);
    }
    return changed;
}

}  // namespace

Circuit
peephole_optimize(const Circuit& input, PeepholeStats* stats)
{
    std::vector<std::optional<Instruction>> instrs;
    instrs.reserve(input.size());
    for (const auto& instr : input.instructions()) {
        instrs.emplace_back(instr);
    }

    PeepholeStats local;
    while (run_pass(instrs, input.num_qubits(), &local)) {
        ++local.passes;
        CAQR_CHECK(local.passes <= static_cast<int>(input.size()) + 2,
                   "peephole failed to reach a fixpoint");
    }
    if (stats != nullptr) *stats = local;

    Circuit output(input.num_qubits(), input.num_clbits());
    output.copy_params_from(input);
    for (const auto& instr : instrs) {
        if (instr.has_value()) output.append(*instr);
    }
    return output;
}

}  // namespace caqr::transpile
