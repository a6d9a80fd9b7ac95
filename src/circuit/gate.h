/**
 * @file
 * Gate vocabulary of the circuit IR.
 *
 * The set covers everything the CaQR passes and the benchmark circuits
 * need: the standard single-qubit Cliffords + rotations, the two-qubit
 * entanglers (CX/CZ/RZZ/SWAP), and the dynamic-circuit primitives —
 * measurement, reset, and classically-conditioned gates — that enable
 * qubit reuse.
 */
#ifndef CAQR_CIRCUIT_GATE_H
#define CAQR_CIRCUIT_GATE_H

#include <string>
#include <string_view>

namespace caqr::circuit {

/// Gate / operation kinds supported by the IR.
enum class GateKind {
    kH,        ///< Hadamard
    kX,        ///< Pauli-X
    kY,        ///< Pauli-Y
    kZ,        ///< Pauli-Z
    kS,        ///< sqrt(Z)
    kSdg,      ///< S dagger
    kT,        ///< fourth root of Z
    kTdg,      ///< T dagger
    kRx,       ///< X rotation, one angle parameter
    kRy,       ///< Y rotation, one angle parameter
    kRz,       ///< Z rotation, one angle parameter
    kU,        ///< generic single-qubit U(theta, phi, lambda)
    kCx,       ///< controlled-X (CNOT)
    kCz,       ///< controlled-Z
    kRzz,      ///< ZZ interaction exp(-i θ/2 Z⊗Z); QAOA cost gate
    kSwap,     ///< SWAP (inserted by routing)
    kCcx,      ///< Toffoli (decomposable; used by arithmetic generators)
    kMeasure,  ///< projective Z measurement into a classical bit
    kReset,    ///< built-in reset to |0> (contains an implicit measure)
    kBarrier,  ///< scheduling barrier, zero duration
};

/// Number of qubit operands for @p kind (barrier is variadic: returns 0).
int gate_arity(GateKind kind);

/// Number of angle parameters carried by @p kind.
int gate_num_params(GateKind kind);

/// True for two-qubit unitary gates (CX, CZ, RZZ, SWAP).
bool is_two_qubit(GateKind kind);

/// True for unitary gates (everything except measure/reset/barrier).
bool is_unitary(GateKind kind);

/// Lower-case OpenQASM-style mnemonic ("h", "cx", "rzz", "measure", ...).
const std::string& gate_name(GateKind kind);

/// Inverse lookup of gate_name(); returns false if unknown.
bool gate_kind_from_name(std::string_view name, GateKind* kind);

}  // namespace caqr::circuit

#endif  // CAQR_CIRCUIT_GATE_H
