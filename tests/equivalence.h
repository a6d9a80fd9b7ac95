/**
 * @file
 * Circuit equivalence checking by randomized state probing, for the
 * tests.
 *
 * Two unitary circuits over the same qubit count are compared by
 * evolving a batch of random product states through both and checking
 * state fidelities (a unitary that agrees on enough random states is
 * the same up to global phase with overwhelming probability). Used to
 * validate decompositions and transformations beyond the |0...0>
 * input.
 */
#ifndef CAQR_TESTS_EQUIVALENCE_H
#define CAQR_TESTS_EQUIVALENCE_H

#include <cmath>
#include <cstdint>

#include "circuit/circuit.h"
#include "sim/statevector.h"
#include "util/logging.h"
#include "util/rng.h"

namespace caqr::oracle {

/// Options for the probabilistic equivalence check.
struct EquivalenceOptions
{
    int num_probes = 8;
    double tolerance = 1e-9;
    std::uint64_t seed = 1;
};

/**
 * A random product state preparation circuit on @p num_qubits qubits
 * (per-qubit U(θ, φ, λ) with Haar-ish angles).
 */
inline circuit::Circuit
random_product_state_prep(int num_qubits, util::Rng& rng)
{
    circuit::Circuit prep(num_qubits, 0);
    constexpr double kTau = 6.28318530717958647692;
    for (int q = 0; q < num_qubits; ++q) {
        // theta ~ arccos-uniform for Bloch-sphere uniformity.
        const double theta = std::acos(1.0 - 2.0 * rng.next_double());
        prep.u(theta, rng.next_double() * kTau,
               rng.next_double() * kTau, q);
    }
    return prep;
}

/**
 * True if @p a and @p b act identically (up to global phase) on
 * random product input states. Both circuits must be purely unitary
 * (no measure/reset/conditioned operations) and have the same qubit
 * count.
 */
inline bool
unitarily_equivalent(const circuit::Circuit& a, const circuit::Circuit& b,
                     const EquivalenceOptions& options = {})
{
    CAQR_CHECK(a.num_qubits() == b.num_qubits(),
               "equivalence requires equal qubit counts");
    for (const auto* circuit : {&a, &b}) {
        for (const auto& instr : circuit->instructions()) {
            CAQR_CHECK(circuit::is_unitary(instr.kind) ||
                           instr.kind == circuit::GateKind::kBarrier,
                       "equivalence check requires unitary circuits");
            CAQR_CHECK(!instr.has_condition(),
                       "equivalence check requires unconditioned gates");
        }
    }

    util::Rng rng(options.seed);
    for (int probe = 0; probe < options.num_probes; ++probe) {
        const auto prep = random_product_state_prep(a.num_qubits(), rng);
        sim::StateVector sv_a(a.num_qubits());
        sim::StateVector sv_b(b.num_qubits());
        for (const auto& instr : prep.instructions()) {
            sv_a.apply(instr);
            sv_b.apply(instr);
        }
        for (const auto& instr : a.instructions()) {
            if (instr.kind == circuit::GateKind::kBarrier) continue;
            sv_a.apply(instr);
        }
        for (const auto& instr : b.instructions()) {
            if (instr.kind == circuit::GateKind::kBarrier) continue;
            sv_b.apply(instr);
        }
        if (std::abs(sv_a.fidelity(sv_b) - 1.0) > options.tolerance) {
            return false;
        }
    }
    return true;
}

}  // namespace caqr::oracle

#endif  // CAQR_TESTS_EQUIVALENCE_H
