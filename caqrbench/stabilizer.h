/**
 * @file
 * Independent reference interpreter for the benchmark's output checks.
 *
 * A stabilizer-tableau simulator (Aaronson & Gottesman, "Improved
 * simulation of stabilizer circuits", 2004) that runs a compiled
 * circuit once — mid-circuit measurement, reset and classically
 * conditioned gates included — at any qubit count. BV and
 * counterfeit-coin circuits are Clifford and have one deterministic
 * outcome, so a single run of the compiled program decides whether the
 * compiler preserved their meaning, even on a 127-qubit device map that
 * a statevector could never hold. It shares no code with the simulator
 * under test.
 */
#ifndef CAQRBENCH_STABILIZER_H
#define CAQRBENCH_STABILIZER_H

#include <cstdint>
#include <optional>
#include <string>

#include "circuit/circuit.h"

namespace caqrbench {

/**
 * Runs @p circuit once and returns its classical register as a string,
 * clbit 0 leftmost. Random measurement outcomes are drawn from
 * @p seed. nullopt when the circuit holds a non-Clifford operation
 * (T, Toffoli, or a rotation angle off the multiples of pi/2).
 */
std::optional<std::string> run_clifford(const caqr::circuit::Circuit& circuit,
                                        std::uint64_t seed);

}  // namespace caqrbench

#endif  // CAQRBENCH_STABILIZER_H
