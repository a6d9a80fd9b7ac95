/**
 * @file
 * Shot-based dynamic-circuit simulator.
 *
 * Executes circuits instruction-by-instruction per shot — including
 * mid-circuit measurement, reset, and classically-conditioned gates —
 * sampling noise from a NoiseModel. Outcome histograms are keyed by the
 * classical register contents with bit 0 leftmost ("c0 c1 c2 ...").
 */
#ifndef CAQR_SIM_SIMULATOR_H
#define CAQR_SIM_SIMULATOR_H

#include <cstdint>
#include <map>
#include <string>

#include "circuit/circuit.h"
#include "sim/noise_model.h"
#include "util/rng.h"

namespace caqr::sim {

/// Histogram of classical-register outcomes.
using Counts = std::map<std::string, std::size_t>;

/// Simulation options.
struct SimOptions
{
    std::size_t shots = 4096;
    std::uint64_t seed = 1234;
    /// Shot-batch threads: 1 = serial, 0/negative = one per hardware
    /// thread. Counts are bit-identical for any value: every shot
    /// draws from its own RNG stream `Rng(seed, shot_index)` and the
    /// per-thread histograms merge by commutative addition.
    int num_threads = 1;
    /// Pre-multiply adjacent noiseless unconditioned gates confined to
    /// one or two wires into single 2x2/4x4 applications
    /// (sim::GateFuser) before the shot loop. Exact; off only for A/B
    /// testing.
    bool fuse_gates = true;
};

/**
 * Runs @p circuit for options.shots shots under @p noise.
 * With idle decoherence enabled, gaps are derived once from an ASAP
 * schedule using the noise model's backend durations.
 *
 * The instruction stream is compiled once per call (1q/2q segment
 * fusion, per-op noise probabilities, idle-noise wire remapping);
 * shots then
 * execute against the compiled program, batched over the shared
 * util::ThreadPool when options.num_threads != 1.
 */
Counts simulate(const circuit::Circuit& circuit, const SimOptions& options,
                const NoiseModel& noise = NoiseModel::ideal());

/**
 * Exact outcome distribution of a *noiseless, measurement-terminated*
 * circuit: unitary prefix evolved once, then measurement probabilities
 * read directly. All measurements must be terminal (no gate may follow
 * a measurement on any qubit) and there must be no reset/conditioned
 * instructions — the natural shape of the paper's baseline circuits.
 * Keys match simulate()'s encoding; clbits never written measure as
 * '0'. Returns probabilities (not shot counts), entries below @p cutoff
 * are dropped.
 */
std::map<std::string, double> exact_distribution(
    const circuit::Circuit& circuit, double cutoff = 1e-12);

/// Fraction of shots whose classical string equals @p expected.
double success_rate(const Counts& counts, const std::string& expected);

}  // namespace caqr::sim

#endif  // CAQR_SIM_SIMULATOR_H
