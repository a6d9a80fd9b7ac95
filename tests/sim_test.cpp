/// Tests for the statevector simulator, dynamic-circuit execution, and
/// the noise model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "arch/backend.h"
#include "circuit/circuit.h"
#include "sim/fuser.h"
#include "sim/noise_model.h"
#include "sim/simulator.h"
#include "sim/statevector.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/stats.h"

namespace caqr {
namespace {

using circuit::Circuit;
using sim::NoiseModel;
using sim::SimOptions;
using sim::StateVector;

TEST(StateVector, InitialState)
{
    StateVector sv(2);
    EXPECT_DOUBLE_EQ(std::norm(sv.amplitudes()[0]), 1.0);
    EXPECT_DOUBLE_EQ(sv.prob_one(0), 0.0);
    EXPECT_DOUBLE_EQ(sv.prob_one(1), 0.0);
}

TEST(StateVector, HadamardFiftyFifty)
{
    StateVector sv(1);
    Circuit c(1, 0);
    c.h(0);
    sv.apply(c.at(0));
    EXPECT_NEAR(sv.prob_one(0), 0.5, 1e-12);
}

TEST(StateVector, BellState)
{
    StateVector sv(2);
    Circuit c(2, 0);
    c.h(0);
    c.cx(0, 1);
    sv.apply(c.at(0));
    sv.apply(c.at(1));
    const auto& amps = sv.amplitudes();
    EXPECT_NEAR(std::norm(amps[0]), 0.5, 1e-12);
    EXPECT_NEAR(std::norm(amps[3]), 0.5, 1e-12);
    EXPECT_NEAR(std::norm(amps[1]), 0.0, 1e-12);
}

TEST(StateVector, PauliAlgebra)
{
    StateVector sv(1);
    sv.apply_pauli('X', 0);
    EXPECT_NEAR(sv.prob_one(0), 1.0, 1e-12);
    sv.apply_pauli('X', 0);
    EXPECT_NEAR(sv.prob_one(0), 0.0, 1e-12);
    // Z on |0> is identity up to nothing observable.
    sv.apply_pauli('Z', 0);
    EXPECT_NEAR(sv.prob_one(0), 0.0, 1e-12);
}

TEST(StateVector, RotationAngles)
{
    StateVector sv(1);
    Circuit c(1, 0);
    c.rx(3.14159265358979, 0);  // X rotation by pi = X up to phase
    sv.apply(c.at(0));
    EXPECT_NEAR(sv.prob_one(0), 1.0, 1e-9);
}

TEST(StateVector, RzzPhases)
{
    // RZZ on |++> then H⊗H: checks relative phases move population.
    StateVector sv(2);
    Circuit c(2, 0);
    c.h(0);
    c.h(1);
    c.rzz(3.14159265358979, 0, 1);  // theta = pi
    c.h(0);
    c.h(1);
    for (std::size_t i = 0; i < c.size(); ++i) sv.apply(c.at(i));
    // exp(-i pi/2 ZZ) |++> = (|00> ... ) — resulting H-basis state is
    // fully transferred to |11> (up to global phase).
    EXPECT_NEAR(std::norm(sv.amplitudes()[3]), 1.0, 1e-9);
}

TEST(StateVector, CzVersusCx)
{
    // CZ = H(target) CX H(target).
    StateVector a(2);
    StateVector b(2);
    Circuit prep(2, 0);
    prep.h(0);
    prep.h(1);
    a.apply(prep.at(0));
    a.apply(prep.at(1));
    b.apply(prep.at(0));
    b.apply(prep.at(1));

    Circuit cz(2, 0);
    cz.cz(0, 1);
    a.apply(cz.at(0));

    Circuit sandwich(2, 0);
    sandwich.h(1);
    sandwich.cx(0, 1);
    sandwich.h(1);
    for (std::size_t i = 0; i < sandwich.size(); ++i) {
        b.apply(sandwich.at(i));
    }
    EXPECT_NEAR(a.fidelity(b), 1.0, 1e-9);
}

TEST(StateVector, SwapExchangesStates)
{
    StateVector sv(2);
    sv.apply_pauli('X', 0);  // |01> (qubit0 = 1)
    Circuit c(2, 0);
    c.swap_gate(0, 1);
    sv.apply(c.at(0));
    EXPECT_NEAR(sv.prob_one(0), 0.0, 1e-12);
    EXPECT_NEAR(sv.prob_one(1), 1.0, 1e-12);
}

TEST(StateVector, CcxTruthTable)
{
    for (int c0 = 0; c0 < 2; ++c0) {
        for (int c1 = 0; c1 < 2; ++c1) {
            StateVector sv(3);
            if (c0) sv.apply_pauli('X', 0);
            if (c1) sv.apply_pauli('X', 1);
            Circuit c(3, 0);
            c.ccx(0, 1, 2);
            sv.apply(c.at(0));
            EXPECT_NEAR(sv.prob_one(2), (c0 && c1) ? 1.0 : 0.0, 1e-12);
        }
    }
}

TEST(StateVector, MeasureCollapses)
{
    util::Rng rng(1);
    StateVector sv(1);
    Circuit c(1, 0);
    c.h(0);
    sv.apply(c.at(0));
    const int outcome = sv.measure(0, rng);
    EXPECT_NEAR(sv.prob_one(0), outcome ? 1.0 : 0.0, 1e-12);
    // Re-measuring is deterministic.
    EXPECT_EQ(sv.measure(0, rng), outcome);
}

TEST(StateVector, ResetForcesGround)
{
    util::Rng rng(2);
    for (int trial = 0; trial < 10; ++trial) {
        StateVector sv(1);
        Circuit c(1, 0);
        c.h(0);
        sv.apply(c.at(0));
        sv.reset(0, rng);
        EXPECT_NEAR(sv.prob_one(0), 0.0, 1e-12);
    }
}

TEST(Simulator, DeterministicCircuit)
{
    Circuit c(1, 1);
    c.x(0);
    c.measure(0, 0);
    const auto counts = sim::simulate(c, {.shots = 100, .seed = 3});
    ASSERT_EQ(counts.size(), 1u);
    EXPECT_EQ(counts.at("1"), 100u);
}

TEST(Simulator, BellCorrelations)
{
    Circuit c(2, 2);
    c.h(0);
    c.cx(0, 1);
    c.measure(0, 0);
    c.measure(1, 1);
    const auto counts = sim::simulate(c, {.shots = 4000, .seed = 4});
    std::size_t same = 0;
    std::size_t total = 0;
    for (const auto& [key, count] : counts) {
        total += count;
        if (key == "00" || key == "11") same += count;
    }
    EXPECT_EQ(same, total);
    EXPECT_NEAR(static_cast<double>(counts.at("00")) / total, 0.5, 0.05);
}

TEST(Simulator, MidCircuitMeasureAndConditionalReset)
{
    // Prepare |1>, measure, conditionally flip back to |0>, reuse for
    // a second measurement: second bit must be 0.
    Circuit c(1, 2);
    c.x(0);
    c.measure(0, 0);
    c.x_if(0, 0, 1);
    c.measure(0, 1);
    const auto counts = sim::simulate(c, {.shots = 200, .seed = 5});
    ASSERT_EQ(counts.size(), 1u);
    EXPECT_EQ(counts.begin()->first, "10");
}

TEST(Simulator, ConditionNotTakenLeavesState)
{
    Circuit c(1, 2);
    c.measure(0, 0);     // always 0
    c.x_if(0, 0, 1);     // not taken
    c.measure(0, 1);
    const auto counts = sim::simulate(c, {.shots = 50, .seed = 6});
    EXPECT_EQ(counts.begin()->first, "00");
}

TEST(Simulator, SeedReproducibility)
{
    Circuit c(2, 2);
    c.h(0);
    c.h(1);
    c.measure(0, 0);
    c.measure(1, 1);
    const auto a = sim::simulate(c, {.shots = 500, .seed = 7});
    const auto b = sim::simulate(c, {.shots = 500, .seed = 7});
    EXPECT_EQ(a, b);
}

TEST(Simulator, ExactDistributionMatchesSampling)
{
    Circuit c(2, 2);
    c.h(0);
    c.cx(0, 1);
    c.measure(0, 0);
    c.measure(1, 1);
    const auto exact = sim::exact_distribution(c);
    ASSERT_EQ(exact.size(), 2u);
    EXPECT_NEAR(exact.at("00"), 0.5, 1e-12);
    EXPECT_NEAR(exact.at("11"), 0.5, 1e-12);

    const auto counts = sim::simulate(c, {.shots = 8000, .seed = 8});
    std::map<std::string, double> sampled;
    for (const auto& [key, count] : counts) {
        sampled[key] = static_cast<double>(count);
    }
    EXPECT_LT(util::total_variation_distance(exact, sampled), 0.03);
}

TEST(Simulator, SuccessRate)
{
    sim::Counts counts = {{"01", 75}, {"11", 25}};
    EXPECT_DOUBLE_EQ(sim::success_rate(counts, "01"), 0.75);
    EXPECT_DOUBLE_EQ(sim::success_rate(counts, "00"), 0.0);
}

TEST(Noise, UniformGateErrorsDegradeOutcome)
{
    Circuit c(1, 1);
    c.x(0);
    c.measure(0, 0);
    const auto noisy = sim::simulate(
        c, {.shots = 4000, .seed = 9},
        NoiseModel::uniform(/*p1=*/0.2, /*p2=*/0.0, /*readout=*/0.0));
    // Depolarizing X-or-Y flips the outcome ~2/3 * 0.2 of the time.
    const double success = sim::success_rate(noisy, "1");
    EXPECT_LT(success, 0.98);
    EXPECT_GT(success, 0.75);
}

TEST(Noise, ReadoutErrorFlipsBits)
{
    Circuit c(1, 1);
    c.measure(0, 0);
    const auto counts = sim::simulate(
        c, {.shots = 10'000, .seed = 10},
        NoiseModel::uniform(0.0, 0.0, /*readout=*/0.1));
    EXPECT_NEAR(sim::success_rate(counts, "0"), 0.9, 0.02);
}

TEST(Noise, IdealModelReportsZeroErrors)
{
    const auto model = NoiseModel::ideal();
    EXPECT_TRUE(model.is_ideal());
    circuit::Instruction cx;
    cx.kind = circuit::GateKind::kCx;
    cx.qubits = {0, 1};
    EXPECT_DOUBLE_EQ(model.gate_error(cx), 0.0);
    EXPECT_DOUBLE_EQ(model.readout_error(0), 0.0);
}

TEST(Noise, BackendModelUsesCalibration)
{
    const auto backend = arch::Backend::fake_mumbai();
    const auto model = NoiseModel::from_backend(backend);
    circuit::Instruction cx;
    cx.kind = circuit::GateKind::kCx;
    cx.qubits = {0, 1};
    const auto* link = backend.find_link(0, 1);
    ASSERT_NE(link, nullptr);
    EXPECT_DOUBLE_EQ(model.gate_error(cx),
                     backend.calibration().links[link->id].cx_error);
    // Qubits 0 and 5 share no link: the uncalibrated fallback, three
    // times over for a SWAP.
    cx.qubits = {0, 5};
    EXPECT_DOUBLE_EQ(model.gate_error(cx), 0.02);
    circuit::Instruction swap_instr;
    swap_instr.kind = circuit::GateKind::kSwap;
    swap_instr.qubits = {0, 5};
    EXPECT_DOUBLE_EQ(model.gate_error(swap_instr), 3 * 0.02);
    EXPECT_DOUBLE_EQ(model.readout_error(5),
                     backend.calibration().qubit(5).readout_error);
    double t1, t2;
    EXPECT_TRUE(model.coherence_dt(3, &t1, &t2));
    EXPECT_GT(t1, 0.0);
    EXPECT_GE(t1, t2);
}

TEST(Noise, NoisierBackendRunsHaveHigherTvd)
{
    const auto backend = arch::Backend::fake_mumbai();
    // 3 adjacent physical qubits: GHZ-ish circuit on 0-1-2.
    Circuit c(27, 3);
    c.h(0);
    c.cx(0, 1);
    c.cx(1, 2);
    c.measure(0, 0);
    c.measure(1, 1);
    c.measure(2, 2);

    const auto ideal_counts = sim::simulate(c, {.shots = 4000, .seed = 11});
    const auto noisy_counts =
        sim::simulate(c, {.shots = 4000, .seed = 11},
                      NoiseModel::from_backend(backend));
    const double tvd =
        util::total_variation_distance(ideal_counts, noisy_counts);
    EXPECT_GT(tvd, 0.005);
    EXPECT_LT(tvd, 0.5);
}

TEST(StateVector, AmplitudeDampingFullDecayStaysFinite)
{
    // gamma = 1.0 on |1>: the jump branch fires with probability 1 in
    // exact arithmetic, but when the no-jump branch is drawn anyway
    // (rounding), K0 = diag(1, 0) annihilates the state and the old
    // 1/sqrt(norm) rescale divided by ~0. The guarded branch must keep
    // every amplitude finite and land in |0> for any seed.
    for (std::uint64_t seed = 0; seed < 64; ++seed) {
        util::Rng rng(seed);
        StateVector sv(1);
        sv.apply_pauli('X', 0);
        sv.apply_amplitude_damping(0, 1.0, rng);
        for (const auto& amp : sv.amplitudes()) {
            EXPECT_TRUE(std::isfinite(amp.real()));
            EXPECT_TRUE(std::isfinite(amp.imag()));
        }
        EXPECT_NEAR(sv.prob_one(0), 0.0, 1e-12);
    }
}

TEST(StateVector, AmplitudeDampingFullDecayOnSuperposition)
{
    // |+> at gamma = 1.0: both branches (jump, or no-jump projection
    // onto |0>) must end in |0> with finite, normalized amplitudes.
    for (std::uint64_t seed = 0; seed < 64; ++seed) {
        util::Rng rng(seed);
        StateVector sv(1);
        Circuit c(1, 0);
        c.h(0);
        sv.apply(c.at(0));
        sv.apply_amplitude_damping(0, 1.0, rng);
        EXPECT_NEAR(std::norm(sv.amplitudes()[0]), 1.0, 1e-12);
        EXPECT_NEAR(sv.prob_one(0), 0.0, 1e-12);
    }
}

TEST(StateVector, SampleNeverReturnsZeroProbabilityState)
{
    // Slightly under-normalized two-state superposition: cumulative
    // probability tops out below the drawn uniform for draws near 1,
    // and the fallback must return the last *nonzero-probability*
    // index (1), never the zero-amplitude tail states 2/3.
    const double a = std::sqrt(0.4999);
    StateVector sv = StateVector::from_amplitudes(
        {{a, 0.0}, {a, 0.0}, {0.0, 0.0}, {0.0, 0.0}});
    util::Rng rng(42);
    for (int i = 0; i < 100'000; ++i) {
        EXPECT_LT(sv.sample(rng), 2u);
    }
}

TEST(StateVector, MeasureResetExtremeProbabilities)
{
    // p1 within rounding of 1: measure must return 1 and collapse
    // cleanly; after reset the same wire must measure 0.
    util::Rng rng(7);
    StateVector sv(1);
    Circuit c(1, 0);
    c.x(0);
    c.ry(1e-9, 0);
    sv.apply(c.at(0));
    sv.apply(c.at(1));
    EXPECT_EQ(sv.measure(0, rng), 1);
    EXPECT_NEAR(sv.prob_one(0), 1.0, 1e-12);
    sv.reset(0, rng);
    EXPECT_EQ(sv.measure(0, rng), 0);

    // p1 within rounding of 0 on a fresh wire.
    StateVector sv2(1);
    Circuit c2(1, 0);
    c2.ry(1e-9, 0);
    sv2.apply(c2.at(0));
    EXPECT_EQ(sv2.measure(0, rng), 0);
}

TEST(GateFuser, FusesSingleWireRuns)
{
    Circuit c(1, 0);
    c.h(0);
    c.t(0);
    c.h(0);
    const std::vector<bool> fusible(c.size(), true);
    const auto ops = sim::GateFuser::fuse(c, fusible);
    ASSERT_EQ(ops.size(), 1u);
    EXPECT_EQ(ops[0].kind, sim::FusedOp::Kind::k1q);
    EXPECT_EQ(ops[0].q0, 0);
    EXPECT_EQ(ops[0].sources.size(), 3u);
    EXPECT_EQ(sim::GateFuser::gates_eliminated(ops), 2u);

    StateVector fused(1);
    fused.apply_1q(0, ops[0].m1);
    StateVector sequential(1);
    for (std::size_t i = 0; i < c.size(); ++i) sequential.apply(c.at(i));
    EXPECT_NEAR(fused.fidelity(sequential), 1.0, 1e-12);
}

TEST(GateFuser, TwoQubitClusterAbsorbsSingleQubitRuns)
{
    // h(0); h(1); cx; t(0) — all four gates collapse into one 4x4.
    Circuit c(2, 0);
    c.h(0);
    c.h(1);
    c.cx(0, 1);
    c.t(0);
    const std::vector<bool> fusible(c.size(), true);
    const auto ops = sim::GateFuser::fuse(c, fusible);
    ASSERT_EQ(ops.size(), 1u);
    EXPECT_EQ(ops[0].kind, sim::FusedOp::Kind::k2q);
    EXPECT_EQ(ops[0].sources.size(), 4u);
    EXPECT_EQ(sim::GateFuser::gates_eliminated(ops), 3u);

    StateVector fused(2);
    fused.apply_2q(ops[0].q0, ops[0].q1, ops[0].m2);
    StateVector sequential(2);
    for (std::size_t i = 0; i < c.size(); ++i) sequential.apply(c.at(i));
    EXPECT_NEAR(fused.fidelity(sequential), 1.0, 1e-12);
}

TEST(GateFuser, PassthroughSplitsRuns)
{
    // A non-fusible instruction (here: the measurement) must close the
    // run on its wire — the two h's on either side never merge.
    Circuit c(1, 1);
    c.h(0);
    c.measure(0, 0);
    c.h(0);
    const std::vector<bool> fusible = {true, false, true};
    const auto ops = sim::GateFuser::fuse(c, fusible);
    ASSERT_EQ(ops.size(), 3u);
    EXPECT_EQ(ops[0].kind, sim::FusedOp::Kind::k1q);
    EXPECT_EQ(ops[1].kind, sim::FusedOp::Kind::kPassthrough);
    EXPECT_EQ(ops[1].instr_index, 1u);
    EXPECT_EQ(ops[2].kind, sim::FusedOp::Kind::k1q);
    EXPECT_EQ(sim::GateFuser::gates_eliminated(ops), 0u);
}

/// Random dynamic circuit exercising every shot-loop dispatch kind:
/// fusible 1q/2q runs, conditioned gates, mid-circuit measurement and
/// reset.
Circuit
random_dynamic_circuit(std::uint64_t seed, int num_qubits, int num_clbits,
                       int length)
{
    util::Rng rng(seed);
    Circuit c(num_qubits, num_clbits);
    for (int i = 0; i < length; ++i) {
        const int q = rng.next_int(0, num_qubits - 1);
        const int bit = rng.next_int(0, num_clbits - 1);
        switch (rng.next_int(0, 8)) {
          case 0: c.h(q); break;
          case 1: c.t(q); break;
          case 2: c.rx(rng.next_double() * 3.0, q); break;
          case 3:
          case 4: {
            const int q2 = (q + 1) % num_qubits;
            if (rng.next_bool(0.5)) {
                c.cx(q, q2);
            } else {
                c.cz(q, q2);
            }
            break;
          }
          case 5: c.measure(q, bit); break;
          case 6: c.reset(q); break;
          case 7: c.x_if(q, bit); break;
          case 8: c.ry(rng.next_double() * 3.0, q); break;
        }
    }
    for (int q = 0; q < std::min(num_qubits, num_clbits); ++q) {
        c.measure(q, q);
    }
    return c;
}

TEST(Simulator, CountsBitIdenticalAcrossThreadCounts)
{
    // Per-shot RNG streams + commutative histogram merges: the exact
    // same Counts map at any thread count, not just statistically
    // compatible ones.
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const Circuit c = random_dynamic_circuit(seed, 3, 3, 40);
        SimOptions serial{.shots = 2000, .seed = 99, .num_threads = 1};
        SimOptions parallel = serial;
        parallel.num_threads = 8;
        EXPECT_EQ(sim::simulate(c, serial), sim::simulate(c, parallel));
    }
}

TEST(Simulator, CountsBitIdenticalAcrossThreadCountsWithNoise)
{
    const Circuit c = random_dynamic_circuit(5, 3, 3, 40);
    const auto noise = NoiseModel::uniform(0.01, 0.02, 0.01);
    SimOptions serial{.shots = 2000, .seed = 17, .num_threads = 1};
    SimOptions parallel = serial;
    parallel.num_threads = 8;
    EXPECT_EQ(sim::simulate(c, serial, noise),
              sim::simulate(c, parallel, noise));
}

TEST(Simulator, FusionDoesNotChangeCounts)
{
    // Fusible gates carry no RNG draws, so fused and unfused execution
    // consume identical randomness and the histograms match exactly.
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const Circuit c = random_dynamic_circuit(seed, 3, 3, 40);
        SimOptions fused{.shots = 2000, .seed = 7};
        SimOptions unfused = fused;
        unfused.fuse_gates = false;
        EXPECT_EQ(sim::simulate(c, fused), sim::simulate(c, unfused));
    }
}

TEST(Simulator, FusedSamplingMatchesExactDistribution)
{
    // Unitary-only prefix with terminal measures: the fused shot
    // sampler must agree with the exact statevector distribution.
    Circuit c(3, 3);
    util::Rng rng(13);
    for (int i = 0; i < 12; ++i) {
        const int q = rng.next_int(0, 2);
        switch (rng.next_int(0, 3)) {
          case 0: c.h(q); break;
          case 1: c.t(q); break;
          case 2: c.rx(rng.next_double() * 3.0, q); break;
          case 3: c.cx(q, (q + 1) % 3); break;
        }
    }
    c.measure(0, 0);
    c.measure(1, 1);
    c.measure(2, 2);

    const auto exact = sim::exact_distribution(c);
    const auto counts = sim::simulate(c, {.shots = 20'000, .seed = 21});
    std::map<std::string, double> sampled;
    for (const auto& [key, count] : counts) {
        sampled[key] = static_cast<double>(count);
    }
    EXPECT_LT(util::total_variation_distance(exact, sampled), 0.03);
}

TEST(Simulator, SubMillisecondRunsStillObserveThroughput)
{
    // A 1-shot run completes under the steady-clock tick on fast
    // machines; the wall clamp must keep the sim.shots_per_sec
    // observation finite and recorded rather than dropped.
    const auto before =
        util::metrics::global().snapshot().histograms["sim.shots_per_sec"];
    Circuit c(1, 1);
    c.x(0);
    c.measure(0, 0);
    sim::simulate(c, {.shots = 1, .seed = 1});
    const auto after =
        util::metrics::global().snapshot().histograms["sim.shots_per_sec"];
    EXPECT_EQ(after.count(), before.count() + 1);
    EXPECT_TRUE(std::isfinite(after.max()));
    EXPECT_GT(after.max(), 0.0);
}

}  // namespace
}  // namespace caqr
