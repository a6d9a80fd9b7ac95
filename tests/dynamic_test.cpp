/// Tests for the dynamic-circuit extras: conditioned-Z feed-forward,
/// teleportation end-to-end, amplitude-damping trajectories, and the
/// randomized unitary-equivalence checker.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/benchmarks.h"
#include "circuit/circuit.h"
#include "equivalence.h"
#include "sim/noise_model.h"
#include "sim/simulator.h"
#include "sim/statevector.h"
#include "transpile/decompose.h"
#include "util/rng.h"

namespace caqr {
namespace {

using circuit::Circuit;

TEST(ConditionedZ, BuilderSetsCondition)
{
    Circuit c(1, 2);
    c.z_if(0, 1, 0);
    ASSERT_EQ(c.size(), 1u);
    EXPECT_EQ(c.at(0).kind, circuit::GateKind::kZ);
    EXPECT_EQ(c.at(0).condition_bit, 1);
    EXPECT_EQ(c.at(0).condition_value, 0);
}

TEST(Teleportation, TransfersArbitraryStates)
{
    for (double theta : {0.4, 1.1, 2.5}) {
        Circuit c(3, 3);
        c.ry(theta, 0);
        c.h(1);
        c.cx(1, 2);
        c.cx(0, 1);
        c.h(0);
        c.measure(0, 0);
        c.measure(1, 1);
        c.x_if(2, 1, 1);
        c.z_if(2, 0, 1);
        c.measure(2, 2);

        const auto counts = sim::simulate(c, {.shots = 20'000, .seed = 9});
        std::size_t ones = 0;
        std::size_t total = 0;
        for (const auto& [key, count] : counts) {
            total += count;
            if (key[2] == '1') ones += count;
        }
        const double expected = std::sin(theta / 2) * std::sin(theta / 2);
        EXPECT_NEAR(static_cast<double>(ones) / total, expected, 0.015)
            << "theta=" << theta;
    }
}

TEST(Teleportation, WithoutCorrectionsFails)
{
    // Omitting the feed-forward corrections breaks the protocol for a
    // state with nonzero Z-expectation asymmetry.
    Circuit c(3, 3);
    c.ry(2.5, 0);
    c.h(1);
    c.cx(1, 2);
    c.cx(0, 1);
    c.h(0);
    c.measure(0, 0);
    c.measure(1, 1);
    c.measure(2, 2);  // no corrections
    const auto counts = sim::simulate(c, {.shots = 20'000, .seed = 10});
    std::size_t ones = 0;
    std::size_t total = 0;
    for (const auto& [key, count] : counts) {
        total += count;
        if (key[2] == '1') ones += count;
    }
    const double expected = std::sin(2.5 / 2) * std::sin(2.5 / 2);
    // Without corrections the marginal collapses toward 1/2.
    EXPECT_GT(std::abs(static_cast<double>(ones) / total - expected),
              0.1);
}

TEST(AmplitudeDamping, FullDampingGrounds)
{
    util::Rng rng(1);
    sim::StateVector sv(1);
    sv.apply_pauli('X', 0);  // |1>
    sv.apply_amplitude_damping(0, 1.0, rng);
    EXPECT_NEAR(sv.prob_one(0), 0.0, 1e-12);
}

TEST(AmplitudeDamping, ZeroDampingIsIdentity)
{
    util::Rng rng(2);
    sim::StateVector sv(1);
    Circuit c(1, 0);
    c.ry(1.234, 0);
    sv.apply(c.at(0));
    const double before = sv.prob_one(0);
    sv.apply_amplitude_damping(0, 0.0, rng);
    EXPECT_DOUBLE_EQ(sv.prob_one(0), before);
}

TEST(AmplitudeDamping, EnsembleAverageMatchesChannel)
{
    // Averaged over trajectories, P(1) after damping = (1-gamma)*P(1).
    const double gamma = 0.35;
    util::Rng rng(3);
    double total_p1 = 0.0;
    constexpr int kTrials = 5000;
    for (int trial = 0; trial < kTrials; ++trial) {
        sim::StateVector sv(1);
        Circuit prep(1, 0);
        prep.ry(1.8, 0);
        sv.apply(prep.at(0));
        sv.apply_amplitude_damping(0, gamma, rng);
        total_p1 += sv.prob_one(0);
    }
    const double p1_initial = std::sin(0.9) * std::sin(0.9);
    EXPECT_NEAR(total_p1 / kTrials, (1.0 - gamma) * p1_initial, 0.02);
}

TEST(AmplitudeDamping, PreservesNormalization)
{
    util::Rng rng(4);
    sim::StateVector sv(2);
    Circuit prep(2, 0);
    prep.h(0);
    prep.cx(0, 1);
    for (std::size_t i = 0; i < prep.size(); ++i) sv.apply(prep.at(i));
    for (int step = 0; step < 10; ++step) {
        sv.apply_amplitude_damping(step % 2, 0.2, rng);
        double norm = 0.0;
        for (const auto& amp : sv.amplitudes()) norm += std::norm(amp);
        EXPECT_NEAR(norm, 1.0, 1e-9);
    }
}

TEST(Equivalence, IdenticalCircuits)
{
    Circuit a(2, 0);
    a.h(0);
    a.cx(0, 1);
    a.rz(0.7, 1);
    EXPECT_TRUE(oracle::unitarily_equivalent(a, a));
}

TEST(Equivalence, DetectsDifference)
{
    Circuit a(2, 0);
    a.h(0);
    a.cx(0, 1);
    Circuit b(2, 0);
    b.h(0);
    b.cx(1, 0);  // reversed control/target
    EXPECT_FALSE(oracle::unitarily_equivalent(a, b));
}

TEST(Equivalence, GlobalPhaseIgnored)
{
    // RZ(2π) = -I: differs from identity only by global phase.
    Circuit a(1, 0);
    a.rz(2 * 3.14159265358979, 0);
    Circuit b(1, 0);
    b.barrier();  // empty unitary
    EXPECT_TRUE(oracle::unitarily_equivalent(a, b));
}

TEST(Equivalence, ValidatesDecompositionsOnRandomStates)
{
    // CCX decomposition, CZ sandwich, RZZ lowering — all checked on
    // random product states rather than just |0...0>.
    Circuit ccx(3, 0);
    ccx.ccx(0, 1, 2);
    EXPECT_TRUE(
        oracle::unitarily_equivalent(ccx, transpile::decompose_ccx(ccx)));

    Circuit mixed(3, 0);
    mixed.rzz(0.9, 0, 1);
    mixed.cz(1, 2);
    mixed.ccx(0, 1, 2);
    EXPECT_TRUE(oracle::unitarily_equivalent(
        mixed, transpile::decompose_to_native(mixed)));
}

TEST(Equivalence, RandomPrepIsNormalized)
{
    util::Rng rng(5);
    const auto prep = oracle::random_product_state_prep(4, rng);
    sim::StateVector sv(4);
    for (const auto& instr : prep.instructions()) sv.apply(instr);
    double norm = 0.0;
    for (const auto& amp : sv.amplitudes()) norm += std::norm(amp);
    EXPECT_NEAR(norm, 1.0, 1e-9);
}

TEST(IdleNoise, StillDegradesWithDampingModel)
{
    // Regression guard after switching idle noise to amplitude
    // damping: an excited qubit idling a long time under the backend
    // model must decay toward |0>.
    const auto backend = arch::Backend::fake_mumbai();
    const auto noise = sim::NoiseModel::from_backend(backend);
    Circuit c(27, 1);
    c.x(0);
    for (int i = 0; i < 120; ++i) c.cx(1, 2);
    c.barrier();
    c.measure(0, 0);
    const auto counts =
        sim::simulate(c, {.shots = 3000, .seed = 13}, noise);
    // With ~120 CX of idling (>100 us), T1 decay must be visible.
    EXPECT_LT(sim::success_rate(counts, "1"), 0.95);
    EXPECT_GT(sim::success_rate(counts, "1"), 0.2);
}

}  // namespace
}  // namespace caqr
