/// Tests for the peephole optimizer and the compiled-circuit verifier.
#include <gtest/gtest.h>

#include "apps/benchmarks.h"
#include "arch/backend.h"
#include "core/sr_caqr.h"
#include "equivalence.h"
#include "transpile/peephole.h"
#include "transpile/transpiler.h"
#include "transpile/verifier.h"
#include "util/rng.h"

namespace caqr {
namespace {

using circuit::Circuit;
using circuit::GateKind;
using transpile::PeepholeStats;

TEST(Peephole, SelfInversePairsCancel)
{
    Circuit c(2, 0);
    c.h(0);
    c.h(0);
    c.cx(0, 1);
    c.cx(0, 1);
    c.x(1);
    c.x(1);
    PeepholeStats stats;
    const auto optimized = transpile::peephole_optimize(c, &stats);
    EXPECT_EQ(optimized.size(), 0u);
    EXPECT_EQ(stats.cancelled_pairs, 3);
}

TEST(Peephole, InversePairsCancel)
{
    Circuit c(1, 0);
    c.s(0);
    c.sdg(0);
    c.t(0);
    c.tdg(0);
    c.tdg(0);
    c.t(0);
    const auto optimized = transpile::peephole_optimize(c);
    EXPECT_EQ(optimized.size(), 0u);
}

TEST(Peephole, RotationsMerge)
{
    Circuit c(1, 0);
    c.rz(0.3, 0);
    c.rz(0.4, 0);
    PeepholeStats stats;
    const auto optimized = transpile::peephole_optimize(c, &stats);
    ASSERT_EQ(optimized.size(), 1u);
    EXPECT_NEAR(optimized.at(0).params[0], 0.7, 1e-12);
    EXPECT_EQ(stats.merged_rotations, 1);
}

TEST(Peephole, OppositeRotationsVanish)
{
    Circuit c(2, 0);
    c.rzz(0.9, 0, 1);
    c.rzz(-0.9, 1, 0);  // symmetric gate: swapped operands still merge
    const auto optimized = transpile::peephole_optimize(c);
    EXPECT_EQ(optimized.size(), 0u);
}

TEST(Peephole, ZeroAngleRotationDropped)
{
    Circuit c(1, 0);
    c.rx(0.0, 0);
    PeepholeStats stats;
    const auto optimized = transpile::peephole_optimize(c, &stats);
    EXPECT_EQ(optimized.size(), 0u);
    EXPECT_EQ(stats.dropped_identity, 1);
}

TEST(Peephole, CascadingCancellation)
{
    // H X X H -> H H -> nothing (needs fixpoint iteration).
    Circuit c(1, 0);
    c.h(0);
    c.x(0);
    c.x(0);
    c.h(0);
    PeepholeStats stats;
    const auto optimized = transpile::peephole_optimize(c, &stats);
    EXPECT_EQ(optimized.size(), 0u);
    EXPECT_GE(stats.passes, 2);
}

TEST(Peephole, InterveningGateBlocksCancellation)
{
    Circuit c(2, 0);
    c.h(0);
    c.cx(0, 1);  // touches q0 between the two H's
    c.h(0);
    const auto optimized = transpile::peephole_optimize(c);
    EXPECT_EQ(optimized.size(), 3u);
}

TEST(Peephole, CxOperandOrderMatters)
{
    Circuit c(2, 0);
    c.cx(0, 1);
    c.cx(1, 0);  // different direction: must NOT cancel
    const auto optimized = transpile::peephole_optimize(c);
    EXPECT_EQ(optimized.size(), 2u);
}

TEST(Peephole, FencesBlockOptimization)
{
    Circuit c(1, 2);
    c.h(0);
    c.measure(0, 0);
    c.h(0);
    c.x_if(0, 0, 1);
    c.x_if(0, 0, 1);  // conditioned gates never cancel
    const auto optimized = transpile::peephole_optimize(c);
    EXPECT_EQ(optimized.size(), c.size());

    Circuit b(1, 0);
    b.h(0);
    b.barrier();
    b.h(0);
    EXPECT_EQ(transpile::peephole_optimize(b).size(), 3u);
}

/// Property: optimization preserves the unitary on random circuits.
class PeepholeSemantics : public ::testing::TestWithParam<int>
{
};

TEST_P(PeepholeSemantics, UnitaryPreserved)
{
    util::Rng rng(9900 + GetParam());
    const int nq = 2 + GetParam() % 3;
    Circuit c(nq, 0);
    for (int step = 0; step < 40; ++step) {
        const int q = rng.next_int(0, nq - 1);
        int other = rng.next_int(0, nq - 1);
        if (other == q) other = (q + 1) % nq;
        switch (rng.next_int(0, 7)) {
          case 0: c.h(q); break;
          case 1: c.x(q); break;
          case 2: c.s(q); break;
          case 3: c.sdg(q); break;
          case 4: c.rz(rng.next_double() * 2 - 1, q); break;
          case 5: c.cx(q, other); break;
          case 6: c.rzz(rng.next_double() * 2 - 1, q, other); break;
          case 7: c.cz(q, other); break;
        }
    }
    const auto optimized = transpile::peephole_optimize(c);
    EXPECT_LE(optimized.size(), c.size());
    EXPECT_TRUE(oracle::unitarily_equivalent(c, optimized))
        << "nq=" << nq;
}

INSTANTIATE_TEST_SUITE_P(RandomCircuits, PeepholeSemantics,
                         ::testing::Range(0, 15));

TEST(Peephole, ShrinksRedundantPipelinesInTranspiler)
{
    // CZ lowering creates adjacent H pairs the peephole removes.
    const auto backend = arch::Backend::fake_mumbai();
    Circuit c(3, 0);
    c.cz(0, 1);
    c.cz(0, 1);
    transpile::TranspileOptions with;
    with.peephole = true;
    transpile::TranspileOptions without;
    without.peephole = false;
    const auto a = transpile::transpile_or(c, backend, with).value();
    const auto b = transpile::transpile_or(c, backend, without).value();
    EXPECT_LT(a.circuit.size(), b.circuit.size());
}

// ---------------------------------------------------------------------
// Verifier.
// ---------------------------------------------------------------------

TEST(Verifier, CleanCompiledCircuitPasses)
{
    const auto backend = arch::Backend::fake_mumbai();
    const auto result = core::sr_caqr_or(apps::bv_circuit(8), backend).value();
    const auto report =
        transpile::verify_circuit(result.circuit, &backend);
    EXPECT_TRUE(report.ok()) << (report.issues.empty()
                                     ? ""
                                     : report.issues.front().message);
}

TEST(Verifier, BaselineTranspileOutputPasses)
{
    const auto backend = arch::Backend::fake_mumbai();
    for (const auto& name : apps::regular_benchmark_names()) {
        const auto bench = apps::get_benchmark(name);
        const auto result = transpile::transpile_or(bench->circuit, backend).value();
        EXPECT_TRUE(
            transpile::verify_circuit(result.circuit, &backend).ok())
            << name;
    }
}

TEST(Verifier, FlagsNonAdjacentTwoQubitGate)
{
    const auto backend = arch::Backend::fake_mumbai();
    Circuit c(27, 0);
    c.cx(0, 26);
    const auto report = transpile::verify_circuit(c, &backend);
    ASSERT_FALSE(report.ok());
    EXPECT_NE(report.issues.front().message.find("non-adjacent"),
              std::string::npos);
}

TEST(Verifier, FlagsConditionBeforeMeasurement)
{
    Circuit c(1, 1);
    c.x_if(0, 0, 1);  // clbit 0 never written
    const auto report = transpile::verify_circuit(c);
    ASSERT_FALSE(report.ok());
    EXPECT_NE(report.issues.front().message.find("before any"),
              std::string::npos);
}

TEST(Verifier, CrossWireFeedForwardIsWarningOnly)
{
    // Teleportation's conditional-X reads another wire's measurement:
    // warning, not error.
    Circuit c(3, 3);
    c.h(1);
    c.cx(1, 2);
    c.cx(0, 1);
    c.h(0);
    c.measure(0, 0);
    c.measure(1, 1);
    c.x_if(2, 1, 1);
    c.z_if(2, 0, 1);
    const auto report = transpile::verify_circuit(c);
    EXPECT_TRUE(report.ok());
    EXPECT_GE(report.warning_count(), 1);
}

TEST(Verifier, WiderThanBackendFails)
{
    const auto backend = arch::Backend::fake_mumbai();
    Circuit c(30, 0);
    c.h(0);
    EXPECT_FALSE(transpile::verify_circuit(c, &backend).ok());
}

}  // namespace
}  // namespace caqr
