/// Tests for reuse legality (Conditions 1 & 2) and the reuse circuit
/// transform — the reference DAG reuse API of `oracle.h` — including
/// semantics preservation under simulation and a randomized property
/// check of the full QS-CaQR engine's pairs against it.
#include <gtest/gtest.h>

#include <cstdint>

#include "apps/benchmarks.h"
#include "core/qs_caqr.h"
#include "core/reuse_analysis.h"
#include "equivalence.h"
#include "oracle.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/stats.h"

namespace caqr {
namespace {

using circuit::Circuit;
using oracle::CircuitDag;
using core::ReusePair;

TEST(ReuseConditions, SharedGateViolatesCondition1)
{
    Circuit c(2, 0);
    c.cx(0, 1);
    CircuitDag dag(c);
    EXPECT_FALSE(oracle::is_valid_reuse_pair(dag, 0, 1));
    EXPECT_FALSE(oracle::is_valid_reuse_pair(dag, 1, 0));
}

TEST(ReuseConditions, IndependentWiresAreReusable)
{
    Circuit c(2, 0);
    c.h(0);
    c.h(1);
    CircuitDag dag(c);
    EXPECT_TRUE(oracle::is_valid_reuse_pair(dag, 0, 1));
    EXPECT_TRUE(oracle::is_valid_reuse_pair(dag, 1, 0));
}

TEST(ReuseConditions, Fig7DependencyViolatesCondition2)
{
    // Paper Fig 7: g(q4,q2), g(q2,q3), g(q3,q1). Ops on q1 depend on
    // ops on q4 transitively, so (q1 -> q4) is invalid while
    // (q4 -> q1) is valid.
    Circuit c(5, 0);
    c.cx(4, 2);
    c.cx(2, 3);
    c.cx(3, 1);
    CircuitDag dag(c);
    EXPECT_FALSE(oracle::is_valid_reuse_pair(dag, 1, 4));
    EXPECT_TRUE(oracle::is_valid_reuse_pair(dag, 4, 1));
}

TEST(ReuseConditions, IdleQubitsAreNotCandidates)
{
    Circuit c(3, 0);
    c.h(0);
    CircuitDag dag(c);
    // Qubits 1 and 2 have no operations: nothing to reuse.
    EXPECT_FALSE(oracle::is_valid_reuse_pair(dag, 0, 1));
    EXPECT_FALSE(oracle::is_valid_reuse_pair(dag, 1, 0));
    EXPECT_FALSE(oracle::is_valid_reuse_pair(dag, 0, 0));
}

TEST(ReuseConditions, BvPairsMatchPaper)
{
    // In BV every data qubit can be reused by any other data qubit
    // (they only share the ancilla), but never with the ancilla.
    const auto bv = apps::bv_circuit(5);
    CircuitDag dag(bv);
    const auto pairs = oracle::find_reuse_pairs(dag);
    EXPECT_FALSE(pairs.empty());
    for (const auto& pair : pairs) {
        EXPECT_NE(pair.source, 4);
        EXPECT_NE(pair.target, 4);
    }
    // The CX fan-in serializes on the ancilla in program order, so
    // only forward pairs (earlier data qubit reused by later) satisfy
    // Condition 2: C(4,2) = 6 ordered pairs.
    EXPECT_EQ(pairs.size(), 6u);
}

TEST(ReuseTransform, ReducesQubitCountByOne)
{
    const auto bv = apps::bv_circuit(5);
    auto result = oracle::apply_reuse(bv, ReusePair{0, 1});
    EXPECT_EQ(result.circuit.num_qubits(), 4);
    EXPECT_EQ(result.circuit.num_clbits(), bv.num_clbits());
    EXPECT_EQ(result.orig_of.size(), 4u);
}

TEST(ReuseTransform, InsertsConditionalReset)
{
    const auto bv = apps::bv_circuit(5);
    auto result = oracle::apply_reuse(bv, ReusePair{0, 1});
    int conditioned = 0;
    for (const auto& instr : result.circuit.instructions()) {
        if (instr.has_condition()) ++conditioned;
    }
    EXPECT_EQ(conditioned, 1);
    // No built-in reset — the fast Fig 2(b) idiom only.
    for (const auto& instr : result.circuit.instructions()) {
        EXPECT_NE(instr.kind, circuit::GateKind::kReset);
    }
}

TEST(ReuseTransform, PreservesBvSemantics)
{
    const auto bv = apps::bv_circuit(5);
    auto result = oracle::apply_reuse(bv, ReusePair{0, 1});
    const auto counts =
        sim::simulate(result.circuit, {.shots = 256, .seed = 31});
    ASSERT_EQ(counts.size(), 1u);
    EXPECT_EQ(counts.begin()->first, apps::bv_expected(5));
}

TEST(ReuseTransform, ChainedReuseDownToTwoQubits)
{
    // The paper's Fig 1 flow: reuse one wire for q1..q4 sequentially.
    auto current = apps::bv_circuit(5);
    std::vector<int> orig;
    for (int step = 0; step < 3; ++step) {
        CircuitDag dag(current);
        // Reuse wire 0 (originally q0) for the next data wire.
        ASSERT_TRUE(oracle::is_valid_reuse_pair(dag, 0, 1));
        auto result = oracle::apply_reuse(current, ReusePair{0, 1},
                                        std::move(orig));
        current = std::move(result.circuit);
        orig = std::move(result.orig_of);
    }
    EXPECT_EQ(current.num_qubits(), 2);
    const auto counts = sim::simulate(current, {.shots = 256, .seed = 32});
    ASSERT_EQ(counts.size(), 1u);
    EXPECT_EQ(counts.begin()->first, apps::bv_expected(5));
}

TEST(ReuseTransform, SourceWithoutMeasureGetsScratchBit)
{
    Circuit c(2, 0);
    c.h(0);
    c.z(0);
    c.h(1);
    auto result = oracle::apply_reuse(c, ReusePair{0, 1});
    // A scratch clbit must have been added for the inserted measure.
    EXPECT_EQ(result.circuit.num_clbits(), 1);
    EXPECT_EQ(result.circuit.measure_count(), 1);
}

TEST(ReuseTransform, OrigOfTracksWireIdentity)
{
    const auto bv = apps::bv_circuit(5);
    auto result = oracle::apply_reuse(bv, ReusePair{2, 3});
    // Wire that hosted q2 keeps identity 2; q3's wire is gone; qubit 4
    // shifts down to wire 3.
    EXPECT_EQ(result.orig_of[2], 2);
    EXPECT_EQ(result.orig_of[3], 4);
}

TEST(ReuseTransformDeath, RejectsInvalidPair)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Circuit c(2, 0);
    c.cx(0, 1);
    EXPECT_DEATH(oracle::apply_reuse(c, ReusePair{0, 1}), "invalid pair");
}

TEST(Advise, BvHasOpportunities)
{
    const auto advice = core::advise_reuse(apps::bv_circuit(6));
    EXPECT_TRUE(advice.any_opportunity);
    EXPECT_EQ(advice.active_qubits, 6);
    EXPECT_EQ(advice.min_qubits_estimate, 2);  // paper: BV_n -> 2
    EXPECT_GE(advice.max_reuse_depth, advice.original_depth);
}

TEST(Advise, FullyEntangledCircuitHasNone)
{
    // GHZ chain: every pair shares a gate or depends transitively in
    // both directions only through shared gates: a chain 0-1-2 does
    // allow (0 -> 2)? q2's gate depends on q0's, so (2 -> 0) invalid,
    // (0 -> 2) valid! Make it a triangle so no pair is free.
    Circuit c(3, 0);
    c.cx(0, 1);
    c.cx(1, 2);
    c.cx(0, 2);
    const auto advice = core::advise_reuse(c);
    EXPECT_FALSE(advice.any_opportunity);
    EXPECT_EQ(advice.min_qubits_estimate, 3);
}

TEST(Advise, ChainAllowsForwardReuse)
{
    Circuit c(3, 0);
    c.cx(0, 1);
    c.cx(1, 2);
    const auto advice = core::advise_reuse(c);
    EXPECT_TRUE(advice.any_opportunity);
    EXPECT_EQ(advice.min_qubits_estimate, 2);
}

// ---------------------------------------------------------------------
// Randomized property check over the full QS-CaQR engine
// ---------------------------------------------------------------------

namespace property {

/// Seeded random measurement-terminated circuit: a random-product-state
/// layer (the equivalence probe of sim/equivalence.h), random
/// single-/two-qubit gates, then measure-all.
Circuit
random_probed_circuit(int qubits, util::Rng& rng)
{
    Circuit c = oracle::random_product_state_prep(qubits, rng);
    while (c.num_clbits() < qubits) c.add_clbit();
    const int gates = rng.next_int(6, 16);
    for (int g = 0; g < gates; ++g) {
        const int q = rng.next_int(0, qubits - 1);
        switch (rng.next_int(0, 3)) {
        case 0: c.h(q); break;
        case 1: c.x(q); break;
        case 2: c.z(q); break;
        default: {
            const int r = rng.next_int(0, qubits - 2);
            c.cx(q, r >= q ? r + 1 : r);
            break;
        }
        }
    }
    for (int q = 0; q < qubits; ++q) c.measure(q, q);
    return c;
}

}  // namespace property

TEST(ReuseProperty, EngineAppliesOnlyValidPairsAndPreservesSemantics)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        util::Rng rng(seed);
        const int qubits = rng.next_int(3, 5);
        const Circuit original = property::random_probed_circuit(qubits,
                                                                 rng);

        const auto result = core::qs_caqr_or(original).value();
        const auto& reused = result.versions.back();
        if (reused.applied.empty()) continue;  // nothing to check

        // Replay the engine's chosen pairs from scratch: every one must
        // be valid at its point of application (Conditions 1 & 2 in the
        // then-current circuit, mapped through wire identities).
        Circuit current = original;
        std::vector<int> orig(static_cast<std::size_t>(qubits));
        for (int q = 0; q < qubits; ++q) orig[q] = q;
        for (const auto& pair : reused.applied) {
            CircuitDag dag(current);
            int source = -1;
            int target = -1;
            for (int wire = 0; wire < current.num_qubits(); ++wire) {
                if (orig[wire] == pair.source) source = wire;
                if (orig[wire] == pair.target) target = wire;
            }
            ASSERT_GE(source, 0) << "seed " << seed;
            ASSERT_GE(target, 0) << "seed " << seed;
            ASSERT_TRUE(oracle::is_valid_reuse_pair(dag, source, target))
                << "seed " << seed << " pair (" << pair.source << ","
                << pair.target << ")";
            auto transformed = oracle::apply_reuse(
                current, ReusePair{source, target}, std::move(orig));
            current = std::move(transformed.circuit);
            orig = std::move(transformed.orig_of);
        }
        EXPECT_EQ(current.num_qubits(), reused.qubits) << "seed " << seed;

        // Randomized-state probe: the product-state layer baked into the
        // circuit makes the shot histogram sensitive to the full state,
        // not just the |0..0> column. The transformed circuit must
        // reproduce it (clbits are untouched by the transform).
        const auto base_counts =
            sim::simulate(original, {.shots = 8192, .seed = 97});
        const auto reuse_counts =
            sim::simulate(result.circuit(result.versions.size() - 1),
                          {.shots = 8192, .seed = 131});
        EXPECT_LT(util::total_variation_distance(base_counts,
                                                 reuse_counts),
                  0.12)
            << "seed " << seed;
    }
}

}  // namespace
}  // namespace caqr
