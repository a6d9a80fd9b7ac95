/// Tests for the baseline transpiler: decomposition, layout, SABRE
/// routing (allocation-free hot loop + stall escape, delta scoring
/// against a full-rescoring reference), raced multi-trial determinism,
/// and semantics preservation end to end.
#include <gtest/gtest.h>

#include "apps/benchmarks.h"
#include "apps/qaoa.h"
#include "arch/backend.h"
#include "core/qs_caqr.h"
#include "graph/generators.h"
#include "sim/simulator.h"
#include <atomic>
#include <complex>
#include <cstdint>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "oracle.h"
#include "qasm/printer.h"
#include "sim/statevector.h"
#include "transpile/decompose.h"
#include "transpile/layout.h"
#include "transpile/router.h"
#include "transpile/sabre.h"
#include "transpile/transpiler.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "util/status.h"
#include "util/trace.h"

namespace caqr {
namespace {

using circuit::Circuit;
using circuit::GateKind;

TEST(Decompose, CcxLowersToSixCx)
{
    Circuit c(3, 0);
    c.ccx(0, 1, 2);
    const auto lowered = transpile::decompose_ccx(c);
    int cx_count = 0;
    for (const auto& instr : lowered.instructions()) {
        EXPECT_NE(instr.kind, GateKind::kCcx);
        if (instr.kind == GateKind::kCx) ++cx_count;
    }
    EXPECT_EQ(cx_count, 6);
}

TEST(Decompose, CcxPreservesSemantics)
{
    // Exhaustive over the 8 basis inputs.
    for (int input = 0; input < 8; ++input) {
        Circuit direct(3, 3);
        Circuit lowered_src(3, 3);
        for (int b = 0; b < 3; ++b) {
            if ((input >> b) & 1) {
                direct.x(b);
                lowered_src.x(b);
            }
        }
        direct.ccx(0, 1, 2);
        lowered_src.ccx(0, 1, 2);
        for (int b = 0; b < 3; ++b) {
            direct.measure(b, b);
            lowered_src.measure(b, b);
        }
        const auto lowered = transpile::decompose_ccx(lowered_src);
        const auto da = sim::exact_distribution(direct);
        const auto db = sim::exact_distribution(lowered);
        EXPECT_LT(util::total_variation_distance(da, db), 1e-9)
            << "input=" << input;
    }
}

TEST(Decompose, RzzAndCzLowered)
{
    Circuit c(2, 0);
    c.rzz(0.7, 0, 1);
    c.cz(0, 1);
    const auto native = transpile::decompose_to_native(c);
    for (const auto& instr : native.instructions()) {
        EXPECT_NE(instr.kind, GateKind::kRzz);
        EXPECT_NE(instr.kind, GateKind::kCz);
    }
    // RZZ -> CX RZ CX, CZ -> H CX H.
    EXPECT_EQ(native.two_qubit_gate_count(), 3);
}

TEST(Layout, TrivialIsIdentity)
{
    const auto backend = arch::Backend::fake_mumbai();
    Circuit c(5, 0);
    const auto layout = transpile::trivial_layout(c, backend);
    for (int i = 0; i < 5; ++i) EXPECT_EQ(layout[i], i);
    EXPECT_TRUE(transpile::is_valid_layout(layout, c, backend));
}

TEST(Layout, GreedyIsValidAndInteractionAware)
{
    const auto backend = arch::Backend::fake_mumbai();
    const auto bv = apps::bv_circuit(5);
    const auto layout = transpile::greedy_layout(bv, backend);
    EXPECT_TRUE(transpile::is_valid_layout(layout, bv, backend));
    // The BV ancilla (highest degree) should land on a degree-3 hub.
    EXPECT_EQ(backend.topology().degree(layout[4]), 3);
}

/// greedy_layout as it was before the backend's per-qubit tables: it
/// recomputes each candidate's total distance over the whole device.
transpile::Layout
greedy_layout_brute_force(const Circuit& circuit,
                          const arch::Backend& backend)
{
    const int nl = circuit.num_qubits();
    const int np = backend.num_qubits();
    const auto interaction = circuit.interaction_graph();
    const auto& topology = backend.topology();

    std::vector<int> order(static_cast<std::size_t>(nl));
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return interaction.degree(a) > interaction.degree(b);
    });

    transpile::Layout layout(static_cast<std::size_t>(nl), -1);
    std::vector<bool> used(static_cast<std::size_t>(np), false);
    auto centrality = [&](int p) {
        long long total = 0;
        for (int other = 0; other < np; ++other) {
            const int d = backend.distance(p, other);
            total += d < 0 ? np : d;
        }
        return -total;
    };
    for (int logical : order) {
        std::vector<int> partners;
        for (int nb : interaction.neighbors(logical)) {
            if (layout[nb] >= 0) partners.push_back(layout[nb]);
        }
        int best = -1;
        double best_score = -std::numeric_limits<double>::infinity();
        for (int p = 0; p < np; ++p) {
            if (used[p]) continue;
            double score;
            if (partners.empty()) {
                score = 1000.0 * topology.degree(p) +
                        static_cast<double>(centrality(p)) / np;
            } else {
                long long dist = 0;
                for (int partner : partners) {
                    const int d = backend.distance(p, partner);
                    dist += d < 0 ? np : d;
                }
                score = -static_cast<double>(dist) * 1000.0 +
                        topology.degree(p);
            }
            score -= backend.calibration().qubit(p).readout_error;
            if (score > best_score) {
                best_score = score;
                best = p;
            }
        }
        layout[logical] = best;
        used[best] = true;
    }
    return layout;
}

TEST(Layout, GreedyMatchesBruteForceCentrality)
{
    // Secrets with many 0 bits leave most data qubits without a
    // partner, so nearly every placement is a seed scored by
    // centrality.
    auto sparse = [](int n) {
        std::vector<int> bits(static_cast<std::size_t>(n - 1), 0);
        for (std::size_t i = 0; i < bits.size(); i += 5) bits[i] = 1;
        return bits;
    };
    // Two interacting groups and idle qubits: a disconnected
    // interaction graph, so each component starts from a new seed.
    Circuit split(12, 0);
    split.cx(0, 1);
    split.cx(1, 2);
    split.cx(5, 6);
    split.cx(6, 7);
    split.cx(5, 7);

    const auto mumbai = arch::Backend::fake_mumbai();
    const auto large = arch::Backend::scaled_heavy_hex(433);
    const std::vector<std::pair<Circuit, const arch::Backend*>> cases = {
        {apps::bv_circuit(20, sparse(20)), &mumbai},
        {apps::cc_circuit(24, sparse(24)), &mumbai},
        {split, &mumbai},
        {apps::bv_circuit(400, sparse(400)), &large},
        {apps::cc_circuit(300, sparse(300)), &large},
        {split, &large},
    };
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const auto& [circuit, backend] = cases[i];
        EXPECT_EQ(transpile::greedy_layout(circuit, *backend),
                  greedy_layout_brute_force(circuit, *backend))
            << "case " << i;
    }
}

TEST(Router, AlreadyCompliantCircuitNeedsNoSwaps)
{
    const auto backend = arch::Backend::fake_mumbai();
    Circuit c(2, 2);
    c.h(0);
    c.cx(0, 1);
    c.measure(0, 0);
    c.measure(1, 1);
    const auto result =
        transpile::route_or(transpile::GateGraph(c), backend,
                            transpile::trivial_layout(c, backend))
            .value();
    EXPECT_EQ(result.swaps_added, 0);
    EXPECT_TRUE(transpile::is_hardware_compliant(result.circuit, backend));
}

TEST(Router, DistantQubitsGetSwaps)
{
    const auto backend = arch::Backend::fake_mumbai();
    Circuit c(27, 0);
    c.cx(0, 26);  // far corners of the lattice
    const auto result =
        transpile::route_or(transpile::GateGraph(c), backend,
                            transpile::trivial_layout(c, backend))
            .value();
    EXPECT_GT(result.swaps_added, 0);
    EXPECT_TRUE(transpile::is_hardware_compliant(result.circuit, backend));
}

TEST(Router, StarCircuitOnDegreeLimitedDevice)
{
    // BV_5's interaction star has degree 4 > heavy-hex max degree 3,
    // so the baseline must insert at least one SWAP (paper Fig 5).
    const auto backend = arch::Backend::fake_mumbai();
    const auto bv = apps::bv_circuit(5);
    const auto layout = transpile::greedy_layout(bv, backend);
    const auto result =
        transpile::route_or(transpile::GateGraph(bv), backend, layout)
            .value();
    EXPECT_GE(result.swaps_added, 1);
    EXPECT_TRUE(transpile::is_hardware_compliant(result.circuit, backend));
}

TEST(Router, ScratchReuseIsBitIdentical)
{
    // Re-running with a warm scratch (buffers sized, generation
    // advanced) must reproduce the cold-scratch result exactly.
    const auto backend = arch::Backend::fake_mumbai();
    const auto bv = apps::bv_circuit(8);
    const auto layout = transpile::greedy_layout(bv, backend);
    const transpile::GateGraph dag(bv);
    const auto cold = transpile::route_or(dag, backend, layout).value();
    transpile::RouterScratch scratch;
    for (int run = 0; run < 3; ++run) {
        const auto warm =
            transpile::route_or(dag, backend, layout, {}, &scratch).value();
        EXPECT_EQ(warm.swaps_added, cold.swaps_added) << "run=" << run;
        EXPECT_EQ(warm.final_layout, cold.final_layout) << "run=" << run;
        EXPECT_EQ(warm.circuit.instructions().size(),
                  cold.circuit.instructions().size())
            << "run=" << run;
    }
}

TEST(Router, InvalidLayoutReportsInvalidArgument)
{
    const auto backend = arch::Backend::fake_mumbai();
    Circuit c(2, 0);
    c.cx(0, 1);
    transpile::Layout bad = {0, 0};  // not injective
    const auto result =
        transpile::route_or(transpile::GateGraph(c), backend, bad);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(Router, DisconnectedDeviceReportsInfeasible)
{
    // Two 2-qubit islands; a CX across them can never be routed. The
    // pre-PR-9 router CHECK-aborted the process here.
    graph::UndirectedGraph topology(4);
    topology.add_edge(0, 1);
    topology.add_edge(2, 3);
    const arch::Backend backend(
        "split", topology, arch::Calibration::synthesize(topology));
    Circuit c(4, 0);
    c.cx(0, 2);
    const auto result = transpile::route_or(
        transpile::GateGraph(c), backend,
        transpile::trivial_layout(c, backend));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), util::StatusCode::kInfeasible);
}

TEST(Router, StallEscapeRoutesImmediately)
{
    // stall_escape_after = 0 forces every blocked frontier straight
    // onto the shortest-path chain — the escape path must still yield
    // a compliant, semantically routed circuit.
    const auto backend = arch::Backend::fake_mumbai();
    const auto bv = apps::bv_circuit(6);
    transpile::RouterOptions options;
    options.stall_escape_after = 0;
    const auto layout = transpile::greedy_layout(bv, backend);
    const auto result =
        transpile::route_or(transpile::GateGraph(bv), backend, layout,
                            options)
            .value();
    EXPECT_GE(result.swaps_added, 1);
    EXPECT_TRUE(transpile::is_hardware_compliant(result.circuit, backend));
}

TEST(Router, CombineSwapScoreFoldsBiasInsideDecay)
{
    // Pin the PR-9 fix: the error-aware link bias sits *inside* the
    // decayed product, so decay scales it exactly like the distance
    // terms (historically it was added after the multiplication and
    // escaped decay entirely).
    EXPECT_DOUBLE_EQ(transpile::combine_swap_score(3.0, 1.0, 1.0, 0.25),
                     4.25);
    EXPECT_DOUBLE_EQ(transpile::combine_swap_score(2.0, 1.0, 1.5, 0.2),
                     1.5 * 3.2);
    // Bias ratio to the rest of the score is decay-invariant.
    const double lo = transpile::combine_swap_score(2.0, 0.0, 1.0, 0.5);
    const double hi = transpile::combine_swap_score(2.0, 0.0, 3.0, 0.5);
    EXPECT_DOUBLE_EQ(hi, 3.0 * lo);
}

TEST(Router, SwapBoundPrunesHopelessRun)
{
    const auto backend = arch::Backend::fake_mumbai();
    Circuit c(27, 0);
    c.cx(0, 26);
    std::atomic<int> bound{0};  // incumbent: a zero-SWAP solution exists
    const auto result = transpile::route_or(
        transpile::GateGraph(c), backend,
        transpile::trivial_layout(c, backend), {}, nullptr,
        &bound);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), util::StatusCode::kInfeasible);
    EXPECT_NE(result.status().message().find("swap budget"),
              std::string::npos);
}

TEST(Transpiler, PipelineProducesMetrics)
{
    const auto backend = arch::Backend::fake_mumbai();
    const auto bv = apps::bv_circuit(5);
    const auto result = transpile::transpile_or(bv, backend).value();
    EXPECT_TRUE(transpile::is_hardware_compliant(result.circuit, backend));
    EXPECT_GT(result.depth, 0);
    EXPECT_GT(result.duration_dt, 0.0);
    EXPECT_TRUE(transpile::is_valid_layout(result.initial_layout,
                                           transpile::decompose_to_native(bv),
                                           backend));
}

TEST(Transpiler, MultiTrialNeverWorse)
{
    // More trials can only improve on the greedy anchor: the winner
    // must be no worse than the single greedy trial on every tracked
    // quality metric, not just SWAPs.
    const auto backend = arch::Backend::fake_mumbai();
    const auto bv = apps::bv_circuit(8);
    transpile::TranspileOptions single;
    single.trials = 1;
    single.layout_refine_passes = 0;
    transpile::TranspileOptions multi;
    multi.trials = 5;
    const auto a = transpile::transpile_or(bv, backend, single).value();
    const auto b = transpile::transpile_or(bv, backend, multi).value();
    EXPECT_LE(b.swaps_added, a.swaps_added);
    EXPECT_LE(b.depth, a.depth);
}

TEST(Transpiler, RefinementAndTrialsNeverWorseThanPlainGreedy)
{
    // Default options must dominate the pre-refinement single-trial
    // pipeline: trial 1 anchors on the plain greedy layout, so the
    // raced minimum can only tie or beat it.
    const auto backend = arch::Backend::fake_mumbai();
    for (int n : {5, 8, 10}) {
        const auto bv = apps::bv_circuit(n);
        transpile::TranspileOptions plain;
        plain.trials = 1;
        plain.layout_refine_passes = 0;
        const auto a = transpile::transpile_or(bv, backend, plain).value();
        const auto b = transpile::transpile_or(bv, backend).value();
        EXPECT_LE(b.swaps_added, a.swaps_added) << "bv_" << n;
    }
}

TEST(Transpiler, RacedTrialsAreBitIdenticalAcrossThreadCounts)
{
    const auto backend = arch::Backend::fake_mumbai();
    for (const auto* name : {"bv_10", "multiply_13"}) {
        const auto bench = apps::get_benchmark(name);
        ASSERT_TRUE(bench.has_value()) << name;
        transpile::TranspileOptions serial;
        serial.trials = 8;
        serial.num_threads = 1;
        transpile::TranspileOptions parallel = serial;
        parallel.num_threads = 8;
        const auto a =
            transpile::transpile_or(bench->circuit, backend, serial)
                .value();
        const auto b =
            transpile::transpile_or(bench->circuit, backend, parallel)
                .value();
        EXPECT_EQ(a.swaps_added, b.swaps_added) << name;
        EXPECT_EQ(a.depth, b.depth) << name;
        EXPECT_EQ(a.initial_layout, b.initial_layout) << name;
        EXPECT_EQ(a.final_layout, b.final_layout) << name;
        ASSERT_EQ(a.circuit.instructions().size(),
                  b.circuit.instructions().size())
            << name;
        for (std::size_t i = 0; i < a.circuit.instructions().size(); ++i) {
            const auto& x = a.circuit.instructions()[i];
            const auto& y = b.circuit.instructions()[i];
            EXPECT_EQ(x.kind, y.kind) << name << " instr " << i;
            EXPECT_EQ(x.qubits, y.qubits) << name << " instr " << i;
            EXPECT_EQ(x.params, y.params) << name << " instr " << i;
        }
    }
}

/// A raced run under one request puts the span of every route it makes
/// into that request's capture, pool helpers included: the capture
/// holds as many `router.route` spans as `transpile.routes` counts.
TEST(Transpiler, RacedRoutesRecordIntoTheRequestCapture)
{
    const auto routes = [] {
        const auto counters = util::metrics::global().snapshot().counters;
        const auto it = counters.find("transpile.routes");
        return it == counters.end() ? 0.0 : it->second;
    };
    const auto bench = apps::get_benchmark("multiply_13");
    ASSERT_TRUE(bench.has_value());
    transpile::TranspileOptions options;
    options.trials = 8;
    options.num_threads = 4;

    util::trace::RequestCapture capture(1);
    const util::trace::RequestContext request{1, &capture};
    const double before = routes();
    {
        util::trace::RequestScope scope(&request);
        ASSERT_TRUE(transpile::transpile_or(bench->circuit,
                                            arch::Backend::fake_mumbai(),
                                            options)
                        .ok());
    }
    const double routed = routes() - before;
    EXPECT_GT(routed, 2.0);

    std::ostringstream os;
    capture.write_chrome_trace(os);
    const std::string json = os.str();
    const std::string needle = "\"name\":\"router.route\"";
    double spans = 0.0;
    for (auto pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + needle.size())) {
        ++spans;
    }
    EXPECT_EQ(spans, routed);
    EXPECT_EQ(capture.dropped(), 0u);
}

/// Property: routing preserves circuit semantics. The routed unitary,
/// read through the final layout, must equal the logical unitary's
/// action on |0...0> up to global phase, SWAPs included.
class RoutingSemantics : public ::testing::TestWithParam<int>
{
};

TEST_P(RoutingSemantics, StatevectorsMatchThroughFinalLayout)
{
    util::Rng rng(4000 + GetParam());
    const int nq = 3 + GetParam() % 4;
    Circuit logical(nq, 0);
    for (int step = 0; step < 16; ++step) {
        const int q = rng.next_int(0, nq - 1);
        int other = rng.next_int(0, nq - 1);
        if (other == q) other = (q + 1) % nq;
        switch (rng.next_int(0, 3)) {
          case 0: logical.h(q); break;
          case 1: logical.rz(rng.next_double() * 3.0, q); break;
          case 2: logical.cx(q, other); break;
          case 3: logical.rzz(rng.next_double(), q, other); break;
        }
    }

    // Small heavy-hex device so full statevectors stay tractable.
    const auto backend = arch::Backend::scaled_heavy_hex(nq + 2);
    ASSERT_LE(backend.num_qubits(), 20);
    transpile::TranspileOptions options;
    options.keep_rzz = true;
    const auto routed = transpile::transpile_or(logical, backend, options).value();
    ASSERT_TRUE(transpile::is_hardware_compliant(routed.circuit, backend));

    sim::StateVector logical_sv(nq);
    for (const auto& instr : logical.instructions()) {
        logical_sv.apply(instr);
    }
    sim::StateVector routed_sv(backend.num_qubits());
    for (const auto& instr : routed.circuit.instructions()) {
        routed_sv.apply(instr);
    }

    // Embed the logical state at the routed circuit's final layout.
    std::vector<std::complex<double>> embedded(
        std::size_t{1} << backend.num_qubits(),
        std::complex<double>(0.0, 0.0));
    const auto& amps = logical_sv.amplitudes();
    for (std::size_t basis = 0; basis < amps.size(); ++basis) {
        std::size_t phys_index = 0;
        for (int l = 0; l < nq; ++l) {
            if ((basis >> l) & 1) {
                phys_index |= std::size_t{1} << routed.final_layout[l];
            }
        }
        embedded[phys_index] = amps[basis];
    }
    const auto expected =
        sim::StateVector::from_amplitudes(std::move(embedded));
    EXPECT_NEAR(routed_sv.fidelity(expected), 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomCircuits, RoutingSemantics,
                         ::testing::Range(0, 12));

/// Property over random *couplings*: route_or on a random connected
/// device keeps the output hardware-compliant and permutation-
/// equivalent to the logical circuit (statevector check through the
/// final layout). Exercises devices far from heavy-hex: dense, sparse,
/// and irregular degree distributions.
class RandomCouplingRouting : public ::testing::TestWithParam<int>
{
};

TEST_P(RandomCouplingRouting, CompliantAndPermutationEquivalent)
{
    util::Rng rng(9000 + GetParam());
    const int nq = 4 + GetParam() % 3;         // logical qubits
    const int np = nq + 1 + GetParam() % 3;    // physical qubits
    const double density = 0.25 + 0.15 * (GetParam() % 4);
    auto topology = graph::random_graph(np, density, rng);
    for (int v = 1; v < np; ++v) {
        // Sparse draws can come out disconnected; a chain backbone
        // keeps the device routable without changing its character.
        topology.add_edge(v - 1, v);
    }
    ASSERT_TRUE(topology.is_connected());
    const arch::Backend backend(
        "random", topology, arch::Calibration::synthesize(topology));

    Circuit logical(nq, 0);
    for (int step = 0; step < 14; ++step) {
        const int q = rng.next_int(0, nq - 1);
        int other = rng.next_int(0, nq - 1);
        if (other == q) other = (q + 1) % nq;
        switch (rng.next_int(0, 2)) {
          case 0: logical.h(q); break;
          case 1: logical.rz(rng.next_double() * 3.0, q); break;
          case 2: logical.cx(q, other); break;
        }
    }

    const auto layout = transpile::greedy_layout(logical, backend);
    ASSERT_TRUE(transpile::is_valid_layout(layout, logical, backend));
    const auto routed =
        transpile::route_or(transpile::GateGraph(logical), backend, layout)
            .value();
    ASSERT_TRUE(transpile::is_hardware_compliant(routed.circuit, backend));

    sim::StateVector logical_sv(nq);
    for (const auto& instr : logical.instructions()) {
        logical_sv.apply(instr);
    }
    sim::StateVector routed_sv(backend.num_qubits());
    for (const auto& instr : routed.circuit.instructions()) {
        routed_sv.apply(instr);
    }
    std::vector<std::complex<double>> embedded(
        std::size_t{1} << backend.num_qubits(),
        std::complex<double>(0.0, 0.0));
    const auto& amps = logical_sv.amplitudes();
    for (std::size_t basis = 0; basis < amps.size(); ++basis) {
        std::size_t phys_index = 0;
        for (int l = 0; l < nq; ++l) {
            if ((basis >> l) & 1) {
                phys_index |= std::size_t{1} << routed.final_layout[l];
            }
        }
        embedded[phys_index] = amps[basis];
    }
    const auto expected =
        sim::StateVector::from_amplitudes(std::move(embedded));
    EXPECT_NEAR(routed_sv.fidelity(expected), 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomCouplings, RandomCouplingRouting,
                         ::testing::Range(0, 10));

/// route_or against the full-rescoring reference router: the same
/// QASM, SWAP count and final layout, or a failure on both.
void
expect_matches_reference(const Circuit& logical,
                         const arch::Backend& backend,
                         const transpile::Layout& layout,
                         const transpile::RouterOptions& options,
                         const std::string& label,
                         transpile::RouterScratch* scratch = nullptr)
{
    const auto fast =
        transpile::route_or(transpile::GateGraph(logical), backend, layout,
                            options, scratch);
    const auto slow =
        oracle::route_full_rescore(logical, backend, layout, options);
    ASSERT_EQ(fast.ok(), slow.ok()) << label;
    if (!fast.ok()) return;
    EXPECT_EQ(fast->swaps_added, slow->swaps_added) << label;
    EXPECT_EQ(fast->final_layout, slow->final_layout) << label;
    EXPECT_EQ(qasm::to_qasm(fast->circuit), qasm::to_qasm(slow->circuit))
        << label;
}

/// Initial layout variant @p which: greedy, trivial, or greedy with a
/// few seeded transpositions.
transpile::Layout
layout_variant(const Circuit& logical, const arch::Backend& backend,
               int which, util::Rng& rng)
{
    if (which % 3 == 1) return transpile::trivial_layout(logical, backend);
    auto layout = transpile::greedy_layout(logical, backend);
    if (which % 3 == 2) {
        for (int k = 0; k < 3; ++k) {
            std::swap(layout[rng.next_below(layout.size())],
                      layout[rng.next_below(layout.size())]);
        }
    }
    return layout;
}

/// Router settings variant @p which: defaults (20-gate window), no
/// lookahead window, distance-only scoring, or an escape on every
/// stall.
transpile::RouterOptions
options_variant(int which)
{
    transpile::RouterOptions options;
    switch (which % 4) {
      case 1: options.lookahead_size = 0; break;
      case 2: options.error_aware = false; break;
      case 3: options.stall_escape_after = 0; break;
      default: break;
    }
    return options;
}

/// Ring plus n/2 seeded chords: connected, mean degree 3.
Circuit
qaoa_ring_circuit(int n, std::uint64_t seed)
{
    util::Rng rng(seed);
    graph::UndirectedGraph problem(n);
    for (int v = 0; v < n; ++v) problem.add_edge(v, (v + 1) % n);
    for (int added = 0; added < n / 2;) {
        const int u = rng.next_int(0, n - 1);
        const int v = rng.next_int(0, n - 1);
        if (u != v && problem.add_edge(u, v)) ++added;
    }
    apps::QaoaParams params;
    params.gammas = {0.7};
    params.betas = {0.3};
    return apps::qaoa_circuit(problem, params);
}

/// Every third bit set: a sparse BV secret / fake-coin set.
std::vector<int>
every_third(int n)
{
    std::vector<int> bits(static_cast<std::size_t>(n - 1));
    for (std::size_t i = 0; i < bits.size(); ++i) bits[i] = i % 3 == 0;
    return bits;
}

TEST(RouterOracle, FakeMumbaiRandomCircuits)
{
    const auto backend = arch::Backend::fake_mumbai();
    for (int i = 0; i < 140; ++i) {
        util::Rng rng(7000 + i);
        const Circuit logical = oracle::random_circuit(rng, 2 + i % 26);
        expect_matches_reference(logical, backend,
                                 layout_variant(logical, backend, i, rng),
                                 options_variant(i / 3),
                                 "mumbai case " + std::to_string(i));
    }
}

TEST(RouterOracle, RandomCouplings)
{
    for (int i = 0; i < 100; ++i) {
        util::Rng rng(8000 + i);
        const int np = 5 + i % 12;
        auto topology = graph::random_graph(np, 0.2 + 0.1 * (i % 5), rng);
        for (int v = 1; v < np; ++v) topology.add_edge(v - 1, v);
        const arch::Backend backend(
            "random", topology, arch::Calibration::synthesize(topology));
        const Circuit logical =
            oracle::random_circuit(rng, 2 + i % (np - 1));
        expect_matches_reference(logical, backend,
                                 layout_variant(logical, backend, i, rng),
                                 options_variant(i / 3),
                                 "coupling case " + std::to_string(i));
    }
}

TEST(RouterOracle, HeavyHexRandomCircuits)
{
    const auto hh127 = arch::Backend::scaled_heavy_hex(127);
    const auto hh433 = arch::Backend::scaled_heavy_hex(433);
    for (int i = 0; i < 60; ++i) {
        util::Rng rng(9100 + i);
        const auto& backend = i % 4 == 3 ? hh433 : hh127;
        const Circuit logical = oracle::random_circuit(rng, 8 + 7 * i % 120);
        expect_matches_reference(logical, backend,
                                 layout_variant(logical, backend, i, rng),
                                 options_variant(i / 3),
                                 "heavy-hex case " + std::to_string(i));
    }
}

TEST(RouterOracle, DeviceScaleBenchmarks)
{
    const auto hh127 = arch::Backend::scaled_heavy_hex(127);
    const auto hh433 = arch::Backend::scaled_heavy_hex(433);
    const struct
    {
        std::string name;
        Circuit circuit;
        const arch::Backend* backend;
    } cases[] = {
        {"qaoa_64", qaoa_ring_circuit(64, 3), &hh127},
        {"bv_127", apps::bv_circuit(127, every_third(127)), &hh127},
        {"cc_127", apps::cc_circuit(127, every_third(127)), &hh127},
        {"qaoa_256", qaoa_ring_circuit(256, 5), &hh433},
        {"bv_400", apps::bv_circuit(400, every_third(400)), &hh433},
        {"cc_400", apps::cc_circuit(400, every_third(400)), &hh433},
    };
    for (const auto& c : cases) {
        const Circuit native = transpile::decompose_to_native(c.circuit);
        util::Rng rng(11);
        for (int which = 0; which < 3; ++which) {
            expect_matches_reference(
                native, *c.backend,
                layout_variant(native, *c.backend, which, rng),
                options_variant(which),
                c.name + " layout " + std::to_string(which));
        }
    }
}

TEST(RouterOracle, ExactTiesPickLowestLink)
{
    // Uniform calibration and no decay: every link carries the same
    // bias, so many candidates score exactly equal and the winner is
    // decided by the (pa, pb) tie-break alone. The router collects
    // candidates in frontier order, the reference scans them sorted.
    for (int i = 0; i < 60; ++i) {
        util::Rng rng(9600 + i);
        const int np = 6 + i % 10;
        auto topology = graph::random_graph(np, 0.3, rng);
        for (int v = 1; v < np; ++v) topology.add_edge(v - 1, v);
        auto calibration = arch::Calibration::synthesize(topology);
        for (auto& link : calibration.links) link = {0.01, 1200.0};
        const arch::Backend backend("uniform", topology, calibration);
        const Circuit logical = oracle::random_circuit(rng, 2 + i % (np - 1));
        transpile::RouterOptions options;
        options.decay_delta = 0.0;
        options.error_aware = i % 2 == 0;
        expect_matches_reference(logical, backend,
                                 layout_variant(logical, backend, i, rng),
                                 options, "tie case " + std::to_string(i));
    }
}

TEST(RouterOracle, ScratchSurvivesShrinkAndGrow)
{
    // One scratch from a 400-qubit run to a 12-qubit run and back:
    // stale rows past the small circuit's qubits must never leak.
    const auto hh433 = arch::Backend::scaled_heavy_hex(433);
    const auto mumbai = arch::Backend::fake_mumbai();
    const Circuit big =
        transpile::decompose_to_native(qaoa_ring_circuit(400, 9));
    util::Rng rng(12);
    const Circuit small = oracle::random_circuit(rng, 12);
    transpile::RouterScratch scratch;
    for (int round = 0; round < 2; ++round) {
        const std::string tag = " round " + std::to_string(round);
        expect_matches_reference(big, hh433,
                                 transpile::greedy_layout(big, hh433), {},
                                 "big" + tag, &scratch);
        expect_matches_reference(small, mumbai,
                                 transpile::greedy_layout(small, mumbai),
                                 {}, "small" + tag, &scratch);
    }
}

/// transpile_or against the pipeline that routes every refinement pass
/// and every trial from scratch: every result field and every
/// instruction equal, or a failure on both.
void
expect_transpile_matches_reference(const Circuit& logical,
                                   const arch::Backend& backend,
                                   const transpile::TranspileOptions& options,
                                   const std::string& label)
{
    const auto fast = transpile::transpile_or(logical, backend, options);
    const auto slow =
        oracle::transpile_every_trial(logical, backend, options);
    ASSERT_EQ(fast.ok(), slow.ok()) << label;
    if (!fast.ok()) return;
    EXPECT_EQ(fast->swaps_added, slow->swaps_added) << label;
    EXPECT_EQ(fast->depth, slow->depth) << label;
    EXPECT_EQ(fast->duration_dt, slow->duration_dt) << label;
    EXPECT_EQ(fast->esp, slow->esp) << label;
    EXPECT_EQ(fast->initial_layout, slow->initial_layout) << label;
    EXPECT_EQ(fast->final_layout, slow->final_layout) << label;
    EXPECT_EQ(fast->circuit.num_qubits(), slow->circuit.num_qubits())
        << label;
    EXPECT_EQ(fast->circuit.num_clbits(), slow->circuit.num_clbits())
        << label;
    const auto& x = fast->circuit.instructions();
    const auto& y = slow->circuit.instructions();
    ASSERT_EQ(x.size(), y.size()) << label;
    for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_EQ(x[i].kind, y[i].kind) << label << " instr " << i;
        EXPECT_EQ(x[i].qubits, y[i].qubits) << label << " instr " << i;
        EXPECT_EQ(x[i].params, y[i].params) << label << " instr " << i;
        EXPECT_EQ(x[i].clbit, y[i].clbit) << label << " instr " << i;
        EXPECT_EQ(x[i].condition_bit, y[i].condition_bit)
            << label << " instr " << i;
        EXPECT_EQ(x[i].condition_value, y[i].condition_value)
            << label << " instr " << i;
    }
}

/// Pipeline settings variant @p which, cycling through every
/// combination of trials {1, 2, 4, 8}, refinement passes {0, 1, 2},
/// threads {1, 8} and error-aware scoring on / off. Eight threads
/// borrow @p pool on odd cycles and spin up a transient pool otherwise.
transpile::TranspileOptions
transpile_variant(int which, util::ThreadPool& pool)
{
    transpile::TranspileOptions options;
    constexpr int kTrials[] = {1, 2, 4, 8};
    options.trials = kTrials[which % 4];
    options.layout_refine_passes = which / 4 % 3;
    options.num_threads = which / 12 % 2 == 0 ? 1 : 8;
    options.router.error_aware = which / 24 % 2 == 0;
    if (options.num_threads > 1 && which / 48 % 2 == 1) options.pool = &pool;
    options.seed = 500 + static_cast<std::uint64_t>(which);
    return options;
}

/// One line naming a variant's settings, for failure messages.
std::string
variant_label(const transpile::TranspileOptions& options)
{
    return " trials " + std::to_string(options.trials) + " refine " +
           std::to_string(options.layout_refine_passes) + " threads " +
           std::to_string(options.num_threads) +
           (options.router.error_aware ? " error-aware" : " distance-only");
}

TEST(TranspileOracle, RandomCircuitsOnFakeMumbai)
{
    const auto backend = arch::Backend::fake_mumbai();
    util::ThreadPool pool(3);
    for (int i = 0; i < 96; ++i) {
        util::Rng rng(12000 + i);
        const Circuit logical = oracle::random_circuit(rng, 2 + i % 26);
        const auto options = transpile_variant(i, pool);
        expect_transpile_matches_reference(
            logical, backend, options,
            "mumbai case " + std::to_string(i) + variant_label(options));
    }
}

TEST(TranspileOracle, BenchmarksOnHeavyHex)
{
    const auto hh127 = arch::Backend::scaled_heavy_hex(127);
    util::ThreadPool pool(3);
    for (int i = 0; i < 48; ++i) {
        const int n = 16 + 37 * i % 112;
        Circuit logical;
        std::string name;
        switch (i % 3) {
          case 0:
            logical = apps::bv_circuit(n, every_third(n));
            name = "bv_";
            break;
          case 1:
            logical = apps::cc_circuit(n, every_third(n));
            name = "cc_";
            break;
          default:
            logical = qaoa_ring_circuit(n, 20 + i);
            name = "qaoa_";
            break;
        }
        const auto options = transpile_variant(i, pool);
        expect_transpile_matches_reference(
            logical, hh127, options,
            name + std::to_string(n) + variant_label(options));
    }
}

TEST(TranspileOracle, Qaoa256OnHeavyHex433)
{
    // The device-scale request whose six routes this pipeline cuts to
    // five: defaults, the widest portfolio, refinement off, and
    // distance-only scoring.
    const auto hh433 = arch::Backend::scaled_heavy_hex(433);
    const Circuit logical = qaoa_ring_circuit(256, 5);
    util::ThreadPool pool(3);
    transpile::TranspileOptions defaults;
    defaults.num_threads = 1;
    for (const auto& options :
         {defaults, transpile_variant(23, pool), transpile_variant(1, pool),
          transpile_variant(29, pool)}) {
        expect_transpile_matches_reference(
            logical, hh433, options, "qaoa_256" + variant_label(options));
    }
}

TEST(TranspileOracle, ReuseOutputsOnFakeMumbai)
{
    // QS-CaQR squeezes BV and the coin circuit to two or three qubits,
    // where the trials' layouts repeat and the greedy anchor routes
    // SWAP-free: the pipeline then skips routes, and must still match
    // routing every trial. Secrets have half their bits set, as in
    // caqrbench's reuse_sweep.
    const auto backend = arch::Backend::fake_mumbai();
    util::ThreadPool pool(3);
    const auto counter = [](const char* name) {
        const auto counters = util::metrics::global().snapshot().counters;
        const auto it = counters.find(name);
        return it == counters.end() ? 0.0 : it->second;
    };
    util::Rng rng(27);
    int skipped = 0;
    int repeated = 0;
    for (int n = 8; n <= 26; ++n) {
        std::vector<int> bits(static_cast<std::size_t>(n - 1), 0);
        std::fill(bits.begin(), bits.begin() + (n - 1) / 2, 1);
        for (const bool coin : {false, true}) {
            rng.shuffle(bits);
            const auto name = (coin ? "cc_" : "bv_") + std::to_string(n);
            const auto reused =
                core::qs_caqr_or(coin ? apps::cc_circuit(n, bits)
                                      : apps::bv_circuit(n, bits))
                    .value()
                    .max_reuse_circuit;
            int which = 0;
            for (const int trials : {1, 2, 4, 8, 32}) {
                for (int passes = 0; passes <= 2; ++passes) {
                    for (const int threads : {1, 8}) {
                        transpile::TranspileOptions options;
                        options.trials = trials;
                        options.layout_refine_passes = passes;
                        options.num_threads = threads;
                        if (threads > 1 && ++which % 2 == 0) {
                            options.pool = &pool;
                        }
                        const double routes_before =
                            counter("transpile.routes");
                        const double repeated_before =
                            counter("transpile.layouts_repeated");
                        expect_transpile_matches_reference(
                            reused, backend, options,
                            name + variant_label(options));
                        // Without the skips: every trial, plus two
                        // routes per pass but the anchor's forward one.
                        const int unskipped =
                            trials + 2 * passes -
                            (trials >= 2 && passes >= 1 ? 1 : 0);
                        if (counter("transpile.routes") - routes_before <
                            unskipped) {
                            ++skipped;
                        }
                        if (counter("transpile.layouts_repeated") >
                            repeated_before) {
                            ++repeated;
                        }
                    }
                }
            }
        }
    }
    EXPECT_GT(skipped, 0);
    EXPECT_GT(repeated, 0);
}

TEST(TranspileOracle, DisconnectedDevice)
{
    // Two components: layouts that split a gate's operands fail, so
    // the anchor-failed fallback and failed refinement passes run.
    graph::UndirectedGraph topology(10);
    for (int v = 1; v < 5; ++v) topology.add_edge(v - 1, v);
    for (int v = 6; v < 10; ++v) topology.add_edge(v - 1, v);
    const arch::Backend backend("split", topology,
                                arch::Calibration::synthesize(topology));
    util::ThreadPool pool(3);
    for (int i = 0; i < 24; ++i) {
        util::Rng rng(13000 + i);
        const Circuit logical = oracle::random_circuit(rng, 3 + i % 7);
        const auto options = transpile_variant(5 * i, pool);
        expect_transpile_matches_reference(
            logical, backend, options,
            "split case " + std::to_string(i) + variant_label(options));
    }
}

}  // namespace
}  // namespace caqr
