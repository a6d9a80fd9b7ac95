/// Tests for hardware models: heavy-hex lattices, calibration,
/// backends, durations, ESP.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "arch/backend.h"
#include "arch/calibration.h"
#include "arch/heavy_hex.h"
#include "circuit/schedule.h"
#include "circuit/timing.h"

namespace caqr {
namespace {

TEST(HeavyHex, MumbaiHas27QubitsAnd28Links)
{
    const auto g = arch::mumbai_coupling();
    EXPECT_EQ(g.num_nodes(), 27);
    EXPECT_EQ(g.num_edges(), 28);
    EXPECT_TRUE(g.is_connected());
    EXPECT_LE(g.max_degree(), 3);
}

TEST(HeavyHex, LatticeIsConnectedDegreeBounded)
{
    for (const auto& [rows, cols] : {std::pair{2, 5}, {3, 9}, {5, 13}}) {
        const auto g = arch::heavy_hex_lattice(rows, cols);
        EXPECT_TRUE(g.is_connected()) << rows << "x" << cols;
        EXPECT_LE(g.max_degree(), 3) << rows << "x" << cols;
        EXPECT_GT(g.num_nodes(), rows * cols);  // connectors exist
    }
}

TEST(HeavyHex, ScaledCoversDemand)
{
    for (int demand : {5, 27, 64, 128, 300}) {
        const auto g = arch::scaled_heavy_hex(demand);
        EXPECT_GE(g.num_nodes(), demand);
        EXPECT_TRUE(g.is_connected());
        EXPECT_LE(g.max_degree(), 3);
    }
}

TEST(Calibration, SynthesizedValuesInFalconRanges)
{
    const auto topology = arch::mumbai_coupling();
    const auto cal = arch::Calibration::synthesize(topology);
    for (int q = 0; q < topology.num_nodes(); ++q) {
        const auto& qc = cal.qubit(q);
        EXPECT_GE(qc.readout_error, 0.01);
        EXPECT_LE(qc.readout_error, 0.04);
        EXPECT_GE(qc.t1_us, 70.0);
        EXPECT_LE(qc.t1_us, 130.0);
        EXPECT_LE(qc.t2_us, qc.t1_us);
        EXPECT_GT(qc.t2_us, 0.0);
    }
    ASSERT_EQ(cal.qubits.size(), 27u);
    ASSERT_EQ(cal.links.size(), topology.edges().size());
    for (const auto& lc : cal.links) {
        EXPECT_GE(lc.cx_error, 0.005);
        EXPECT_LE(lc.cx_error, 0.02);
        EXPECT_GE(lc.cx_duration_dt, 800.0);
        EXPECT_LE(lc.cx_duration_dt, 2600.0);
    }
}

TEST(Calibration, DeterministicPerSeed)
{
    const auto topology = arch::mumbai_coupling();
    const auto a = arch::Calibration::synthesize(topology, 5);
    const auto b = arch::Calibration::synthesize(topology, 5);
    EXPECT_DOUBLE_EQ(a.qubit(7).readout_error, b.qubit(7).readout_error);
    const auto c = arch::Calibration::synthesize(topology, 6);
    EXPECT_NE(a.qubit(7).readout_error, c.qubit(7).readout_error);
}

TEST(Calibration, LinkValuesFollowEndpointsNotEdgeOrder)
{
    // The same heavy-hex links inserted in reverse: each link's record
    // moves to its new index but keeps its values.
    const auto forward = arch::scaled_heavy_hex(127);
    graph::UndirectedGraph reversed(forward.num_nodes());
    const auto& edges = forward.edges();
    for (auto it = edges.rbegin(); it != edges.rend(); ++it) {
        reversed.add_edge(it->second, it->first);
    }
    const auto a = arch::Calibration::synthesize(forward, 3);
    const auto b = arch::Calibration::synthesize(reversed, 3);
    ASSERT_EQ(a.links.size(), edges.size());
    ASSERT_EQ(b.links.size(), edges.size());
    for (std::size_t i = 0; i < edges.size(); ++i) {
        const std::size_t j = edges.size() - 1 - i;
        ASSERT_EQ(reversed.edges()[j], edges[i]);
        EXPECT_EQ(a.links[i].cx_error, b.links[j].cx_error);
        EXPECT_EQ(a.links[i].cx_duration_dt, b.links[j].cx_duration_dt);
    }
}

TEST(Calibration, OutOfRangeQubitAborts)
{
    const auto cal = arch::Calibration::synthesize(arch::mumbai_coupling());
    EXPECT_DEATH(cal.qubit(-1), "qubit id out of range");
    EXPECT_DEATH(cal.qubit(27), "qubit id out of range");
}

TEST(Backend, FakeMumbaiDistances)
{
    const auto backend = arch::Backend::fake_mumbai();
    EXPECT_EQ(backend.num_qubits(), 27);
    EXPECT_EQ(backend.distance(0, 0), 0);
    EXPECT_EQ(backend.distance(0, 1), 1);
    EXPECT_TRUE(backend.are_adjacent(0, 1));
    EXPECT_FALSE(backend.are_adjacent(0, 3));
    EXPECT_EQ(backend.distance(0, 3), backend.distance(3, 0));
    EXPECT_GE(backend.distance(0, 26), 5);
}

TEST(Backend, CalibratedDurationsUseLinkTable)
{
    const auto backend = arch::Backend::fake_mumbai();
    arch::CalibratedDurations model(backend);

    circuit::Instruction cx;
    cx.kind = circuit::GateKind::kCx;
    cx.qubits = {0, 1};
    const double d01 = model.duration(cx);
    const auto* link = backend.find_link(0, 1);
    ASSERT_NE(link, nullptr);
    EXPECT_DOUBLE_EQ(d01,
                     backend.calibration().links[link->id].cx_duration_dt);

    circuit::Instruction swap_instr;
    swap_instr.kind = circuit::GateKind::kSwap;
    swap_instr.qubits = {0, 1};
    EXPECT_DOUBLE_EQ(model.duration(swap_instr), 3 * d01);
}

TEST(Backend, EspBoundsAndMonotonicity)
{
    const auto backend = arch::Backend::fake_mumbai();
    circuit::Circuit small(27, 2);
    small.h(0);
    small.cx(0, 1);
    small.measure(0, 0);
    small.measure(1, 1);
    const double esp_small =
        arch::estimated_success_probability(small, backend);
    EXPECT_GT(esp_small, 0.0);
    EXPECT_LE(esp_small, 1.0);

    // Adding gates can only reduce ESP.
    circuit::Circuit big(27, 2);
    big.h(0);
    for (int i = 0; i < 10; ++i) big.cx(0, 1);
    big.measure(0, 0);
    big.measure(1, 1);
    EXPECT_LT(arch::estimated_success_probability(big, backend),
              esp_small);
}

TEST(Backend, ScoreMatchesDepthScheduleAndEsp)
{
    const auto backend = arch::Backend::fake_mumbai();
    circuit::Circuit c(27, 2);
    c.h(0);
    c.cx(0, 1);
    c.swap_gate(1, 2);
    c.cx(0, 5);  // no link: the uncalibrated CX error applies
    c.measure(0, 0);
    c.x_if(0, 0, 1);
    c.measure(2, 1);
    ASSERT_EQ(backend.find_link(0, 5), nullptr);
    const arch::MappedScore score = arch::score_mapped(c, backend);
    const arch::CalibratedDurations model(backend);
    EXPECT_EQ(score.depth, circuit::depth(c));
    EXPECT_EQ(score.duration_dt, circuit::Schedule(c, model).makespan());
    EXPECT_EQ(score.esp, arch::estimated_success_probability(c, backend));
}

TEST(Backend, ScaledHeavyHexFactory)
{
    const auto backend = arch::Backend::scaled_heavy_hex(64);
    EXPECT_GE(backend.num_qubits(), 64);
    EXPECT_TRUE(backend.topology().is_connected());
}

TEST(Backend, ScaledHeavyHexNameMatchesQubitCount)
{
    for (int demand : {27, 64, 127, 433}) {
        const auto backend = arch::Backend::scaled_heavy_hex(demand, 1);
        EXPECT_EQ(backend.name(),
                  "HeavyHex" + std::to_string(backend.num_qubits()))
            << "demand " << demand;
    }
}

/// Checks both per-qubit placement tables, the per-endpoint link table
/// and the link lookups against brute-force loops over the distance
/// matrix, the topology and the per-edge calibration.
void
expect_tables_match_brute_force(const arch::Backend& backend)
{
    const int n = backend.num_qubits();
    const auto& cal = backend.calibration();
    const auto& edges = backend.topology().edges();
    ASSERT_EQ(cal.links.size(), edges.size());
    for (int q = 0; q < n; ++q) {
        std::vector<int> neighbors;
        for (const auto& link : backend.links(q)) {
            neighbors.push_back(link.neighbor);
            ASSERT_GE(link.id, 0);
            ASSERT_LT(link.id, backend.num_links());
            EXPECT_EQ(edges[static_cast<std::size_t>(link.id)],
                      std::pair(std::min(q, link.neighbor),
                                std::max(q, link.neighbor)))
                << backend.name() << " qubit " << q;
        }
        std::vector<int> expected = backend.topology().neighbors(q);
        std::sort(neighbors.begin(), neighbors.end());
        std::sort(expected.begin(), expected.end());
        EXPECT_EQ(neighbors, expected) << backend.name() << " qubit " << q;
        long long total = 0;
        double best = 1.0;
        for (int other = 0; other < n; ++other) {
            const int d = backend.distance(q, other);
            total += d < 0 ? n : d;
            const auto* link = backend.find_link(q, other);
            ASSERT_EQ(link != nullptr, backend.are_adjacent(q, other))
                << backend.name() << " pair " << q << ", " << other;
            if (link == nullptr) {
                EXPECT_EQ(backend.cx_error(q, other), 0.02);
                EXPECT_EQ(backend.cx_duration_dt(q, other),
                          circuit::LogicalDurations::kTwoQubitGate);
                continue;
            }
            EXPECT_EQ(link->neighbor, other);
            EXPECT_EQ(link->id, backend.find_link(other, q)->id);
            EXPECT_EQ(edges[static_cast<std::size_t>(link->id)],
                      std::pair(std::min(q, other), std::max(q, other)));
            const auto& record = cal.links[static_cast<std::size_t>(link->id)];
            EXPECT_EQ(backend.cx_error(q, other), record.cx_error);
            EXPECT_EQ(backend.cx_duration_dt(q, other),
                      record.cx_duration_dt);
            best = std::min(best, record.cx_error);
        }
        EXPECT_EQ(backend.total_distance(q), total)
            << backend.name() << " qubit " << q;
        EXPECT_EQ(backend.best_incident_cx_error(q), best)
            << backend.name() << " qubit " << q;
    }
    for (const auto& [a, b] :
         {std::pair{-1, 0}, {0, -1}, {-3, -2}, {n, n + 1}, {1, n},
          {n, 1}, {1, 1000}, {1 << 30, 0}, {0, 1 << 30}}) {
        EXPECT_EQ(backend.find_link(a, b), nullptr)
            << backend.name() << " pair " << a << ", " << b;
    }
}

TEST(Backend, PlacementTablesMatchBruteForce)
{
    expect_tables_match_brute_force(arch::Backend::fake_mumbai());
    expect_tables_match_brute_force(arch::Backend::scaled_heavy_hex(127));
    expect_tables_match_brute_force(arch::Backend::scaled_heavy_hex(433));
}

TEST(Backend, PlacementTablesOnDisconnectedTopology)
{
    // Two islands and an isolated qubit 4.
    graph::UndirectedGraph topology(5);
    topology.add_edge(0, 1);
    topology.add_edge(2, 3);
    const arch::Backend backend("split", topology,
                                arch::Calibration::synthesize(topology));
    expect_tables_match_brute_force(backend);
    // Qubit 0 reaches qubit 1 in one hop; the other three count as 5.
    EXPECT_EQ(backend.total_distance(0), 1 + 3 * 5);
    EXPECT_EQ(backend.total_distance(4), 4 * 5);
    const auto& links = backend.calibration().links;
    EXPECT_EQ(backend.best_incident_cx_error(0), links[0].cx_error);
    EXPECT_EQ(backend.best_incident_cx_error(3), links[1].cx_error);
    EXPECT_EQ(backend.best_incident_cx_error(4), 1.0);
    ASSERT_EQ(backend.links(2).size(), 1u);
    EXPECT_EQ(backend.links(2)[0].id, 1);
    EXPECT_TRUE(backend.links(4).empty());
    // Across the islands there is no link: the fallbacks apply.
    EXPECT_EQ(backend.find_link(1, 2), nullptr);
    EXPECT_EQ(backend.cx_error(1, 2), 0.02);
}

TEST(Backend, CalibrationMustCoverEveryQubitAndLink)
{
    graph::UndirectedGraph topology(3);
    topology.add_edge(0, 1);
    graph::UndirectedGraph wider(3);
    wider.add_edge(0, 1);
    wider.add_edge(1, 2);
    EXPECT_DEATH(arch::Backend("short", wider,
                               arch::Calibration::synthesize(topology)),
                 "calibration does not cover the topology");
    EXPECT_DEATH(arch::Backend("small", topology,
                               arch::Calibration::synthesize(
                                   graph::UndirectedGraph(2))),
                 "calibration does not cover the topology");
}

}  // namespace
}  // namespace caqr
