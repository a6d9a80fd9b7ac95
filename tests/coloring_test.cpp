/// Tests for graph coloring (the commuting min-qubit bound).
#include <gtest/gtest.h>

#include "coloring.h"
#include "graph/coloring.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace caqr {
namespace {

using graph::Coloring;
using graph::UndirectedGraph;

UndirectedGraph
complete_graph(int n)
{
    UndirectedGraph g(n);
    for (int u = 0; u < n; ++u) {
        for (int v = u + 1; v < n; ++v) g.add_edge(u, v);
    }
    return g;
}

UndirectedGraph
cycle_graph(int n)
{
    UndirectedGraph g(n);
    for (int u = 0; u < n; ++u) g.add_edge(u, (u + 1) % n);
    return g;
}

UndirectedGraph
petersen_graph()
{
    UndirectedGraph g(10);
    for (int i = 0; i < 5; ++i) {
        g.add_edge(i, (i + 1) % 5);        // outer pentagon
        g.add_edge(5 + i, 5 + (i + 2) % 5);  // inner pentagram
        g.add_edge(i, 5 + i);              // spokes
    }
    return g;
}

TEST(Coloring, CompleteGraphNeedsNColors)
{
    for (int n : {2, 3, 4, 5, 6}) {
        const auto g = complete_graph(n);
        EXPECT_EQ(graph::exact_coloring(g).num_colors, n);
        EXPECT_EQ(graph::dsatur_coloring(g).num_colors, n);
        EXPECT_EQ(oracle::greedy_coloring(g).num_colors, n);
    }
}

TEST(Coloring, EvenCycleIsBipartite)
{
    const auto g = cycle_graph(8);
    EXPECT_EQ(graph::exact_coloring(g).num_colors, 2);
    EXPECT_EQ(graph::dsatur_coloring(g).num_colors, 2);
}

TEST(Coloring, OddCycleNeedsThree)
{
    const auto g = cycle_graph(7);
    EXPECT_EQ(graph::exact_coloring(g).num_colors, 3);
}

TEST(Coloring, PetersenIsThreeChromatic)
{
    EXPECT_EQ(graph::exact_coloring(petersen_graph()).num_colors, 3);
}

TEST(Coloring, EmptyAndSingleton)
{
    EXPECT_EQ(graph::exact_coloring(UndirectedGraph(0)).num_colors, 0);
    EXPECT_EQ(graph::dsatur_coloring(UndirectedGraph(1)).num_colors, 1);
    // Edgeless graph: one color for everyone.
    EXPECT_EQ(oracle::greedy_coloring(UndirectedGraph(5)).num_colors, 1);
}

TEST(Coloring, StarGraphNeedsTwo)
{
    UndirectedGraph g(6);
    for (int leaf = 1; leaf < 6; ++leaf) g.add_edge(0, leaf);
    EXPECT_EQ(graph::exact_coloring(g).num_colors, 2);
}

/// Property sweep: all three algorithms produce proper colorings on
/// random graphs and exact <= dsatur <= greedy-ish ordering holds.
class ColoringProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(ColoringProperty, ProperAndOrdered)
{
    util::Rng rng(1000 + GetParam());
    const int n = 4 + GetParam() % 9;
    const double density = 0.2 + 0.06 * (GetParam() % 10);
    const auto g = graph::random_graph(n, density, rng);

    const auto greedy = oracle::greedy_coloring(g);
    const auto dsatur = graph::dsatur_coloring(g);
    const auto exact = graph::exact_coloring(g);

    EXPECT_TRUE(oracle::is_proper_coloring(g, greedy));
    EXPECT_TRUE(oracle::is_proper_coloring(g, dsatur));
    EXPECT_TRUE(oracle::is_proper_coloring(g, exact));
    EXPECT_LE(exact.num_colors, dsatur.num_colors);
    EXPECT_LE(exact.num_colors, greedy.num_colors);
    // Chromatic number is at least clique-ish lower bound: any edge
    // forces 2 colors.
    if (g.num_edges() > 0) {
        EXPECT_GE(exact.num_colors, 2);
    }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, ColoringProperty,
                         ::testing::Range(0, 25));

}  // namespace
}  // namespace caqr
