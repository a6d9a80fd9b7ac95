/// Unit tests for the reference digraph (tests/digraph.h) and the
/// undirected graph.
#include <gtest/gtest.h>

#include <algorithm>

#include "digraph.h"
#include "graph/undirected_graph.h"
#include "oracle.h"

namespace caqr {
namespace {

using oracle::Digraph;
using graph::UndirectedGraph;

TEST(Digraph, BasicConstruction)
{
    Digraph g(3);
    EXPECT_EQ(g.num_nodes(), 3);
    EXPECT_EQ(g.num_edges(), 0);
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    EXPECT_EQ(g.num_edges(), 2);
    EXPECT_TRUE(g.has_edge(0, 1));
    EXPECT_FALSE(g.has_edge(1, 0));
    EXPECT_EQ(g.in_degree(2), 1);
    EXPECT_EQ(g.out_degree(0), 1);
}

TEST(Digraph, AddNodeGrows)
{
    Digraph g;
    EXPECT_EQ(g.add_node(), 0);
    EXPECT_EQ(g.add_node(), 1);
    g.add_edge(0, 1);
    EXPECT_TRUE(g.has_edge(0, 1));
}

TEST(Digraph, TopologicalOrderRespectsEdges)
{
    Digraph g(5);
    g.add_edge(0, 2);
    g.add_edge(1, 2);
    g.add_edge(2, 3);
    g.add_edge(3, 4);
    auto order = g.topological_order();
    ASSERT_TRUE(order.has_value());
    std::vector<int> position(5);
    for (int i = 0; i < 5; ++i) position[(*order)[i]] = i;
    EXPECT_LT(position[0], position[2]);
    EXPECT_LT(position[1], position[2]);
    EXPECT_LT(position[2], position[3]);
    EXPECT_LT(position[3], position[4]);
}

TEST(Digraph, CycleDetection)
{
    Digraph g(3);
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    EXPECT_FALSE(g.has_cycle());
    g.add_edge(2, 0);
    EXPECT_TRUE(g.has_cycle());
    EXPECT_FALSE(g.topological_order().has_value());
}

TEST(Digraph, SelfLoopIsCycle)
{
    Digraph g(2);
    g.add_edge(0, 0);
    EXPECT_TRUE(g.has_cycle());
}

TEST(Digraph, Reachability)
{
    Digraph g(4);
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    auto reach = g.reachable_from(0);
    EXPECT_TRUE(reach[1]);
    EXPECT_TRUE(reach[2]);
    EXPECT_FALSE(reach[3]);
    EXPECT_FALSE(reach[0]);  // not reachable from itself in a DAG
    EXPECT_TRUE(g.has_path(0, 2));
    EXPECT_FALSE(g.has_path(2, 0));
}

TEST(Digraph, TransitiveClosureMatchesHasPath)
{
    Digraph g(6);
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    g.add_edge(2, 3);
    g.add_edge(4, 3);
    g.add_edge(1, 4);
    auto closure = oracle::transitive_closure(g);
    for (int u = 0; u < 6; ++u) {
        for (int v = 0; v < 6; ++v) {
            EXPECT_EQ(Digraph::closure_bit(closure[u], v),
                      g.has_path(u, v))
                << "u=" << u << " v=" << v;
        }
    }
}

TEST(Digraph, CriticalPathUnitWeights)
{
    // Chain 0->1->2 plus a parallel node 3: longest path = 3 nodes.
    Digraph g(4);
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    std::vector<double> w = {1, 1, 1, 1};
    EXPECT_DOUBLE_EQ(g.critical_path(w), 3.0);
}

TEST(Digraph, CriticalPathWeighted)
{
    Digraph g(4);
    g.add_edge(0, 1);
    g.add_edge(0, 2);
    g.add_edge(1, 3);
    g.add_edge(2, 3);
    std::vector<double> w = {1.0, 10.0, 2.0, 1.0};
    // Path 0-1-3 dominates: 1 + 10 + 1 = 12.
    EXPECT_DOUBLE_EQ(g.critical_path(w), 12.0);
}

TEST(Digraph, EarliestAndLatestCompletion)
{
    Digraph g(3);
    g.add_edge(0, 2);
    g.add_edge(1, 2);
    std::vector<double> w = {5.0, 1.0, 1.0};
    auto earliest = g.earliest_completion(w);
    EXPECT_DOUBLE_EQ(earliest[0], 5.0);
    EXPECT_DOUBLE_EQ(earliest[1], 1.0);
    EXPECT_DOUBLE_EQ(earliest[2], 6.0);
    auto latest = g.latest_completion(w);
    EXPECT_DOUBLE_EQ(latest[0], 5.0);   // critical
    EXPECT_DOUBLE_EQ(latest[1], 5.0);   // 4 units of slack
    EXPECT_DOUBLE_EQ(latest[2], 6.0);
}

TEST(Digraph, EmptyGraphCriticalPathIsZero)
{
    Digraph g;
    EXPECT_DOUBLE_EQ(g.critical_path({}), 0.0);
}

TEST(UndirectedGraph, EdgesAndDegrees)
{
    UndirectedGraph g(4);
    EXPECT_TRUE(g.add_edge(0, 1));
    EXPECT_TRUE(g.add_edge(1, 2));
    EXPECT_FALSE(g.add_edge(1, 0));  // duplicate
    EXPECT_FALSE(g.add_edge(2, 2));  // self loop
    EXPECT_EQ(g.num_edges(), 2);
    EXPECT_EQ(g.degree(1), 2);
    EXPECT_EQ(g.max_degree(), 2);
    EXPECT_TRUE(g.has_edge(2, 1));
}

TEST(UndirectedGraph, RemoveEdge)
{
    UndirectedGraph g(3);
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    EXPECT_TRUE(g.remove_edge(1, 0));
    EXPECT_FALSE(g.has_edge(0, 1));
    EXPECT_FALSE(g.remove_edge(0, 1));
    EXPECT_EQ(g.num_edges(), 1);
    EXPECT_EQ(g.degree(1), 1);
}

TEST(UndirectedGraph, BfsDistances)
{
    // Path 0-1-2-3 plus isolated 4.
    UndirectedGraph g(5);
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    g.add_edge(2, 3);
    auto dist = g.bfs_distances(0);
    EXPECT_EQ(dist[0], 0);
    EXPECT_EQ(dist[1], 1);
    EXPECT_EQ(dist[2], 2);
    EXPECT_EQ(dist[3], 3);
    EXPECT_EQ(dist[4], -1);
}

TEST(UndirectedGraph, AllPairsSymmetric)
{
    UndirectedGraph g(4);
    g.add_edge(0, 1);
    g.add_edge(1, 2);
    g.add_edge(2, 3);
    g.add_edge(3, 0);
    auto dist = g.all_pairs_distances();
    for (int u = 0; u < 4; ++u) {
        EXPECT_EQ(dist[u][u], 0);
        for (int v = 0; v < 4; ++v) EXPECT_EQ(dist[u][v], dist[v][u]);
    }
    EXPECT_EQ(dist[0][2], 2);
}

TEST(UndirectedGraph, Connectivity)
{
    UndirectedGraph g(3);
    EXPECT_FALSE(g.is_connected());
    g.add_edge(0, 1);
    EXPECT_FALSE(g.is_connected());
    g.add_edge(1, 2);
    EXPECT_TRUE(g.is_connected());
    EXPECT_TRUE(UndirectedGraph(0).is_connected());
    EXPECT_TRUE(UndirectedGraph(1).is_connected());
}

}  // namespace
}  // namespace caqr
