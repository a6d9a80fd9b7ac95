/**
 * @file
 * Graph coloring for the commuting-circuit minimum-qubit bound
 * (paper §3.2.2 "Maximal Qubit Saving"): qubits sharing a color never
 * interact, so one physical qubit can serve all of them sequentially.
 *
 * Two algorithms are provided: DSATUR (fast, typically tight) and an
 * exact branch-and-bound usable on small graphs.
 */
#ifndef CAQR_GRAPH_COLORING_H
#define CAQR_GRAPH_COLORING_H

#include <vector>

#include "graph/undirected_graph.h"

namespace caqr::graph {

/// A proper vertex coloring: color id per node plus the color count.
struct Coloring
{
    std::vector<int> color_of;  ///< color id per node, dense 0..num_colors-1
    int num_colors = 0;
};

/// DSATUR coloring (Brélaz). Exact on many structured graphs.
Coloring dsatur_coloring(const UndirectedGraph& graph);

/**
 * Exact minimum coloring via branch and bound seeded with the DSATUR
 * upper bound. Exponential worst case; @p node_budget bounds the search
 * (when exhausted the best coloring found so far — at worst the DSATUR
 * one — is returned, so the result is always proper, merely possibly
 * suboptimal).
 */
Coloring exact_coloring(const UndirectedGraph& graph,
                        long long node_budget = 2'000'000);

}  // namespace caqr::graph

#endif  // CAQR_GRAPH_COLORING_H
