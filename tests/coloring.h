/**
 * @file
 * Reference colorings for the coloring tests: greedy largest-first, a
 * loose upper bound the DSATUR and exact colorings of
 * `graph/coloring.h` must match or beat, and a properness check.
 */
#ifndef CAQR_TESTS_COLORING_H
#define CAQR_TESTS_COLORING_H

#include <algorithm>
#include <numeric>
#include <vector>

#include "graph/coloring.h"
#include "graph/undirected_graph.h"

namespace caqr::oracle {

/// Greedy coloring in descending-degree order; each node takes the
/// smallest color no already-colored neighbor holds.
inline graph::Coloring
greedy_coloring(const graph::UndirectedGraph& graph)
{
    const int n = graph.num_nodes();
    std::vector<int> order(static_cast<std::size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return graph.degree(a) > graph.degree(b);
    });

    graph::Coloring result;
    result.color_of.assign(static_cast<std::size_t>(n), -1);
    for (int node : order) {
        std::vector<bool> used;
        for (int nb : graph.neighbors(node)) {
            const int c = result.color_of[nb];
            if (c < 0) continue;
            if (c >= static_cast<int>(used.size())) {
                used.resize(static_cast<std::size_t>(c) + 1, false);
            }
            used[c] = true;
        }
        const int c = static_cast<int>(
            std::find(used.begin(), used.end(), false) - used.begin());
        result.color_of[node] = c;
        result.num_colors = std::max(result.num_colors, c + 1);
    }
    return result;
}

/// Verifies that @p coloring is a proper coloring of @p graph.
inline bool
is_proper_coloring(const graph::UndirectedGraph& graph,
                   const graph::Coloring& coloring)
{
    if (static_cast<int>(coloring.color_of.size()) != graph.num_nodes()) {
        return false;
    }
    for (int c : coloring.color_of) {
        if (c < 0 || c >= coloring.num_colors) return false;
    }
    for (const auto& [u, v] : graph.edges()) {
        if (coloring.color_of[u] == coloring.color_of[v]) return false;
    }
    return true;
}

}  // namespace caqr::oracle

#endif  // CAQR_TESTS_COLORING_H
