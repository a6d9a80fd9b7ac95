#include "graph/coloring.h"

#include <algorithm>
#include <numeric>
#include <set>

#include "util/logging.h"

namespace caqr::graph {

namespace {

/// Assigns the smallest color not used by any already-colored neighbor.
int
smallest_free_color(const UndirectedGraph& graph,
                    const std::vector<int>& color_of, int node)
{
    std::vector<bool> used;
    for (int nb : graph.neighbors(node)) {
        const int c = color_of[nb];
        if (c >= 0) {
            if (c >= static_cast<int>(used.size())) {
                used.resize(static_cast<std::size_t>(c) + 1, false);
            }
            used[c] = true;
        }
    }
    for (int c = 0; c < static_cast<int>(used.size()); ++c) {
        if (!used[c]) return c;
    }
    return static_cast<int>(used.size());
}

}  // namespace

Coloring
dsatur_coloring(const UndirectedGraph& graph)
{
    const int n = graph.num_nodes();
    Coloring result;
    result.color_of.assign(static_cast<std::size_t>(n), -1);
    if (n == 0) return result;

    // Saturation = number of distinct neighbor colors.
    std::vector<std::set<int>> neighbor_colors(static_cast<std::size_t>(n));
    for (int step = 0; step < n; ++step) {
        int best = -1;
        for (int u = 0; u < n; ++u) {
            if (result.color_of[u] >= 0) continue;
            if (best < 0) { best = u; continue; }
            const auto sat_u = neighbor_colors[u].size();
            const auto sat_b = neighbor_colors[best].size();
            if (sat_u > sat_b ||
                (sat_u == sat_b && graph.degree(u) > graph.degree(best))) {
                best = u;
            }
        }
        const int c = smallest_free_color(graph, result.color_of, best);
        result.color_of[best] = c;
        result.num_colors = std::max(result.num_colors, c + 1);
        for (int nb : graph.neighbors(best)) neighbor_colors[nb].insert(c);
    }
    return result;
}

namespace {

/// Branch-and-bound state for exact coloring.
struct ExactSearch
{
    const UndirectedGraph& graph;
    std::vector<int> order;      // nodes in descending degree
    std::vector<int> color_of;   // current partial assignment (by node id)
    Coloring best;               // best complete coloring found
    long long budget;

    bool
    run(std::size_t index, int colors_used)
    {
        if (budget-- <= 0) return false;  // exhausted; keep incumbent
        if (colors_used >= best.num_colors) return true;  // prune
        if (index == order.size()) {
            best.color_of = color_of;
            best.num_colors = colors_used;
            return true;
        }
        const int node = order[index];
        const int limit = std::min(colors_used + 1, best.num_colors - 1);
        for (int c = 0; c < limit; ++c) {
            bool ok = true;
            for (int nb : graph.neighbors(node)) {
                if (color_of[nb] == c) { ok = false; break; }
            }
            if (!ok) continue;
            color_of[node] = c;
            if (!run(index + 1, std::max(colors_used, c + 1))) {
                color_of[node] = -1;
                return false;
            }
            color_of[node] = -1;
        }
        return true;
    }
};

}  // namespace

Coloring
exact_coloring(const UndirectedGraph& graph, long long node_budget)
{
    const int n = graph.num_nodes();
    Coloring upper = dsatur_coloring(graph);
    if (n == 0 || upper.num_colors <= 1) return upper;

    std::vector<int> order(static_cast<std::size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
        return graph.degree(a) > graph.degree(b);
    });

    ExactSearch search{graph, order,
                       std::vector<int>(static_cast<std::size_t>(n), -1),
                       upper, node_budget};
    search.run(0, 0);
    return search.best;
}

}  // namespace caqr::graph
