#include "graph/digraph.h"

#include <algorithm>
#include <queue>

#include "util/logging.h"

namespace caqr::graph {

Digraph::Digraph(int num_nodes)
    : succ_(static_cast<std::size_t>(num_nodes)),
      pred_(static_cast<std::size_t>(num_nodes))
{
    CAQR_CHECK(num_nodes >= 0, "node count must be non-negative");
}

int
Digraph::add_node()
{
    succ_.emplace_back();
    pred_.emplace_back();
    return num_nodes() - 1;
}

void
Digraph::add_edge(int u, int v)
{
    CAQR_CHECK(u >= 0 && u < num_nodes(), "edge source out of range");
    CAQR_CHECK(v >= 0 && v < num_nodes(), "edge target out of range");
    succ_[u].push_back(v);
    pred_[v].push_back(u);
    ++num_edges_;
}

bool
Digraph::has_edge(int u, int v) const
{
    const auto& out = succ_[u];
    return std::find(out.begin(), out.end(), v) != out.end();
}

std::optional<std::vector<int>>
Digraph::topological_order() const
{
    const int n = num_nodes();
    std::vector<int> remaining(static_cast<std::size_t>(n));
    std::queue<int> ready;
    for (int u = 0; u < n; ++u) {
        remaining[u] = in_degree(u);
        if (remaining[u] == 0) ready.push(u);
    }

    std::vector<int> order;
    order.reserve(static_cast<std::size_t>(n));
    while (!ready.empty()) {
        const int u = ready.front();
        ready.pop();
        order.push_back(u);
        for (int v : succ_[u]) {
            if (--remaining[v] == 0) ready.push(v);
        }
    }
    if (static_cast<int>(order.size()) != n) return std::nullopt;
    return order;
}

bool
Digraph::has_cycle() const
{
    return !topological_order().has_value();
}

std::vector<bool>
Digraph::reachable_from(int source) const
{
    CAQR_CHECK(source >= 0 && source < num_nodes(), "source out of range");
    std::vector<bool> seen(static_cast<std::size_t>(num_nodes()), false);
    std::vector<int> stack = {source};
    // The source itself is only marked when re-entered via an edge.
    while (!stack.empty()) {
        const int u = stack.back();
        stack.pop_back();
        for (int v : succ_[u]) {
            if (!seen[v]) {
                seen[v] = true;
                stack.push_back(v);
            }
        }
    }
    return seen;
}

bool
Digraph::has_path(int u, int v) const
{
    return reachable_from(u)[static_cast<std::size_t>(v)];
}

std::vector<double>
Digraph::earliest_completion(const std::vector<double>& node_weight) const
{
    const int n = num_nodes();
    CAQR_CHECK(static_cast<int>(node_weight.size()) == n,
               "node weight vector size mismatch");
    auto order = topological_order();
    CAQR_CHECK(order.has_value(), "critical path requires a DAG");

    std::vector<double> finish(static_cast<std::size_t>(n), 0.0);
    for (int u : *order) {
        double start = 0.0;
        for (int p : pred_[u]) start = std::max(start, finish[p]);
        finish[u] = start + node_weight[u];
    }
    return finish;
}

std::vector<double>
Digraph::longest_from(const std::vector<double>& node_weight) const
{
    const int n = num_nodes();
    CAQR_CHECK(static_cast<int>(node_weight.size()) == n,
               "node weight vector size mismatch");
    auto order = topological_order();
    CAQR_CHECK(order.has_value(), "critical path requires a DAG");

    std::vector<double> tail(static_cast<std::size_t>(n), 0.0);
    for (auto it = order->rbegin(); it != order->rend(); ++it) {
        const int u = *it;
        double best = 0.0;
        for (int v : succ_[u]) best = std::max(best, tail[v]);
        tail[u] = best + node_weight[u];
    }
    return tail;
}

std::vector<double>
Digraph::latest_completion(const std::vector<double>& node_weight) const
{
    const int n = num_nodes();
    const auto tail = longest_from(node_weight);
    double total = 0.0;
    for (double t : tail) total = std::max(total, t);
    std::vector<double> latest(static_cast<std::size_t>(n), 0.0);
    for (int u = 0; u < n; ++u) {
        latest[u] = total - tail[u] + node_weight[u];
    }
    return latest;
}

double
Digraph::critical_path(const std::vector<double>& node_weight) const
{
    if (num_nodes() == 0) return 0.0;
    auto finish = earliest_completion(node_weight);
    return *std::max_element(finish.begin(), finish.end());
}

}  // namespace caqr::graph
