/**
 * @file
 * Reference directed graph for the test oracles: topological ordering,
 * cycle detection, reachability, and weighted longest path (critical
 * path). `CircuitDag` (circuit_dag.h) is built on it, and so is the
 * gate-level commuting reuse check in oracle.h.
 *
 * Nodes are dense integer ids `0..num_nodes()-1`. Payloads live with the
 * callers; this class is purely structural.
 */
#ifndef CAQR_TESTS_DIGRAPH_H
#define CAQR_TESTS_DIGRAPH_H

#include <algorithm>
#include <cstdint>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace caqr::oracle {

/// Adjacency-list directed graph over dense integer node ids.
class Digraph
{
  public:
    Digraph() = default;

    /// Creates a graph with @p num_nodes isolated nodes.
    explicit Digraph(int num_nodes)
        : succ_(static_cast<std::size_t>(num_nodes)),
          pred_(static_cast<std::size_t>(num_nodes))
    {
        CAQR_CHECK(num_nodes >= 0, "node count must be non-negative");
    }

    /// Appends a node; returns its id.
    int
    add_node()
    {
        succ_.emplace_back();
        pred_.emplace_back();
        return num_nodes() - 1;
    }

    /// Adds edge u -> v. Parallel edges are permitted (the circuit DAG
    /// never creates them, but the reuse-dependence graph may).
    void
    add_edge(int u, int v)
    {
        CAQR_CHECK(u >= 0 && u < num_nodes(), "edge source out of range");
        CAQR_CHECK(v >= 0 && v < num_nodes(), "edge target out of range");
        succ_[u].push_back(v);
        pred_[v].push_back(u);
        ++num_edges_;
    }

    /// True if edge u -> v exists.
    bool
    has_edge(int u, int v) const
    {
        const auto& out = succ_[u];
        return std::find(out.begin(), out.end(), v) != out.end();
    }

    int num_nodes() const { return static_cast<int>(succ_.size()); }
    int num_edges() const { return num_edges_; }

    const std::vector<int>& successors(int u) const { return succ_[u]; }
    const std::vector<int>& predecessors(int u) const { return pred_[u]; }

    int in_degree(int u) const { return static_cast<int>(pred_[u].size()); }
    int out_degree(int u) const { return static_cast<int>(succ_[u].size()); }

    /// Kahn topological order, or std::nullopt if the graph has a cycle.
    std::optional<std::vector<int>>
    topological_order() const
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

    /// True if the graph contains a directed cycle.
    bool has_cycle() const { return !topological_order().has_value(); }

    /// Nodes reachable from @p source (excluding the source itself unless
    /// it lies on a cycle through itself).
    std::vector<bool>
    reachable_from(int source) const
    {
        CAQR_CHECK(source >= 0 && source < num_nodes(),
                   "source out of range");
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

    /// True if there is a directed path from @p u to @p v (u != v
    /// required for a meaningful answer; u == v returns true only via a
    /// cycle).
    bool
    has_path(int u, int v) const
    {
        return reachable_from(u)[static_cast<std::size_t>(v)];
    }

    /// Tests bit v of a bitset row (one 64-bit word per 64 node ids).
    static bool
    closure_bit(const std::vector<std::uint64_t>& row, int v)
    {
        return (row[static_cast<std::size_t>(v) >> 6] >>
                (static_cast<std::size_t>(v) & 63)) & 1;
    }

    /**
     * Weighted longest path (critical path) where each node carries
     * weight @p node_weight[id]. Returns the maximum over all paths of
     * the sum of node weights; 0 for an empty graph.
     * @pre graph is acyclic.
     */
    double
    critical_path(const std::vector<double>& node_weight) const
    {
        if (num_nodes() == 0) return 0.0;
        const auto finish = earliest_completion(node_weight);
        return *std::max_element(finish.begin(), finish.end());
    }

    /// Per-node earliest completion times under ASAP scheduling with the
    /// given node weights. entry[u] = longest node-weight sum of any path
    /// ending at (and including) u. @pre acyclic.
    std::vector<double>
    earliest_completion(const std::vector<double>& node_weight) const
    {
        const auto order = checked_order(node_weight);
        std::vector<double> finish(order.size(), 0.0);
        for (int u : order) {
            double start = 0.0;
            for (int p : pred_[u]) start = std::max(start, finish[p]);
            finish[u] = start + node_weight[u];
        }
        return finish;
    }

    /// Per-node latest completion times: latest[u] = critical_path -
    /// (longest path starting at u) + node_weight[u]. A node is on a
    /// critical path iff earliest[u] == latest[u]. @pre acyclic.
    std::vector<double>
    latest_completion(const std::vector<double>& node_weight) const
    {
        const auto tail = longest_from(node_weight);
        double total = 0.0;
        for (double t : tail) total = std::max(total, t);
        std::vector<double> latest(tail.size(), 0.0);
        for (std::size_t u = 0; u < tail.size(); ++u) {
            latest[u] = total - tail[u] + node_weight[u];
        }
        return latest;
    }

    /// Per-node longest weighted path *starting* at (and including) u:
    /// tail[u] = node_weight[u] + max over successors' tails. @pre
    /// acyclic.
    std::vector<double>
    longest_from(const std::vector<double>& node_weight) const
    {
        const auto order = checked_order(node_weight);
        std::vector<double> tail(order.size(), 0.0);
        for (auto it = order.rbegin(); it != order.rend(); ++it) {
            const int u = *it;
            double best = 0.0;
            for (int v : succ_[u]) best = std::max(best, tail[v]);
            tail[u] = best + node_weight[u];
        }
        return tail;
    }

  private:
    /// Topological order for the weighted passes, which need a DAG and
    /// one weight per node.
    std::vector<int>
    checked_order(const std::vector<double>& node_weight) const
    {
        CAQR_CHECK(static_cast<int>(node_weight.size()) == num_nodes(),
                   "node weight vector size mismatch");
        auto order = topological_order();
        CAQR_CHECK(order.has_value(), "critical path requires a DAG");
        return std::move(*order);
    }

    std::vector<std::vector<int>> succ_;
    std::vector<std::vector<int>> pred_;
    int num_edges_ = 0;
};

}  // namespace caqr::oracle

#endif  // CAQR_TESTS_DIGRAPH_H
