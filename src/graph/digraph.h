/**
 * @file
 * Directed graph with the algorithms the CaQR passes rely on:
 * topological ordering, cycle detection, reachability, and weighted
 * longest path (critical path).
 *
 * Nodes are dense integer ids `0..num_nodes()-1`. Payloads live with the
 * callers (e.g. `commuting_pairs_valid` maps node ids to gate
 * instances); this class is purely structural.
 */
#ifndef CAQR_GRAPH_DIGRAPH_H
#define CAQR_GRAPH_DIGRAPH_H

#include <cstdint>
#include <optional>
#include <vector>

namespace caqr::graph {

/// Adjacency-list directed graph over dense integer node ids.
class Digraph
{
  public:
    Digraph() = default;

    /// Creates a graph with @p num_nodes isolated nodes.
    explicit Digraph(int num_nodes);

    /// Appends a node; returns its id.
    int add_node();

    /// Adds edge u -> v. Parallel edges are permitted (the circuit DAG
    /// never creates them, but the reuse-dependence graph may).
    void add_edge(int u, int v);

    /// True if edge u -> v exists.
    bool has_edge(int u, int v) const;

    int num_nodes() const { return static_cast<int>(succ_.size()); }
    int num_edges() const { return num_edges_; }

    const std::vector<int>& successors(int u) const { return succ_[u]; }
    const std::vector<int>& predecessors(int u) const { return pred_[u]; }

    int in_degree(int u) const { return static_cast<int>(pred_[u].size()); }
    int out_degree(int u) const { return static_cast<int>(succ_[u].size()); }

    /// Kahn topological order, or std::nullopt if the graph has a cycle.
    std::optional<std::vector<int>> topological_order() const;

    /// True if the graph contains a directed cycle.
    bool has_cycle() const;

    /// Nodes reachable from @p source (excluding the source itself unless
    /// it lies on a cycle through itself).
    std::vector<bool> reachable_from(int source) const;

    /// True if there is a directed path from @p u to @p v (u != v
    /// required for a meaningful answer; u == v returns true only via a
    /// cycle).
    bool has_path(int u, int v) const;

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
    double critical_path(const std::vector<double>& node_weight) const;

    /// Per-node earliest completion times under ASAP scheduling with the
    /// given node weights. entry[u] = longest node-weight sum of any path
    /// ending at (and including) u. @pre acyclic.
    std::vector<double>
    earliest_completion(const std::vector<double>& node_weight) const;

    /// Per-node latest completion times: latest[u] = critical_path -
    /// (longest path starting at u) + node_weight[u]. A node is on a
    /// critical path iff earliest[u] == latest[u]. @pre acyclic.
    std::vector<double>
    latest_completion(const std::vector<double>& node_weight) const;

    /// Per-node longest weighted path *starting* at (and including) u:
    /// tail[u] = node_weight[u] + max over successors' tails. @pre
    /// acyclic.
    std::vector<double>
    longest_from(const std::vector<double>& node_weight) const;

  private:
    std::vector<std::vector<int>> succ_;
    std::vector<std::vector<int>> pred_;
    int num_edges_ = 0;
};

}  // namespace caqr::graph

#endif  // CAQR_GRAPH_DIGRAPH_H
