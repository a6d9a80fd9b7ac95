#include "core/reuse_transform.h"

#include <numeric>
#include <queue>

#include "util/logging.h"

namespace caqr::core {

namespace {

using circuit::Circuit;
using circuit::GateKind;
using circuit::Instruction;

/// Deterministic Kahn topological order (smallest node id first).
std::vector<int>
stable_topological_order(const graph::Digraph& graph)
{
    const int n = graph.num_nodes();
    std::vector<int> remaining(static_cast<std::size_t>(n));
    std::priority_queue<int, std::vector<int>, std::greater<int>> ready;
    for (int u = 0; u < n; ++u) {
        remaining[u] = graph.in_degree(u);
        if (remaining[u] == 0) ready.push(u);
    }
    std::vector<int> order;
    order.reserve(static_cast<std::size_t>(n));
    while (!ready.empty()) {
        const int u = ready.top();
        ready.pop();
        order.push_back(u);
        for (int v : graph.successors(u)) {
            if (--remaining[v] == 0) ready.push(v);
        }
    }
    CAQR_CHECK(static_cast<int>(order.size()) == n,
               "reuse transform requires an acyclic extended DAG");
    return order;
}

}  // namespace

TransformResult
apply_reuse(const Circuit& input, ReusePair pair, std::vector<int> orig_of)
{
    const circuit::CircuitDag dag(input);
    CAQR_CHECK(is_valid_reuse_pair(dag, pair.source, pair.target),
               "apply_reuse called with an invalid pair");
    if (orig_of.empty()) {
        orig_of.resize(static_cast<std::size_t>(input.num_qubits()));
        std::iota(orig_of.begin(), orig_of.end(), 0);
    }
    CAQR_CHECK(static_cast<int>(orig_of.size()) == input.num_qubits(),
               "orig_of size mismatch");

    // Extended DAG with the measurement/reset dummy node.
    graph::Digraph extended = dag.graph();
    const int dummy = extended.add_node();
    for (int node : dag.nodes_on_qubit(pair.source)) {
        extended.add_edge(node, dummy);
    }
    for (int node : dag.nodes_on_qubit(pair.target)) {
        extended.add_edge(dummy, node);
    }
    const auto order = stable_topological_order(extended);

    // Does the source wire already end in a measurement?
    const auto& source_nodes = dag.nodes_on_qubit(pair.source);
    int source_measure_clbit = -1;
    if (!source_nodes.empty()) {
        const Instruction& last = input.at(
            static_cast<std::size_t>(source_nodes.back()));
        if (last.kind == GateKind::kMeasure) {
            source_measure_clbit = last.clbit;
        }
    }

    // Wire compaction: drop the target wire, shift higher wires down.
    auto new_wire = [&](int q) {
        if (q == pair.target) return -1;  // handled via remap to source
        return q > pair.target ? q - 1 : q;
    };
    const int source_wire = new_wire(pair.source);

    Circuit output(input.num_qubits() - 1, input.num_clbits());
    output.copy_params_from(input);
    for (int node : order) {
        if (node == dummy) {
            int clbit = source_measure_clbit;
            if (clbit < 0) {
                // Source wire never measured: measure into a scratch bit
                // so the conditional reset has a condition to read.
                clbit = output.add_clbit();
                output.measure(source_wire, clbit);
            }
            output.x_if(source_wire, clbit, 1);
            continue;
        }
        Instruction instr = input.at(static_cast<std::size_t>(node));
        for (auto& q : instr.qubits) {
            q = (q == pair.target) ? source_wire : new_wire(q);
        }
        output.append(std::move(instr));
    }

    TransformResult result;
    result.circuit = std::move(output);
    result.orig_of.resize(static_cast<std::size_t>(input.num_qubits() - 1));
    for (int q = 0; q < input.num_qubits(); ++q) {
        if (q == pair.target) continue;
        result.orig_of[static_cast<std::size_t>(new_wire(q))] =
            orig_of[static_cast<std::size_t>(q)];
    }
    return result;
}

}  // namespace caqr::core
