#include "core/reuse_analysis.h"

#include "core/qs_caqr.h"
#include "core/reuse_transform.h"
#include "util/logging.h"

namespace caqr::core {

bool
is_valid_reuse_pair(const circuit::CircuitDag& dag, int source, int target)
{
    const auto& circuit = dag.circuit();
    if (source == target) return false;
    if (source < 0 || source >= circuit.num_qubits()) return false;
    if (target < 0 || target >= circuit.num_qubits()) return false;
    if (dag.nodes_on_qubit(source).empty() ||
        dag.nodes_on_qubit(target).empty()) {
        return false;
    }
    // Conditions 1 and 2: no gate on `target` is shared with, or
    // precedes, a gate on `source`.
    return !dag.qubit_reaches(target, source);
}

std::vector<ReusePair>
find_reuse_pairs(const circuit::CircuitDag& dag)
{
    std::vector<int> active;
    for (int q = 0; q < dag.circuit().num_qubits(); ++q) {
        if (!dag.nodes_on_qubit(q).empty()) active.push_back(q);
    }
    std::vector<ReusePair> pairs;
    for (int source : active) {
        for (int target : active) {
            if (source != target && !dag.qubit_reaches(target, source)) {
                pairs.push_back(ReusePair{source, target});
            }
        }
    }
    return pairs;
}

ReuseAdvice
advise_reuse(const circuit::Circuit& circuit)
{
    ReuseAdvice advice;
    advice.active_qubits = circuit.active_qubit_count();

    // The full QS-CaQR sweep is the most faithful probe: it explores
    // both greedy policies, so the estimate matches what the compiler
    // can actually deliver.
    const auto sweep = qs_caqr_or(circuit, QsCaqrOptions{}).value();
    advice.any_opportunity = sweep.versions.size() > 1;
    advice.original_depth = sweep.versions.front().depth;
    advice.min_qubits_estimate = sweep.versions.back().qubits;
    advice.max_reuse_depth = sweep.versions.back().depth;
    return advice;
}

}  // namespace caqr::core
