#include "core/reuse_analysis.h"

#include "core/qs_caqr.h"

namespace caqr::core {

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
