/**
 * @file
 * Initial layout selection: assign each logical qubit a physical qubit
 * before routing. The greedy interaction-aware strategy mirrors what
 * Qiskit's dense/Sabre layouts achieve — high-degree logical qubits go
 * to well-connected physical qubits near the device center, subsequent
 * qubits minimize distance to their already-placed interaction
 * partners, with calibration-aware tie-breaking. Centrality comes
 * from the backend's precomputed per-qubit total distance, so placing
 * a seed costs O(device qubits), not O(device qubits²).
 */
#ifndef CAQR_TRANSPILE_LAYOUT_H
#define CAQR_TRANSPILE_LAYOUT_H

#include <vector>

#include "arch/backend.h"
#include "circuit/circuit.h"

namespace caqr::transpile {

/// layout[logical] = physical. Logical qubits beyond the circuit's
/// active set still receive distinct physical ids.
using Layout = std::vector<int>;

/// Identity layout (logical i -> physical i).
Layout trivial_layout(const circuit::Circuit& circuit,
                      const arch::Backend& backend);

/// Greedy interaction-graph-aware layout (see file comment).
Layout greedy_layout(const circuit::Circuit& circuit,
                     const arch::Backend& backend);

/// True if @p layout is injective and within backend bounds.
bool is_valid_layout(const Layout& layout, const circuit::Circuit& circuit,
                     const arch::Backend& backend);

}  // namespace caqr::transpile

#endif  // CAQR_TRANSPILE_LAYOUT_H
