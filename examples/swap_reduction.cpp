/**
 * @file
 * SR-CaQR example (paper Figs 4/5): the 5-qubit BV interaction star
 * has degree 4, but heavy-hex hardware caps at degree 3, so the
 * baseline transpiler must insert SWAPs. SR-CaQR's delayed mapping +
 * qubit reclamation fits the circuit with zero SWAPs on fewer physical
 * qubits — and the fidelity metrics follow.
 */
#include <iostream>

#include "apps/benchmarks.h"
#include "arch/backend.h"
#include "core/sr_caqr.h"
#include "sim/noise_model.h"
#include "sim/simulator.h"
#include "transpile/transpiler.h"
#include "util/table.h"

int
main()
{
    using namespace caqr;

    const auto backend = arch::Backend::fake_mumbai();
    const auto bv = apps::bv_circuit(5);

    const auto interaction = bv.interaction_graph();
    std::cout << "BV_5 interaction graph: max degree "
              << interaction.max_degree() << "; "
              << backend.name() << " coupling max degree "
              << backend.topology().max_degree() << "\n\n";

    // Baseline: Qiskit-L3-style layout + SABRE routing.
    const auto baseline = transpile::transpile_or(bv, backend).value();
    // SR-CaQR: dynamic-circuit-aware mapping.
    const auto sr = core::sr_caqr_or(bv, backend).value();

    util::Table table({"compiler", "SWAPs", "depth", "duration (dt)",
                       "phys qubits", "ESP"});
    table.set_title("BV_5 on FakeMumbai");
    table.add_row(
        {"baseline (no reuse)",
         util::Table::fmt(static_cast<long long>(baseline.swaps_added)),
         util::Table::fmt(static_cast<long long>(baseline.depth)),
         util::Table::fmt(baseline.duration_dt, 0),
         util::Table::fmt(static_cast<long long>(
             baseline.circuit.active_qubit_count())),
         util::Table::fmt(baseline.esp, 3)});
    table.add_row(
        {"SR-CaQR",
         util::Table::fmt(static_cast<long long>(sr.swaps_added)),
         util::Table::fmt(static_cast<long long>(sr.depth)),
         util::Table::fmt(sr.duration_dt, 0),
         util::Table::fmt(
             static_cast<long long>(sr.physical_qubits_used)),
         util::Table::fmt(sr.esp, 3)});
    table.print(std::cout);

    // Noisy end-to-end check.
    const auto noise = sim::NoiseModel::from_backend(backend);
    const auto expected = apps::bv_expected(5);
    auto success = [&](const circuit::Circuit& circuit) {
        const auto counts =
            sim::simulate(circuit, {.shots = 4000, .seed = 99}, noise);
        double hits = 0.0;
        double total = 0.0;
        for (const auto& [key, count] : counts) {
            total += count;
            if (key.substr(0, expected.size()) == expected) hits += count;
        }
        return hits / total;
    };
    std::cout << "\nnoisy success rate: baseline "
              << util::Table::fmt(100.0 * success(baseline.circuit), 1)
              << "%, SR-CaQR "
              << util::Table::fmt(100.0 * success(sr.circuit), 1)
              << "%\n";
    return 0;
}
