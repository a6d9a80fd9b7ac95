/**
 * @file
 * Quickstart: the paper's Fig 1 walkthrough, driven through the batch
 * compilation service. Build a 5-qubit Bernstein–Vazirani circuit and
 * submit one batch with three requests: the logical baseline (for the
 * depth comparison), QS-CaQR at the logical level with simulation
 * (verify the dynamic circuit still recovers the secret), and QS-CaQR
 * mapped onto a fake 27-qubit backend (layout + SABRE routing).
 *
 * Runs with tracing on; set `CAQR_TRACE` (see util/trace.h) to also
 * leave `quickstart.trace.json` (load in chrome://tracing) plus
 * `quickstart.metrics.csv` behind — under the env value's path prefix
 * — as a machine-readable record of the run. Without the variable the
 * walkthrough stays artifact-free, so running it never litters (or
 * clobbers files in) the working directory.
 */
#include <iostream>

#include "apps/benchmarks.h"
#include "qasm/printer.h"
#include "service/service.h"
#include "util/metrics.h"
#include "util/trace.h"

int
main()
{
    using namespace caqr;

    util::trace::set_enabled(true);

    // 1. The original BV circuit: 5 qubits, secret 1111.
    const auto bv = apps::bv_circuit(5);
    std::cout << "Original circuit uses " << bv.active_qubit_count()
              << " qubits:\n" << bv.to_string() << "\n";

    // 2. One service, one batch, three pipelines.
    Service service;

    CompileRequest baseline;
    baseline.name = "bv_5/baseline";
    baseline.circuit = bv;
    baseline.strategy = Strategy::kBaseline;
    baseline.map_to_backend = false;

    CompileRequest reuse = baseline;
    reuse.name = "bv_5/qs_caqr";
    reuse.strategy = Strategy::kQsCaqr;
    reuse.simulate = true;
    reuse.sim = {.shots = 1024, .seed = 7};

    CompileRequest mapped = baseline;
    mapped.name = "bv_5/qs_caqr+map";
    mapped.strategy = Strategy::kQsCaqr;
    mapped.map_to_backend = true;
    mapped.backend = "FakeMumbai";

    const auto reports = service.compile_batch({baseline, reuse, mapped});
    for (const auto& report : reports) {
        if (!report.ok()) {
            std::cerr << "error: " << report.name << ": "
                      << report.status.to_string() << "\n";
            return 1;
        }
    }

    // 3. QS-CaQR squeezed the circuit via mid-circuit measurement +
    // conditional reset.
    const auto& logical = reports[1];
    std::cout << "QS-CaQR applied " << logical.reuses
              << " reuse steps; minimal version uses " << logical.qubits
              << " qubits (depth " << logical.depth << " vs "
              << reports[0].depth << " originally).\n";

    // 4. The same reuse pipeline, hardware-mapped.
    const auto& hw = reports[2];
    std::cout << "\nTranspiled onto " << hw.backend << ": depth "
              << hw.depth << ", " << hw.swaps
              << " swaps added, ESP " << hw.esp << ".\n";

    // 5. Verify: the dynamic circuit still recovers the secret.
    std::cout << "\nSimulated " << logical.qubits
              << "-qubit dynamic circuit (1024 shots):\n";
    for (const auto& [key, count] : logical.counts) {
        std::cout << "  " << key << ": " << count << "\n";
    }
    std::cout << "expected: " << apps::bv_expected(5) << "\n";

    // 6. Export as OpenQASM 2.0 (with the dynamic-circuit `if`
    // extension).
    std::cout << "\nOpenQASM:\n" << qasm::to_qasm(logical.compiled);

    // 7. Optionally dump the per-run observability record —
    // Chrome-trace JSON for chrome://tracing plus a flat CSV metrics
    // summary — honoring the CAQR_TRACE prefix convention instead of
    // unconditionally writing into the working directory.
    if (util::trace::write_env_artifacts(
            "quickstart", util::metrics::global().snapshot())) {
        std::cout << "\nTrace artifacts: quickstart.trace.json, "
                     "quickstart.metrics.csv\n";
    }
    return 0;
}
