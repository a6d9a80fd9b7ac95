/**
 * @file
 * Reproduces paper Fig 13: for the regular applications Multiply_13,
 * System_9, and BV_10, the logical circuit depth and the final
 * hardware-mapped depth as the qubit budget shrinks.
 *
 * Paper shape to check: logical depth rises monotonically as qubits
 * drop; the *compiled* depth first improves or holds (reuse relieves
 * SWAP pressure), then degrades when saving becomes too aggressive —
 * the sweet spot sits in the middle.
 */
#include <iostream>

#include "apps/benchmarks.h"
#include "arch/backend.h"
#include "core/tradeoff.h"
#include "util/table.h"

namespace {

void
run_case(const std::string& name)
{
    using namespace caqr;
    const auto bench = apps::get_benchmark(name);
    if (!bench) {
        std::cerr << "unknown benchmark " << name << "\n";
        return;
    }
    const auto backend = arch::Backend::fake_mumbai();
    const core::VersionSet versions(core::qs_caqr_or(bench->circuit).value());
    const auto mapped = core::map_versions(versions, backend).value();

    util::Table table({"qubits", "logical depth", "compiled depth",
                       "compiled duration (dt)", "SWAPs"});
    table.set_title("Figure 13 (" + name + ")");
    for (std::size_t i = 0; i < versions.size(); ++i) {
        const auto& compiled = mapped[i];
        table.add_row(
            {util::Table::fmt(static_cast<long long>(versions[i].qubits)),
             util::Table::fmt(static_cast<long long>(versions[i].depth)),
             util::Table::fmt(static_cast<long long>(compiled.depth)),
             util::Table::fmt(compiled.duration_dt, 0),
             util::Table::fmt(static_cast<long long>(compiled.swaps_added))});
    }
    table.print(std::cout);

    // Sweet-spot report (minimum compiled depth over the sweep).
    std::size_t best = 0;
    for (std::size_t i = 0; i < mapped.size(); ++i) {
        if (mapped[i].depth < mapped[best].depth) best = i;
    }
    std::cout << name << ": compiled-depth sweet spot at "
              << versions[best].qubits << " qubits (original "
              << versions[0].qubits << ", minimum "
              << versions.back().qubits << ")\n\n";
}

}  // namespace

int
main()
{
    run_case("multiply_13");
    run_case("system_9");
    run_case("bv_10");
    return 0;
}
