/**
 * @file
 * Tradeoff-explorer example: run the reuse advisor on each built-in
 * benchmark, compile the whole suite through the batch service for a
 * hardware-level summary, then sweep the full qubit budget for one
 * benchmark and print the qubits / depth / duration / SWAP Pareto
 * table a user would consult before picking a version for their
 * device.
 */
#include <iostream>

#include "apps/benchmarks.h"
#include "core/reuse_analysis.h"
#include "core/tradeoff.h"
#include "service/service.h"
#include "util/metrics.h"
#include "util/table.h"
#include "util/trace.h"

int
main(int argc, char** argv)
{
    using namespace caqr;

    // 1. Advisor pass over the whole suite: "is reuse worth it here?"
    util::Table advice_table({"benchmark", "qubits", "min qubits",
                              "orig depth", "max-reuse depth",
                              "reuse?"});
    advice_table.set_title("Reuse advisor");
    for (const auto& name : apps::regular_benchmark_names()) {
        const auto bench = apps::get_benchmark(name);
        const auto advice = core::advise_reuse(bench->circuit);
        advice_table.add_row(
            {name,
             util::Table::fmt(static_cast<long long>(advice.active_qubits)),
             util::Table::fmt(
                 static_cast<long long>(advice.min_qubits_estimate)),
             util::Table::fmt(
                 static_cast<long long>(advice.original_depth)),
             util::Table::fmt(
                 static_cast<long long>(advice.max_reuse_depth)),
             advice.any_opportunity ? "yes" : "no"});
    }
    advice_table.print(std::cout);

    // 2. One batch through the compilation service: every benchmark,
    // maximal reuse, mapped onto the shared FakeMumbai backend (built
    // once, cached for the whole batch).
    Service service;
    std::vector<CompileRequest> requests;
    for (const auto& name : apps::regular_benchmark_names()) {
        CompileRequest request;
        request.name = name;
        request.circuit = apps::get_benchmark(name)->circuit;
        request.strategy = Strategy::kQsCaqr;
        request.backend = "FakeMumbai";
        requests.push_back(std::move(request));
    }
    const auto reports = service.compile_batch(requests);

    util::Table suite({"benchmark", "qubits", "reuse qubits",
                       "compiled depth", "SWAPs", "ESP"});
    suite.set_title("\nSuite compile (qs_caqr on FakeMumbai)");
    for (const auto& report : reports) {
        if (!report.ok()) {
            std::cerr << "error: " << report.name << ": "
                      << report.status.to_string() << "\n";
            return 1;
        }
        suite.add_row(
            {report.name,
             util::Table::fmt(static_cast<long long>(report.logical_qubits)),
             util::Table::fmt(static_cast<long long>(report.qubits)),
             util::Table::fmt(static_cast<long long>(report.depth)),
             util::Table::fmt(static_cast<long long>(report.swaps)),
             util::Table::fmt(report.esp, 4)});
    }
    suite.print(std::cout);

    // 3. Full budget sweep for one benchmark (default bv_10), reusing
    // the service's cached backend instead of rebuilding the coupling
    // graph + distance matrix.
    const std::string target = argc > 1 ? argv[1] : "bv_10";
    const auto bench = apps::get_benchmark(target);
    if (!bench) {
        std::cerr << "unknown benchmark '" << target << "'\n";
        return 1;
    }
    const auto backend = service.backend("FakeMumbai");
    if (!backend.ok()) {
        std::cerr << "error: " << backend.status().to_string() << "\n";
        return 1;
    }
    const core::VersionSet versions(core::qs_caqr_or(bench->circuit).value());
    const auto mapped = core::map_versions(versions, **backend).value();

    util::Table sweep({"qubits", "logical depth", "compiled depth",
                       "compiled duration (dt)", "SWAPs"});
    sweep.set_title("\nBudget sweep: " + target + " on " +
                    (*backend)->name());
    for (std::size_t i = 0; i < versions.size(); ++i) {
        const auto& compiled = mapped[i];
        sweep.add_row(
            {util::Table::fmt(static_cast<long long>(versions[i].qubits)),
             util::Table::fmt(static_cast<long long>(versions[i].depth)),
             util::Table::fmt(static_cast<long long>(compiled.depth)),
             util::Table::fmt(compiled.duration_dt, 0),
             util::Table::fmt(static_cast<long long>(compiled.swaps_added))});
    }
    sweep.print(std::cout);

    // Opt-in observability: CAQR_TRACE=1 (cwd) or CAQR_TRACE=<prefix>
    // leaves tradeoff_explorer.trace.json / .metrics.csv behind.
    util::trace::write_env_artifacts("tradeoff_explorer",
                                     util::metrics::global().snapshot());
    return 0;
}
