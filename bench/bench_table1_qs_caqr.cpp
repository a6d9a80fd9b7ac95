/**
 * @file
 * Reproduces paper Table 1: for each benchmark, the hardware-mapped
 * qubit count / depth / duration / SWAP count of (a) the no-reuse
 * baseline, (b) QS-CaQR with maximal reuse, and (c) QS-CaQR tuned for
 * minimal depth.
 *
 * Paper shape to check: maximal reuse trades depth/duration for large
 * qubit savings; the minimal-depth version saves a moderate number of
 * qubits while often *beating* the baseline depth/duration ("better
 * than the baseline surprisingly ... in a lot of cases").
 */
#include <iostream>
#include <vector>

#include "apps/benchmarks.h"
#include "core/tradeoff.h"
#include "graph/generators.h"
#include "service/service.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace caqr;

/// One hardware-mapped version.
struct Point
{
    int qubits = 0;
    int compiled_depth = 0;
    double compiled_duration_dt = 0.0;
    int swaps = 0;
};

struct Row
{
    std::string name;
    Point baseline;
    Point max_reuse;
    Point min_depth;
};

/// Maps every version of @p versions and picks the table's three.
Row
summarize(const std::string& name, const core::VersionSet& versions,
          const arch::Backend& backend, bool keep_rzz)
{
    transpile::TranspileOptions options;
    options.keep_rzz = keep_rzz;
    const auto mapped = core::map_versions(versions, backend, options).value();
    std::vector<Point> points;
    for (std::size_t i = 0; i < mapped.size(); ++i) {
        const auto& compiled = mapped[i];
        points.push_back({versions[i].qubits, compiled.depth,
                          compiled.duration_dt, compiled.swaps_added});
    }
    Row row;
    row.name = name;
    row.baseline = points.front();
    row.max_reuse = points.back();
    row.min_depth = points.front();
    for (const auto& point : points) {
        if (point.compiled_depth < row.min_depth.compiled_depth) {
            row.min_depth = point;
        }
    }
    return row;
}

void
print_section(const char* title, const std::vector<Row>& rows,
              Point Row::*member)
{
    util::Table table(
        {"benchmark", "qubits", "depth", "duration (dt)", "SWAP"});
    table.set_title(title);
    for (const auto& row : rows) {
        const auto& point = row.*member;
        table.add_row(
            {row.name,
             util::Table::fmt(static_cast<long long>(point.qubits)),
             util::Table::fmt(static_cast<long long>(point.compiled_depth)),
             util::Table::fmt(point.compiled_duration_dt, 0),
             util::Table::fmt(static_cast<long long>(point.swaps))});
    }
    table.print(std::cout);
    std::cout << "\n";
}

}  // namespace

int
main()
{
    // The sweeps need every budget level, so they map every version
    // with core::map_versions — but the backend (coupling graph + APSP
    // distance matrix) comes from the service's shared cache.
    Service service;
    const auto backend_or = service.backend("FakeMumbai");
    if (!backend_or.ok()) {
        std::cerr << "error: " << backend_or.status().to_string()
                  << "\n";
        return 1;
    }
    const arch::Backend& backend = **backend_or;
    std::vector<Row> rows;

    for (const auto& name : apps::regular_benchmark_names()) {
        const auto bench = apps::get_benchmark(name);
        const core::VersionSet versions(
            core::qs_caqr_or(bench->circuit).value());
        rows.push_back(
            summarize(name, versions, backend, /*keep_rzz=*/false));
    }

    for (int n : {5, 10, 15, 20, 25}) {
        util::Rng rng(1000u + static_cast<unsigned>(n));
        core::CommutingSpec spec;
        spec.interaction = graph::random_graph(n, 0.30, rng);
        core::QsCommutingOptions options;
        options.max_candidates = n <= 15 ? 24 : 12;
        const core::VersionSet versions(
            core::qs_caqr_commuting_or(spec, options).value());
        rows.push_back(summarize("qaoa" + std::to_string(n) + "-0.3",
                                 versions, backend, /*keep_rzz=*/true));
    }

    print_section("Table 1 — Baseline (no reuse)", rows, &Row::baseline);
    print_section("Table 1 — QS-CaQR, maximal reuse", rows,
                  &Row::max_reuse);
    print_section("Table 1 — QS-CaQR, minimal depth", rows,
                  &Row::min_depth);
    return 0;
}
