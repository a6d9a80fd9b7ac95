/**
 * @file
 * Reproduces paper Fig 14: QAOA depth-vs-qubit-usage tradeoff for
 * random and power-law problem graphs with 16, 32, and 128 vertices at
 * 30% density (64 is covered by the Fig 3 bench).
 *
 * Paper shape to check: QAOA saves at least half the qubits in the
 * extreme case; power-law graphs trade better than random graphs
 * (low-degree vertices retire cheaply); larger graphs have more
 * opportunity.
 */
#include <iostream>

#include "core/tradeoff.h"
#include "graph/generators.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

struct CaseSummary
{
    int original = 0;
    int min_qubits = 0;
    double duration_at_half = 0.0;  // duration factor at 50% saving
};

CaseSummary
run_case(const char* family, int n,
         const caqr::graph::UndirectedGraph& graph, int max_candidates)
{
    using namespace caqr;

    core::CommutingSpec spec;
    spec.interaction = graph;
    core::QsCommutingOptions options;
    options.max_candidates = max_candidates;

    const core::VersionSet points(
        core::qs_caqr_commuting_or(spec, options).value());

    util::Table table(
        {"qubits", "depth", "duration (dt)", "vs original"});
    table.set_title(std::string("Figure 14 (") + family + ", n=" +
                    std::to_string(n) + ", density=0.30)");
    const double base = points[0].duration_dt;
    for (const auto& point : points) {
        table.add_row(
            {util::Table::fmt(static_cast<long long>(point.qubits)),
             util::Table::fmt(static_cast<long long>(point.depth)),
             util::Table::fmt(point.duration_dt, 0),
             util::Table::fmt(point.duration_dt / base, 2) + "x"});
    }
    table.print(std::cout);
    std::cout << "\n";

    CaseSummary summary;
    summary.original = points[0].qubits;
    summary.min_qubits = points.back().qubits;
    summary.duration_at_half = 0.0;
    for (const auto& point : points) {
        if (point.qubits <= summary.original / 2 &&
            summary.duration_at_half == 0.0) {
            summary.duration_at_half = point.duration_dt / base;
        }
    }
    return summary;
}

}  // namespace

int
main()
{
    using namespace caqr;

    util::Table summary({"graph", "n", "original qubits", "min qubits",
                         "duration factor @50% saving"});
    summary.set_title("Figure 14 summary");

    const struct
    {
        int n;
        int max_candidates;
    } sizes[] = {{16, 32}, {32, 16}, {128, 4}};

    for (const auto& size : sizes) {
        for (const bool power_law : {true, false}) {
            util::Rng rng(9000u + static_cast<unsigned>(size.n) +
                          (power_law ? 1 : 0));
            const auto graph =
                power_law
                    ? graph::power_law_graph(size.n, 0.30, rng)
                    : graph::random_graph(size.n, 0.30, rng);
            const char* family =
                power_law ? "power-law" : "random";
            const auto s =
                run_case(family, size.n, graph, size.max_candidates);
            summary.add_row(
                {family, util::Table::fmt(static_cast<long long>(size.n)),
                 util::Table::fmt(static_cast<long long>(s.original)),
                 util::Table::fmt(static_cast<long long>(s.min_qubits)),
                 s.duration_at_half > 0.0
                     ? util::Table::fmt(s.duration_at_half, 2) + "x"
                     : "n/a"});
        }
    }
    summary.print(std::cout);
    return 0;
}
