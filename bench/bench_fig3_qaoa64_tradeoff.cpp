/**
 * @file
 * Reproduces paper Fig 3: qubit-usage vs circuit-depth tradeoff for
 * 64-qubit QAOA on a power-law graph and a random graph, both at 30%
 * density.
 *
 * Paper shape to check: heavy-tail curves; the power-law input saves
 * >80% of qubits within ~25% added duration; the random input saves
 * ~33% within ~20% added duration.
 */
#include <iostream>

#include "core/tradeoff.h"
#include "graph/generators.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

void
run_case(const char* label, const caqr::graph::UndirectedGraph& graph)
{
    using namespace caqr;

    core::CommutingSpec spec;
    spec.interaction = graph;
    core::QsCommutingOptions options;
    options.max_candidates = 10;  // bound compile time at this scale

    const core::VersionSet points(
        core::qs_caqr_commuting_or(spec, options).value());

    util::Table table({"qubits", "depth", "duration (dt)",
                       "duration vs original"});
    table.set_title(std::string("Figure 3 (") + label +
                    ", n=64, density=0.30)");
    const double base = points[0].duration_dt;
    for (const auto& point : points) {
        table.add_row({util::Table::fmt(
                           static_cast<long long>(point.qubits)),
                       util::Table::fmt(static_cast<long long>(
                           point.depth)),
                       util::Table::fmt(point.duration_dt, 0),
                       util::Table::fmt(
                           point.duration_dt / base, 2) +
                           "x"});
    }
    table.print(std::cout);

    // Headline checkpoints.
    const int original = points[0].qubits;
    int qubits_within_25pct = original;
    for (const auto& point : points) {
        if (point.duration_dt <= 1.25 * base) {
            qubits_within_25pct = point.qubits;
        }
    }
    std::cout << label << ": min qubits reached = "
              << points.back().qubits << " ("
              << util::Table::fmt(
                     100.0 * (original - points.back().qubits) / original,
                     1)
              << "% saving); qubits reachable within +25% duration = "
              << qubits_within_25pct << "\n\n";
}

}  // namespace

int
main()
{
    using namespace caqr;
    util::Rng rng_pl(64001);
    util::Rng rng_er(64002);

    const auto power_law = graph::power_law_graph(64, 0.30, rng_pl);
    const auto random = graph::random_graph(64, 0.30, rng_er);

    run_case("power-law graph", power_law);
    run_case("random graph", random);
    return 0;
}
