/**
 * @file
 * Reproduces paper Table 2: SR-CaQR versus QS-CaQR (MIN-SWAP) — for
 * each benchmark, the version of QS-CaQR with the fewest SWAPs across
 * all qubit-saving levels, against SR-CaQR's dynamic-circuit-aware
 * mapping. Both on the IBM Mumbai architecture.
 *
 * The SR-CaQR column goes through the batch compilation service (one
 * `CompileRequest` per benchmark, `Strategy::kSrCaqr`, all compiled
 * concurrently against the shared cached backend); the QS MIN-SWAP
 * column needs every version mapped (`core::map_versions`).
 *
 * Paper shape to check: SR-CaQR matches or beats QS-CaQR(MIN-SWAP)
 * SWAP counts on regular applications (e.g. zero SWAPs for 4mod5) and
 * wins more clearly on larger QAOA graphs, with duration following.
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

struct MinSwap
{
    int swaps = 0;
    double duration = 0.0;
    int qubits = 0;
};

/// Maps every version of @p versions and keeps the one with the fewest
/// SWAPs, ties to the shorter duration, then to the lower index.
MinSwap
min_swap_of(const core::VersionSet& versions, const arch::Backend& backend,
            bool keep_rzz)
{
    transpile::TranspileOptions options;
    options.keep_rzz = keep_rzz;
    const auto mapped = core::map_versions(versions, backend, options).value();
    MinSwap best;
    for (std::size_t i = 0; i < mapped.size(); ++i) {
        const auto& point = mapped[i];
        if (i == 0 || point.swaps_added < best.swaps ||
            (point.swaps_added == best.swaps &&
             point.duration_dt < best.duration)) {
            best.swaps = point.swaps_added;
            best.duration = point.duration_dt;
            best.qubits = versions[i].qubits;
        }
    }
    return best;
}

core::CommutingSpec
qaoa_spec(int n)
{
    util::Rng rng(1000u + static_cast<unsigned>(n));
    core::CommutingSpec spec;
    spec.interaction = graph::random_graph(n, 0.30, rng);
    return spec;
}

core::QsCommutingOptions
qaoa_options(int n)
{
    core::QsCommutingOptions options;
    options.max_candidates = n <= 15 ? 24 : 12;
    return options;
}

}  // namespace

int
main()
{
    Service service;

    // SR-CaQR side: one request per benchmark, batched.
    std::vector<CompileRequest> requests;
    for (const auto& name : apps::regular_benchmark_names()) {
        CompileRequest request;
        request.name = name;
        request.circuit = apps::get_benchmark(name)->circuit;
        request.strategy = Strategy::kSrCaqr;
        requests.push_back(std::move(request));
    }
    for (int n : {5, 10, 15, 20, 25}) {
        CompileRequest request;
        request.name = "qaoa" + std::to_string(n) + "-0.3";
        request.commuting = qaoa_spec(n);
        request.strategy = Strategy::kSrCaqr;
        request.qs_commuting = qaoa_options(n);
        requests.push_back(std::move(request));
    }
    const auto reports = service.compile_batch(requests);

    const auto backend = service.backend("FakeMumbai");
    if (!backend.ok()) {
        std::cerr << "error: " << backend.status().to_string() << "\n";
        return 1;
    }

    util::Table table({"benchmark", "QS swaps", "QS duration (dt)",
                       "SR swaps", "SR duration (dt)", "SR phys qubits",
                       "SR reuses"});
    table.set_title(
        "Table 2: QS-CaQR (MIN-SWAP) vs SR-CaQR on IBM Mumbai");

    int sr_wins = 0;
    int ties = 0;
    int total = 0;

    auto add_row = [&](const MinSwap& qs, const CompileReport& sr) {
        if (!sr.ok()) {
            std::cerr << "error: " << sr.name << ": "
                      << sr.status.to_string() << "\n";
            std::exit(1);
        }
        table.add_row(
            {sr.name, util::Table::fmt(static_cast<long long>(qs.swaps)),
             util::Table::fmt(qs.duration, 0),
             util::Table::fmt(static_cast<long long>(sr.swaps)),
             util::Table::fmt(sr.duration_dt, 0),
             util::Table::fmt(
                 static_cast<long long>(sr.physical_qubits)),
             util::Table::fmt(static_cast<long long>(sr.reuses))});
        ++total;
        if (sr.swaps < qs.swaps) ++sr_wins;
        if (sr.swaps == qs.swaps) ++ties;
    };

    std::size_t index = 0;
    for (const auto& name : apps::regular_benchmark_names()) {
        const auto bench = apps::get_benchmark(name);
        const core::VersionSet versions(
            core::qs_caqr_or(bench->circuit).value());
        add_row(min_swap_of(versions, **backend, /*keep_rzz=*/false),
                reports[index++]);
    }

    for (int n : {5, 10, 15, 20, 25}) {
        const core::VersionSet versions(
            core::qs_caqr_commuting_or(qaoa_spec(n), qaoa_options(n))
                .value());
        add_row(min_swap_of(versions, **backend, /*keep_rzz=*/true),
                reports[index++]);
    }

    table.print(std::cout);
    std::cout << "\nSR-CaQR strictly fewer SWAPs on " << sr_wins << "/"
              << total << " benchmarks, ties on " << ties << ".\n";
    return 0;
}
