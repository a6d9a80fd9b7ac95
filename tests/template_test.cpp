/**
 * @file
 * Compile-once / bind-many template API tests: skeleton fingerprints,
 * the template LRU tier, bind equivalence against fresh compiles,
 * handle lifetime across eviction, metrics, and concurrency (this
 * suite runs under TSan in CI).
 */
#include <atomic>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/commuting.h"
#include "graph/generators.h"
#include "qasm/parser.h"
#include "qasm/printer.h"
#include "service/cache.h"
#include "service/service.h"
#include "util/rng.h"

namespace caqr {
namespace {

/// A qs_commuting request for one QAOA max-cut instance. Angles are
/// the *spec* angles (the emitted rotations carry 2γ / 2β).
CompileRequest
qaoa_request(const graph::UndirectedGraph& problem, double gamma,
             double beta)
{
    CompileRequest request;
    request.name = "qaoa";
    request.strategy = Strategy::kQsCommuting;
    request.qs_commuting.num_threads = 1;
    request.commuting.emplace();
    request.commuting->interaction = problem;
    request.commuting->layers = 1;
    request.commuting->gamma = gamma;
    request.commuting->beta = beta;
    return request;
}

graph::UndirectedGraph
problem_graph(int nodes = 10, unsigned seed = 5)
{
    util::Rng rng(seed);
    return graph::random_graph(nodes, 0.4, rng);
}

constexpr const char* kParamQasm = R"(OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
rzz(gamma0) q[0],q[1];
rzz(gamma1) q[1],q[2];
rx(beta0) q[0];
measure q[0] -> c[0];
measure q[1] -> c[1];
measure q[2] -> c[2];
)";

TEST(TemplateKeyTest, CommutingAnglesShareSkeletonNotRequestKey)
{
    const auto problem = problem_graph();
    const auto a = qaoa_request(problem, 0.7, 0.3);
    const auto b = qaoa_request(problem, 1.9, 0.8);

    const auto skeleton_a = template_cache_key(a);
    const auto skeleton_b = template_cache_key(b);
    ASSERT_TRUE(skeleton_a.ok()) << skeleton_a.status().to_string();
    ASSERT_TRUE(skeleton_b.ok()) << skeleton_b.status().to_string();
    EXPECT_EQ(*skeleton_a, *skeleton_b)
        << "angle-only differences must not split the skeleton";

    const auto request_a = request_cache_key(a);
    const auto request_b = request_cache_key(b);
    ASSERT_TRUE(request_a.ok());
    ASSERT_TRUE(request_b.ok());
    EXPECT_NE(*request_a, *request_b)
        << "the content-addressed compile cache must still distinguish "
           "concrete angles";
}

TEST(TemplateKeyTest, BoundCircuitParamsShareSkeletonNotRequestKey)
{
    const auto parsed = qasm::parse_circuit(kParamQasm);
    ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
    ASSERT_EQ(parsed->num_params(), 3);

    circuit::Circuit low = *parsed;
    low.bind_params({0.3, 0.5, 0.7});
    circuit::Circuit high = *parsed;
    high.bind_params({1.1, 1.3, 1.7});

    CompileRequest a;
    a.circuit = low;
    CompileRequest b;
    b.circuit = high;

    const auto skeleton_a = template_cache_key(a);
    const auto skeleton_b = template_cache_key(b);
    ASSERT_TRUE(skeleton_a.ok());
    ASSERT_TRUE(skeleton_b.ok());
    EXPECT_EQ(*skeleton_a, *skeleton_b);

    const auto request_a = request_cache_key(a);
    const auto request_b = request_cache_key(b);
    ASSERT_TRUE(request_a.ok());
    ASSERT_TRUE(request_b.ok());
    EXPECT_NE(*request_a, *request_b);
}

TEST(TemplateServiceTest, SecondCompileOfSameSkeletonIsACacheHit)
{
    Service service({.num_threads = 1});
    const auto problem = problem_graph();

    const auto first = service.compile_template(qaoa_request(problem, 0.7, 0.3));
    ASSERT_TRUE(first.ok()) << first.status().to_string();
    const auto second =
        service.compile_template(qaoa_request(problem, 2.2, 0.9));
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(first->id, second->id)
        << "same skeleton must return the resident handle";

    const auto snapshot = service.metrics_snapshot();
    EXPECT_EQ(snapshot.counters.at("service.template.hit"), 1.0);
    EXPECT_EQ(snapshot.counters.at("service.template.miss"), 1.0);
    // One template is resident and nothing was evicted: the handle
    // both requests got still binds.
    EXPECT_EQ(snapshot.counters.count("service.template.evict"), 0u);
    EXPECT_TRUE(service.bind(*first, {{1.0, 2.0}}).ok());
}

TEST(TemplateServiceTest, TemplateInfoExposesInterleavedParams)
{
    Service service({.num_threads = 1});
    const auto handle =
        service.compile_template(qaoa_request(problem_graph(), 0.7, 0.3));
    ASSERT_TRUE(handle.ok());

    const auto info = service.template_info(*handle);
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info->strategy, "qs_commuting");
    ASSERT_EQ(info->param_names.size(), 2u);
    EXPECT_EQ(info->param_names[0], "gamma0");
    EXPECT_EQ(info->param_names[1], "beta0");
    // Defaults hold the *full* rotation angles 2γ / 2β.
    ASSERT_EQ(info->default_values.size(), 2u);
    EXPECT_DOUBLE_EQ(info->default_values[0], 2.0 * 0.7);
    EXPECT_DOUBLE_EQ(info->default_values[1], 2.0 * 0.3);
}

/// The acceptance property: a bound report must be bit-identical to a
/// fresh compile of the same concrete angles on every quality metric,
/// and the bound circuit itself must print to the same QASM. Randomized
/// over angle pairs (deterministic seed).
TEST(TemplateServiceTest, BindMatchesFreshCompileBitForBit)
{
    Service service({.num_threads = 1});
    const auto problem = problem_graph(12, 7);

    const auto handle =
        service.compile_template(qaoa_request(problem, 0.7, 0.3));
    ASSERT_TRUE(handle.ok()) << handle.status().to_string();

    util::Rng rng(2026);
    for (int round = 0; round < 6; ++round) {
        const double gamma = 0.1 + 2.9 * rng.next_double();
        const double beta = 0.1 + 2.9 * rng.next_double();

        const auto bound =
            service.bind(*handle, {{2.0 * gamma, 2.0 * beta}});
        ASSERT_TRUE(bound.ok()) << bound.status().to_string();

        const auto fresh =
            service.compile(qaoa_request(problem, gamma, beta));
        ASSERT_TRUE(fresh.ok()) << fresh.status.to_string();

        EXPECT_EQ(bound->qubits, fresh.qubits);
        EXPECT_EQ(bound->depth, fresh.depth);
        EXPECT_EQ(bound->swaps, fresh.swaps);
        EXPECT_EQ(bound->reuses, fresh.reuses);
        EXPECT_EQ(bound->esp, fresh.esp) << "ESP must replay exactly";
        EXPECT_EQ(qasm::to_qasm(bound->compiled),
                  qasm::to_qasm(fresh.compiled))
            << "round " << round << " (gamma=" << gamma
            << ", beta=" << beta << ")";
    }
}

TEST(TemplateServiceTest, BindRejectsWrongValueCount)
{
    Service service({.num_threads = 1});
    const auto handle =
        service.compile_template(qaoa_request(problem_graph(), 0.7, 0.3));
    ASSERT_TRUE(handle.ok());

    const auto bound = service.bind(*handle, {{1.0}});
    ASSERT_FALSE(bound.ok());
    EXPECT_EQ(bound.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(TemplateServiceTest, BindRejectsUnknownHandle)
{
    Service service({.num_threads = 1});
    const auto bound = service.bind(TemplateHandle{999}, {{1.0, 2.0}});
    ASSERT_FALSE(bound.ok());
    EXPECT_EQ(bound.status().code(), util::StatusCode::kNotFound);
}

TEST(TemplateServiceTest, EvictionRetiresHandles)
{
    Service service(
        {.num_threads = 1, .template_cache_capacity = 1});
    const auto first =
        service.compile_template(qaoa_request(problem_graph(8, 3), 0.7, 0.3));
    ASSERT_TRUE(first.ok());
    // A different problem graph is a different skeleton: compiling it
    // into a capacity-1 cache evicts the first template.
    const auto second =
        service.compile_template(qaoa_request(problem_graph(9, 4), 0.7, 0.3));
    ASSERT_TRUE(second.ok());

    const auto stale = service.bind(*first, {{1.0, 2.0}});
    ASSERT_FALSE(stale.ok());
    EXPECT_EQ(stale.status().code(), util::StatusCode::kNotFound);

    const auto live = service.bind(*second, {{1.0, 2.0}});
    EXPECT_TRUE(live.ok()) << live.status().to_string();
    EXPECT_EQ(service.metrics_snapshot().counters.at(
                  "service.template.evict"),
              1.0);
}

TEST(TemplateServiceTest, ZeroCapacityDisablesTemplates)
{
    Service service(
        {.num_threads = 1, .template_cache_capacity = 0});
    const auto handle =
        service.compile_template(qaoa_request(problem_graph(), 0.7, 0.3));
    ASSERT_FALSE(handle.ok());
    EXPECT_EQ(handle.status().code(),
              util::StatusCode::kInvalidArgument);
}

/// Satellite acceptance: a bound report's circuit survives a printer →
/// parser → printer round trip byte-for-byte (measure and conditional
/// reset included — the bound circuit is the physical schedule).
TEST(TemplateServiceTest, BoundCircuitRoundTripsThroughQasm)
{
    Service service({.num_threads = 1});
    const auto handle =
        service.compile_template(qaoa_request(problem_graph(), 0.7, 0.3));
    ASSERT_TRUE(handle.ok());
    const auto bound = service.bind(*handle, {{1.23, 0.45}});
    ASSERT_TRUE(bound.ok());

    const std::string printed = qasm::to_qasm(bound->compiled);
    const auto reparsed = qasm::parse_circuit(printed);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().to_string();
    EXPECT_EQ(qasm::to_qasm(*reparsed), printed);
}

TEST(TemplateServiceTest, BindRecordsItsOwnMetricsOnly)
{
    Service service({.num_threads = 1});
    const auto handle =
        service.compile_template(qaoa_request(problem_graph(), 0.7, 0.3));
    ASSERT_TRUE(handle.ok());

    const auto before = service.metrics_snapshot();
    const double requests_before =
        before.counters.count("service.requests")
            ? before.counters.at("service.requests")
            : 0.0;

    for (int i = 0; i < 3; ++i) {
        const auto bound =
            service.bind(*handle, {{1.0 + i, 0.5 + i}});
        ASSERT_TRUE(bound.ok());
    }

    const auto after = service.metrics_snapshot();
    ASSERT_TRUE(after.counters.count("service.binds"));
    EXPECT_DOUBLE_EQ(after.counters.at("service.binds"), 3.0);
    ASSERT_TRUE(after.histograms.count("service.bind_ms"));
    EXPECT_EQ(after.histograms.at("service.bind_ms").count(), 3u);
    // Binds are not compile requests: the request counter (and with it
    // the cache hit-rate math) must not move.
    const double requests_after =
        after.counters.count("service.requests")
            ? after.counters.at("service.requests")
            : 0.0;
    EXPECT_DOUBLE_EQ(requests_after, requests_before);
}

/// TSan coverage: concurrent binds race compile_template misses that
/// churn a tiny LRU (admission lock, handle table, metrics). Binds on
/// a handle being evicted may answer kNotFound; anything else is a
/// failure.
TEST(TemplateServiceTest, ConcurrentBindsAndCompilesAreSafe)
{
    Service service(
        {.num_threads = 1, .template_cache_capacity = 2});
    const auto problem = problem_graph(10, 5);
    const auto handle =
        service.compile_template(qaoa_request(problem, 0.7, 0.3));
    ASSERT_TRUE(handle.ok());

    std::atomic<int> unexpected{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t) {
        workers.emplace_back([&, t] {
            for (int i = 0; i < 25; ++i) {
                const auto bound = service.bind(
                    *handle, {{0.1 + t + i * 0.01, 0.2 + i * 0.02}});
                if (!bound.ok() &&
                    bound.status().code() !=
                        util::StatusCode::kNotFound) {
                    ++unexpected;
                }
            }
        });
    }
    for (int t = 0; t < 2; ++t) {
        workers.emplace_back([&, t] {
            for (int i = 0; i < 10; ++i) {
                // Distinct graphs -> distinct skeletons, cycling the
                // capacity-2 cache.
                const auto churn = service.compile_template(qaoa_request(
                    problem_graph(6 + (i % 3), 20u + static_cast<unsigned>(t)),
                    0.7, 0.3));
                if (!churn.ok()) ++unexpected;
            }
        });
    }
    for (auto& worker : workers) worker.join();
    EXPECT_EQ(unexpected.load(), 0);
}

}  // namespace
}  // namespace caqr
