/// Tests for the fixed-size thread pool behind the parallel engines:
/// task execution, deterministic result
/// ordering, exception propagation, batch reuse, clean shutdown, and
/// request binding on helper threads; and for `fan_out`, the passes'
/// one way onto the process-wide shared pool: its thread cap, its
/// serial path, nested fan-outs and request binding.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <latch>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/benchmarks.h"
#include "arch/backend.h"
#include "core/qs_caqr.h"
#include "core/tradeoff.h"
#include "qasm/printer.h"
#include "transpile/transpiler.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace caqr {
namespace {

using util::ThreadPool;

TEST(ThreadPool, SubmitRunsTask)
{
    ThreadPool pool(2);
    EXPECT_EQ(pool.size(), 2);
    auto future = pool.submit([] { return 7 * 6; });
    EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, SubmitRunsOnWorkerThread)
{
    ThreadPool pool(1);
    const auto caller = std::this_thread::get_id();
    auto future = pool.submit([] { return std::this_thread::get_id(); });
    EXPECT_NE(future.get(), caller);
}

TEST(ThreadPool, MapKeepsSubmissionOrder)
{
    ThreadPool pool(4);
    const std::size_t n = 1000;
    const auto results =
        pool.map(n, [](std::size_t i) { return static_cast<int>(i * i); });
    ASSERT_EQ(results.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(results[i], static_cast<int>(i * i));
    }
}

TEST(ThreadPool, MapUsesMultipleThreads)
{
    ThreadPool pool(3);
    std::atomic<int> concurrent{0};
    std::atomic<int> peak{0};
    pool.map(64, [&](std::size_t) {
        const int now = ++concurrent;
        int seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        --concurrent;
        return 0;
    });
    EXPECT_GT(peak.load(), 1);
}

TEST(ThreadPool, SubmitPropagatesException)
{
    ThreadPool pool(2);
    auto future = pool.submit(
        []() -> int { throw std::runtime_error("submit boom"); });
    EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, MapRethrowsLowestIndexException)
{
    ThreadPool pool(4);
    try {
        pool.map(100, [](std::size_t i) -> int {
            if (i == 17 || i == 3 || i == 90) {
                throw std::runtime_error("task " + std::to_string(i));
            }
            return 0;
        });
        FAIL() << "map should have rethrown";
    } catch (const std::runtime_error& e) {
        // Deterministic winner: the lowest failing index, regardless of
        // which worker hit its exception first.
        EXPECT_STREQ(e.what(), "task 3");
    }
}

TEST(ThreadPool, ReusableAcrossBatches)
{
    ThreadPool pool(2);
    long long total = 0;
    for (int batch = 0; batch < 10; ++batch) {
        const auto results = pool.map(
            50, [batch](std::size_t i) {
                return static_cast<long long>(batch) * 50 +
                       static_cast<long long>(i);
            });
        total = std::accumulate(results.begin(), results.end(), total);
    }
    // sum of 0..499
    EXPECT_EQ(total, 499LL * 500 / 2);
}

TEST(ThreadPool, DestructionDrainsQueueAndJoins)
{
    std::atomic<int> executed{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 100; ++i) {
            pool.submit([&executed] {
                std::this_thread::sleep_for(std::chrono::microseconds(100));
                ++executed;
            });
        }
        // Destructor must run every queued task before joining.
    }
    EXPECT_EQ(executed.load(), 100);
}

TEST(ThreadPool, ZeroWorkerPoolRunsInline)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 0);
    const auto caller = std::this_thread::get_id();
    auto future = pool.submit([] { return std::this_thread::get_id(); });
    EXPECT_EQ(future.get(), caller);
    const auto results =
        pool.map(8, [](std::size_t i) { return static_cast<int>(i) + 1; });
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i], static_cast<int>(i) + 1);
    }
}

TEST(ThreadPool, MapEmptyAndSingleton)
{
    ThreadPool pool(2);
    EXPECT_TRUE(pool.map(0, [](std::size_t) { return 1; }).empty());
    const auto one = pool.map(1, [](std::size_t i) {
        return static_cast<int>(i) + 41;
    });
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0], 41);
}

TEST(ThreadPool, ResolveThreads)
{
    EXPECT_EQ(ThreadPool::resolve_threads(1), 1);
    EXPECT_EQ(ThreadPool::resolve_threads(7), 7);
    const int hw = ThreadPool::resolve_threads(0);
    EXPECT_GE(hw, 1);
    EXPECT_EQ(ThreadPool::resolve_threads(-3), hw);
}

TEST(ThreadPool, NegativeWorkerCountUsesHardware)
{
    ThreadPool pool(-1);
    EXPECT_GE(pool.size(), 1);
    auto future = pool.submit([] { return 1; });
    EXPECT_EQ(future.get(), 1);
}

/// What one task saw: its thread and the id of the request bound to
/// it (0 = none).
struct Binding
{
    std::thread::id thread;
    std::uint64_t request = 0;
};

/// A task that holds its thread until @p all_running counts down, so a
/// batch as wide as the latch puts one task on every thread of the
/// fan-out, and reports the request bound to its thread.
auto
bound_request_probe(std::latch& all_running)
{
    return [&all_running](std::size_t) {
        all_running.arrive_and_wait();
        const auto* request = util::trace::current_request();
        return Binding{std::this_thread::get_id(),
                       request != nullptr ? request->id : 0};
    };
}

TEST(ThreadPool, MapBindsHelpersToTheCallersRequest)
{
    ThreadPool pool(3);
    const util::trace::RequestContext request{42, nullptr};
    std::latch all_running(4);
    std::vector<Binding> seen;
    {
        util::trace::RequestScope scope(&request);
        seen = pool.map(4, bound_request_probe(all_running));
    }
    std::set<std::thread::id> threads;
    for (const Binding& binding : seen) {
        threads.insert(binding.thread);
        EXPECT_EQ(binding.request, 42u);
    }
    EXPECT_EQ(threads.size(), 4u);

    // The helpers drop the binding with the batch.
    std::latch again(4);
    for (const Binding& binding : pool.map(4, bound_request_probe(again))) {
        EXPECT_EQ(binding.request, 0u);
    }
}

TEST(FanOut, SharedPoolIsOnePerProcess)
{
    ThreadPool& pool = ThreadPool::shared();
    EXPECT_EQ(&pool, &ThreadPool::shared());
    EXPECT_EQ(pool.size(), ThreadPool::resolve_threads(0) - 1);
}

TEST(FanOut, BindsHelpersToTheCallersRequest)
{
    // As many threads as can run at once: the caller plus the shared
    // pool's workers, up to four.
    const int threads = std::min(4, 1 + ThreadPool::shared().size());
    const util::trace::RequestContext request{7, nullptr};
    util::trace::RequestScope scope(&request);
    std::latch all_running(threads);
    std::set<std::thread::id> seen;
    for (const Binding& binding :
         util::fan_out(static_cast<std::size_t>(threads), threads,
                       bound_request_probe(all_running))) {
        seen.insert(binding.thread);
        EXPECT_EQ(binding.request, 7u);
    }
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(threads));
}

TEST(FanOut, SerialPathRunsOnTheCallingThread)
{
    const auto caller = std::this_thread::get_id();
    const auto thread_id = [](std::size_t) {
        return std::this_thread::get_id();
    };
    // One thread: a plain loop.
    const auto serial = util::fan_out(8, 1, thread_id);
    ASSERT_EQ(serial.size(), 8u);
    for (const auto id : serial) EXPECT_EQ(id, caller);
    // One task: no pool either, whatever the thread count.
    const auto single = util::fan_out(1, 4, thread_id);
    ASSERT_EQ(single.size(), 1u);
    EXPECT_EQ(single[0], caller);
}

TEST(FanOut, PeakConcurrencyIsAtMostThreads)
{
    for (const int threads : {2, 3, 8}) {
        std::atomic<int> concurrent{0};
        std::atomic<int> peak{0};
        util::fan_out(64, threads, [&](std::size_t) {
            const int now = ++concurrent;
            int seen = peak.load();
            while (now > seen && !peak.compare_exchange_weak(seen, now)) {
            }
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            --concurrent;
            return 0;
        });
        EXPECT_LE(peak.load(), threads) << "threads=" << threads;
        EXPECT_GE(peak.load(), 1);
    }
}

/// Each of @p n tasks waits until all @p n have started, so they can
/// only finish if @p n threads run them at once. Returns the distinct
/// threads that ran them, and how many ran on a thread no earlier call
/// used.
std::pair<std::size_t, std::size_t>
rendezvous(std::size_t n)
{
    static thread_local bool used = false;
    std::mutex mutex;
    std::condition_variable all_in;
    std::size_t arrived = 0;
    const auto runs =
        util::fan_out(n, static_cast<int>(n), [&](std::size_t) {
            std::unique_lock<std::mutex> lock(mutex);
            if (++arrived == n) all_in.notify_all();
            all_in.wait_for(lock, std::chrono::seconds(10),
                            [&] { return arrived == n; });
            return std::pair(std::this_thread::get_id(),
                             !std::exchange(used, true));
        });
    std::set<std::thread::id> ids;
    std::size_t fresh = 0;
    for (const auto& [id, first_use] : runs) {
        ids.insert(id);
        fresh += first_use ? 1 : 0;
    }
    return {ids.size(), fresh};
}

TEST(FanOut, LaterCallsReuseTheSharedWorkers)
{
    // As wide as the caller plus every shared worker, so the first
    // call runs a task on each of them.
    const auto n = static_cast<std::size_t>(1 + ThreadPool::shared().size());
    EXPECT_EQ(rendezvous(n).first, n);
    // Every thread of a later call already ran a task: no call starts
    // a thread of its own.
    const auto [threads, fresh] = rendezvous(n);
    EXPECT_EQ(threads, n);
    EXPECT_EQ(fresh, 0u);
}

TEST(FanOut, NestedFanOutMatchesSerial)
{
    // map_versions fans the versions out, and each version's 4-trial
    // transpile_or fans its trials out again on the same shared pool,
    // from inside a pool task.
    const auto backend = arch::Backend::fake_mumbai();
    const core::VersionSet versions(
        core::qs_caqr_or(apps::bv_circuit(10)).value());
    ASSERT_GE(versions.size(), 4u);
    transpile::TranspileOptions serial;
    serial.trials = 4;
    serial.num_threads = 1;
    transpile::TranspileOptions nested = serial;
    nested.num_threads = 8;
    const auto expected =
        core::map_versions(versions, backend, serial).value();
    const auto actual = core::map_versions(versions, backend, nested).value();
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < actual.size(); ++i) {
        EXPECT_EQ(actual[i].swaps_added, expected[i].swaps_added) << i;
        EXPECT_EQ(actual[i].depth, expected[i].depth) << i;
        EXPECT_EQ(actual[i].esp, expected[i].esp) << i;
        EXPECT_EQ(qasm::to_qasm(actual[i].circuit),
                  qasm::to_qasm(expected[i].circuit))
            << i;
    }
}

TEST(FanOut, ResultsComeBackInIndexOrder)
{
    const auto square = [](std::size_t i) {
        return static_cast<int>(i * i);
    };
    for (const int threads : {1, 4}) {
        const auto results = util::fan_out(500, threads, square);
        ASSERT_EQ(results.size(), 500u);
        for (std::size_t i = 0; i < results.size(); ++i) {
            EXPECT_EQ(results[i], square(i));
        }
    }
    EXPECT_TRUE(util::fan_out(0, 4, square).empty());
}

TEST(FanOut, RethrowsTheLowestIndexException)
{
    const auto fail = [](std::size_t i) -> int {
        if (i == 41 || i == 7 || i == 90) {
            throw std::runtime_error("task " + std::to_string(i));
        }
        return 0;
    };
    for (const int threads : {1, 4}) {
        try {
            util::fan_out(100, threads, fail);
            ADD_FAILURE() << "fan_out should have rethrown";
        } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "task 7");
        }
    }
}

}  // namespace
}  // namespace caqr
