/// Tests for the fixed-size thread pool behind the parallel engines:
/// task execution, deterministic result
/// ordering, exception propagation, batch reuse, and clean shutdown.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

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

}  // namespace
}  // namespace caqr
