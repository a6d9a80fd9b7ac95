/**
 * @file
 * Fixed-size thread pool with deterministic batch evaluation.
 *
 * The pool backs the parallel engines (commuting QS-CaQR candidate
 * scheduling, raced routing trials, shot-parallel simulation): `map()`
 * evaluates a batch of independent tasks across the workers (the
 * calling thread participates) and returns the results ordered by task
 * index, so callers see the same result vector regardless of how many
 * threads executed the batch or how the scheduler interleaved them.
 * Exceptions thrown by tasks are captured and rethrown — the one with
 * the lowest task index wins, again independent of thread count.
 * Passes reach a pool through `fan_out`, which borrows the caller's
 * pool, spawns one, or stays serial.
 */
#ifndef CAQR_UTIL_THREAD_POOL_H
#define CAQR_UTIL_THREAD_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/trace.h"

namespace caqr::util {

/// Fixed-size worker pool. Queued tasks are drained before destruction
/// joins the workers, so no submitted work is ever dropped.
class ThreadPool
{
  public:
    /// Spawns @p num_workers workers; negative = one per hardware
    /// thread. A zero-worker pool is valid: submit() and map() then run
    /// every task inline on the calling thread.
    explicit ThreadPool(int num_workers = -1);

    /// Drains the queue, then joins all workers.
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Number of worker threads (excludes the calling thread).
    int size() const { return static_cast<int>(workers_.size()); }

    /// Total evaluation threads for a user-facing `num_threads` knob:
    /// positive values pass through, zero/negative resolve to the
    /// hardware thread count (at least 1).
    static int resolve_threads(int requested);

    /// Schedules @p fn and returns a future for its result. Exceptions
    /// propagate through the future.
    template <typename Fn>
    auto
    submit(Fn&& fn) -> std::future<std::invoke_result_t<std::decay_t<Fn>&>>
    {
        using R = std::invoke_result_t<std::decay_t<Fn>&>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<Fn>(fn));
        std::future<R> result = task->get_future();
        enqueue([task] { (*task)(); });
        return result;
    }

    /**
     * Evaluates fn(0..n-1) across the workers plus the calling thread
     * and returns the results indexed by task — result ordering never
     * depends on thread count or scheduling. Every task runs bound to
     * the caller's `trace::current_request()`, so its spans reach that
     * request. Blocks until the whole batch finished; if any task
     * threw, the exception with the lowest task index is rethrown
     * after the batch completes.
     */
    template <typename Fn>
    auto
    map(std::size_t n, Fn&& fn)
        -> std::vector<std::invoke_result_t<std::decay_t<Fn>&, std::size_t>>
    {
        using R = std::invoke_result_t<std::decay_t<Fn>&, std::size_t>;
        static_assert(std::is_default_constructible_v<R>,
                      "map results must be default-constructible");
        std::vector<R> results(n);
        if (n == 0) return results;
        if (workers_.empty() || n == 1) {
            for (std::size_t i = 0; i < n; ++i) {
                results[i] = fn(i);
            }
            return results;
        }

        struct Batch
        {
            std::atomic<std::size_t> next{0};
            std::atomic<std::size_t> done{0};
            std::size_t total = 0;
            std::mutex mutex;
            std::condition_variable all_done;
            std::vector<std::exception_ptr> errors;
        };
        auto batch = std::make_shared<Batch>();
        batch->total = n;
        batch->errors.resize(n);

        // Helpers run the batch bound to the caller's request. The
        // batch finishes before map returns, so the binding outlives
        // every task that can see it.
        R* out = results.data();
        const trace::RequestContext* request = trace::current_request();
        auto run = [batch, out, &fn, request] {
            trace::RequestScope request_scope(request);
            for (;;) {
                const std::size_t i = batch->next.fetch_add(1);
                if (i >= batch->total) return;
                try {
                    out[i] = fn(i);
                } catch (...) {
                    batch->errors[i] = std::current_exception();
                }
                if (batch->done.fetch_add(1) + 1 == batch->total) {
                    std::lock_guard<std::mutex> lock(batch->mutex);
                    batch->all_done.notify_all();
                }
            }
        };
        // A straggler helper that wakes after the batch completed exits
        // via the index check without touching `out`, `fn` or the
        // request.
        const std::size_t helpers =
            std::min(n - 1, static_cast<std::size_t>(size()));
        for (std::size_t h = 0; h < helpers; ++h) enqueue(run);
        run();
        {
            std::unique_lock<std::mutex> lock(batch->mutex);
            batch->all_done.wait(lock, [&] {
                return batch->done.load() == batch->total;
            });
        }
        // Moved out, so the exception dies on this thread rather than
        // with a straggler helper's last reference to the batch.
        for (std::size_t i = 0; i < n; ++i) {
            if (batch->errors[i]) {
                std::rethrow_exception(std::move(batch->errors[i]));
            }
        }
        return results;
    }

  private:
    /// Queues @p task; with zero workers, runs it inline instead.
    void enqueue(std::function<void()> task);
    void worker_loop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable ready_;
    bool stop_ = false;
};

/**
 * The one fan-out of a pass's parallel section: evaluates fn(0..n-1)
 * and returns the results by index. With @p threads (already resolved
 * and capped by the caller) <= 1, or @p n <= 1, it is a plain loop on
 * the calling thread that touches no pool. Otherwise the batch runs on
 * @p borrowed when it has workers, else on @p spawned, which the first
 * parallel call fills with `threads - 1` workers and later calls
 * reuse. Either way the exception with the lowest index is rethrown.
 */
template <typename Fn>
auto
fan_out(std::size_t n, int threads, ThreadPool* borrowed,
        std::optional<ThreadPool>& spawned, Fn&& fn)
    -> std::vector<std::invoke_result_t<std::decay_t<Fn>&, std::size_t>>
{
    if (threads <= 1 || n <= 1) {
        std::vector<std::invoke_result_t<std::decay_t<Fn>&, std::size_t>>
            results;
        results.reserve(n);
        for (std::size_t i = 0; i < n; ++i) results.push_back(fn(i));
        return results;
    }
    ThreadPool& pool = borrowed != nullptr && borrowed->size() > 0
                           ? *borrowed
                       : spawned ? *spawned
                                 : spawned.emplace(threads - 1);
    return pool.map(n, fn);
}

}  // namespace caqr::util

#endif  // CAQR_UTIL_THREAD_POOL_H
