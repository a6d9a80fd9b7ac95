#include "util/thread_pool.h"

#include <algorithm>

namespace caqr::util {

ThreadPool::ThreadPool(int num_workers)
{
    if (num_workers < 0) {
        num_workers = std::max(1u, std::thread::hardware_concurrency());
    }
    workers_.reserve(static_cast<std::size_t>(num_workers));
    for (int i = 0; i < num_workers; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    ready_.notify_all();
    for (auto& worker : workers_) worker.join();
}

int
ThreadPool::resolve_threads(int requested)
{
    if (requested > 0) return requested;
    return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

ThreadPool&
ThreadPool::shared()
{
    static ThreadPool pool(resolve_threads(0) - 1);
    return pool;
}

void
ThreadPool::enqueue(std::function<void()> task)
{
    if (workers_.empty()) {
        task();
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
    }
    ready_.notify_one();
}

void
ThreadPool::worker_loop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            ready_.wait(lock, [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty()) return;  // stop requested and fully drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

}  // namespace caqr::util
