#include "support/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

namespace capi::support {

std::size_t ThreadPool::defaultThreadCount() noexcept {
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool::ThreadPool(std::size_t threads) {
    if (threads == 0) {
        threads = defaultThreadCount();
    }
    threads = std::max<std::size_t>(threads, 1);
    workers_.reserve(threads);
    try {
        for (std::size_t i = 0; i < threads; ++i) {
            workers_.emplace_back([this] { workerLoop(); });
        }
    } catch (...) {
        // Thread creation can fail (OS thread limits). Joinable threads must
        // be joined before the vector unwinds or std::terminate is called;
        // the destructor won't run since construction never completed.
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stopping_ = true;
        }
        available_.notify_all();
        for (std::thread& worker : workers_) {
            worker.join();
        }
        throw;
    }
}

ThreadPool::~ThreadPool() {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    available_.notify_all();
    for (std::thread& worker : workers_) {
        worker.join();
    }
}

void ThreadPool::submit(std::function<void()> task) {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        tasks_.push_back(std::move(task));
    }
    available_.notify_one();
}

void ThreadPool::workerLoop() {
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            available_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
            if (tasks_.empty()) {
                return;  // stopping_ and drained
            }
            task = std::move(tasks_.front());
            tasks_.pop_front();
        }
        task();
    }
}

void ThreadPool::parallelFor(
    std::size_t count, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
    if (count == 0) {
        return;
    }
    grain = std::max<std::size_t>(grain, 1);
    const std::size_t chunks = (count + grain - 1) / grain;
    if (chunks == 1 || threadCount() <= 1) {
        body(0, count);
        return;
    }

    struct Shared {
        std::atomic<std::size_t> cursor{0};
        std::atomic<std::size_t> done{0};
        std::atomic<bool> abort{false};
        std::size_t chunks = 0;
        std::mutex m;
        std::condition_variable finished;
        std::exception_ptr error;
    };
    auto shared = std::make_shared<Shared>();
    shared->chunks = chunks;

    // Helpers claim chunks through the shared cursor. `body` lives on the
    // caller's stack; a late helper that runs after parallelFor returned sees
    // cursor >= chunks and exits before ever touching it.
    const auto* bodyPtr = &body;
    auto claimChunks = [shared, bodyPtr, grain, count] {
        for (;;) {
            std::size_t chunk = shared->cursor.fetch_add(1, std::memory_order_relaxed);
            if (chunk >= shared->chunks) {
                return;
            }
            if (!shared->abort.load(std::memory_order_relaxed)) {
                std::size_t lo = chunk * grain;
                std::size_t hi = std::min(count, lo + grain);
                try {
                    (*bodyPtr)(lo, hi);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(shared->m);
                    if (!shared->error) {
                        shared->error = std::current_exception();
                    }
                    shared->abort.store(true, std::memory_order_relaxed);
                }
            }
            if (shared->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
                shared->chunks) {
                std::lock_guard<std::mutex> lock(shared->m);
                shared->finished.notify_all();
            }
        }
    };

    const std::size_t helpers = std::min(threadCount(), chunks - 1);
    for (std::size_t i = 0; i < helpers; ++i) {
        submit(claimChunks);
    }
    claimChunks();

    std::unique_lock<std::mutex> lock(shared->m);
    shared->finished.wait(lock, [&] {
        return shared->done.load(std::memory_order_acquire) == shared->chunks;
    });
    if (shared->error) {
        std::rethrow_exception(shared->error);
    }
}

bool shouldShard(const ThreadPool* pool, std::size_t size,
                 std::size_t threshold) noexcept {
    return pool != nullptr && pool->threadCount() > 1 && size >= threshold;
}

void parallelFor(ThreadPool* pool, std::size_t n, std::size_t minGrain,
                 const std::function<void(std::size_t, std::size_t)>& body,
                 std::size_t threshold) {
    if (!shouldShard(pool, n, threshold)) {
        body(0, n);
        return;
    }
    const std::size_t grain =
        std::max(minGrain, n / (pool->threadCount() * 4));
    pool->parallelFor(n, (grain + 63) / 64 * 64, body);
}

}  // namespace capi::support
