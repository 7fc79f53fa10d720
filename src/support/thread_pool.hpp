// Fixed-size thread pool for the parallel selection engine.
//
// Deliberately work-stealing-free: one mutex-protected FIFO shared by a fixed
// set of workers. Selection workloads are coarse (whole pipeline stages,
// multi-thousand-word bitset shards), so a simple queue is contention-free in
// practice and keeps scheduling deterministic enough to reason about.
//
// parallelFor() is deadlock-safe under nesting: the calling thread claims
// chunks itself via an atomic cursor, so even when every worker is busy (or
// the caller *is* a worker running a pipeline stage) the loop completes.
//
// The free functions below are the one place that decides whether a loop is
// worth sharding: every caller passes the pool it was given (possibly null)
// and its element count, and the loop runs inline when sharding cannot pay.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace capi::support {

class ThreadPool {
public:
    /// Spawns `threads` workers; 0 means hardware concurrency. At least one
    /// worker is always created.
    explicit ThreadPool(std::size_t threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    std::size_t threadCount() const noexcept { return workers_.size(); }

    /// Enqueues a task; runs on some worker, fire-and-forget. The caller is
    /// responsible for its own completion tracking.
    void submit(std::function<void()> task);

    /// Runs body(begin, end) over subranges of [0, count) partitioned into
    /// chunks of at most `grain` elements. Blocks until every chunk ran.
    /// The calling thread participates, so nested calls from worker threads
    /// cannot deadlock. The first exception thrown by `body` is rethrown
    /// here after all claimed chunks drain; remaining chunks are skipped.
    void parallelFor(std::size_t count, std::size_t grain,
                     const std::function<void(std::size_t, std::size_t)>& body);

    static std::size_t defaultThreadCount() noexcept;

private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> tasks_;
    std::mutex mutex_;
    std::condition_variable available_;
    bool stopping_ = false;
};

/// Below this many elements (graph nodes, plan candidates) a sharded loop's
/// bookkeeping costs more than the loop it splits.
inline constexpr std::size_t kShardThreshold = std::size_t{1} << 14;

/// Whether `size` elements of work are worth sharding over `pool`: there is
/// a pool, it has more than one worker, and `size` reaches `threshold`.
bool shouldShard(const ThreadPool* pool, std::size_t size,
                 std::size_t threshold = kShardThreshold) noexcept;

/// Runs body(begin, end) over [0, n). Runs body(0, n) inline unless
/// shouldShard(pool, n, threshold); otherwise splits [0, n) into chunks of
/// at least `minGrain` elements, about four per worker, on `pool` (see
/// ThreadPool::parallelFor). Chunk boundaries are multiples of 64, so the
/// chunks of a node range own whole bitset words.
void parallelFor(ThreadPool* pool, std::size_t n, std::size_t minGrain,
                 const std::function<void(std::size_t, std::size_t)>& body,
                 std::size_t threshold = kShardThreshold);

}  // namespace capi::support
