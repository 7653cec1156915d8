// Work-stealing thread pool for constraint sweeps.
//
// The thread that calls run_range() is worker 0: a pool of N threads
// starts N - 1 helpers, and a 1-thread pool starts none, so its ranges
// run on the caller with nothing handed to another thread. A range is
// split into N contiguous blocks of neighbouring indices, one per
// worker. Each worker runs its own block front to back, in ascending
// order, then steals from the back of the other blocks, the indices
// furthest from where their owners are working. The caller then waits
// only for the tasks that helpers still hold.
//
// Determinism note: the pool schedules *when* tasks run, never *what* they
// compute; sweep results are written to pre-assigned slots, so the output
// of a sweep is identical at any thread count (tested in
// tests/test_flow_engine.cpp).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace slpwlo {

class ThreadPool {
public:
    /// `threads` <= 0 picks std::thread::hardware_concurrency(). The
    /// count includes the calling thread: `threads` - 1 helpers start.
    explicit ThreadPool(int threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Workers, counting the caller of run_range().
    int thread_count() const { return static_cast<int>(blocks_.size()); }

    /// Run task(0), ..., task(count - 1) and return when all have
    /// finished. The caller runs block 0, starting at index 0, so
    /// neighbouring tasks — in a sweep, points that share per-kernel and
    /// round-1 preparation — run one after another on one thread and
    /// reuse that preparation instead of waiting on each other for it.
    /// Tasks must handle their own errors: an exception escaping a task
    /// is swallowed. Not re-entrant: one range at a time, and a task must
    /// not call run_range() on its own pool.
    void run_range(size_t count, const std::function<void(size_t)>& task);

private:
    /// One worker's share of the current range: indices [next, end).
    struct Block {
        std::mutex mutex;
        size_t next = 0;
        size_t end = 0;
    };

    void helper_loop(size_t self);
    bool try_take(size_t self, size_t& index);
    void run_one(size_t index);

    std::vector<std::unique_ptr<Block>> blocks_;
    std::vector<std::thread> helpers_;

    std::mutex state_mutex_;
    std::condition_variable range_posted_;
    std::condition_variable all_done_;
    const std::function<void(size_t)>* task_ = nullptr;
    size_t pending_ = 0;     ///< tasks of the current range not yet finished
    size_t generation_ = 0;  ///< ranges posted so far
    bool stopping_ = false;
};

}  // namespace slpwlo
