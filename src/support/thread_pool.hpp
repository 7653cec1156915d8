// Work-stealing thread pool for constraint sweeps.
//
// Each worker owns a deque: it pushes and pops its own work at the back
// (LIFO, cache-friendly) and steals from other workers' fronts (FIFO,
// oldest first) when its deque runs dry. External submissions are dealt
// round-robin across the workers, a range of them in contiguous blocks.
// The pool tracks in-flight tasks so wait_idle() can block until
// everything submitted so far has finished — including tasks that tasks
// spawned.
//
// Determinism note: the pool schedules *when* tasks run, never *what* they
// compute; sweep results are written to pre-assigned slots, so the output
// of a sweep is identical at any thread count (tested in
// tests/test_flow_engine.cpp).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace slpwlo {

class ThreadPool {
public:
    /// `threads` <= 0 picks std::thread::hardware_concurrency().
    explicit ThreadPool(int threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    int thread_count() const { return static_cast<int>(workers_.size()); }

    /// Enqueue a task. Safe to call from worker threads (nested submits
    /// go to the submitting worker's own deque). Tasks must handle their
    /// own errors: an exception escaping a task is swallowed (the task
    /// still counts as completed for wait_idle()).
    void submit(std::function<void()> task);

    /// Enqueue task(0), ..., task(count - 1), dealt to the workers in
    /// contiguous blocks of neighbouring indices. Each worker then runs
    /// its block one task after another, so neighbouring tasks — in a
    /// sweep, points that share per-kernel and round-1 preparation —
    /// reuse that preparation instead of waiting on each other for it.
    void submit_range(size_t count, std::function<void(size_t)> task);

    /// Block until every submitted task (and their nested submissions)
    /// has completed.
    void wait_idle();

private:
    struct Worker {
        std::mutex mutex;
        std::deque<std::function<void()>> deque;
    };

    void worker_loop(size_t self);
    bool try_pop_own(size_t self, std::function<void()>& task);
    bool try_steal(size_t self, std::function<void()>& task);
    bool any_queue_nonempty();

    std::vector<std::unique_ptr<Worker>> queues_;
    std::vector<std::thread> workers_;

    std::mutex state_mutex_;
    std::condition_variable work_available_;
    std::condition_variable all_done_;
    size_t pending_ = 0;  ///< queued + running tasks
    size_t next_queue_ = 0;
    bool stopping_ = false;
};

}  // namespace slpwlo
