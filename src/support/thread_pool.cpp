#include "support/thread_pool.hpp"

#include <algorithm>
#include <memory>

namespace slpwlo {

namespace {

/// Index of the worker the current thread belongs to, or SIZE_MAX for
/// external threads. Set once per worker thread at startup.
thread_local size_t tls_worker_index = static_cast<size_t>(-1);
thread_local const ThreadPool* tls_worker_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(int threads) {
    size_t count = threads > 0
                       ? static_cast<size_t>(threads)
                       : std::max(1u, std::thread::hardware_concurrency());
    queues_.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        queues_.push_back(std::make_unique<Worker>());
    }
    workers_.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        workers_.emplace_back([this, i] { worker_loop(i); });
    }
}

ThreadPool::~ThreadPool() {
    wait_idle();
    {
        std::lock_guard<std::mutex> lock(state_mutex_);
        stopping_ = true;
    }
    work_available_.notify_all();
    for (std::thread& worker : workers_) {
        worker.join();
    }
}

void ThreadPool::submit(std::function<void()> task) {
    // The push happens under the state lock so that a worker that found
    // all queues empty and re-checks under the same lock (worker_loop)
    // cannot miss it: either the re-check sees the task, or the worker is
    // already waiting and the notify wakes it.
    std::lock_guard<std::mutex> lock(state_mutex_);
    size_t queue_index;
    if (tls_worker_pool == this) {
        queue_index = tls_worker_index;  // nested submit: keep it local
    } else {
        queue_index = next_queue_;
        next_queue_ = (next_queue_ + 1) % queues_.size();
    }
    pending_++;
    {
        Worker& worker = *queues_[queue_index];
        std::lock_guard<std::mutex> queue_lock(worker.mutex);
        worker.deque.push_back(std::move(task));
    }
    work_available_.notify_one();
}

void ThreadPool::submit_range(size_t count,
                              std::function<void(size_t)> task) {
    if (count == 0) return;
    const auto shared =
        std::make_shared<std::function<void(size_t)>>(std::move(task));
    std::lock_guard<std::mutex> lock(state_mutex_);
    const size_t workers = queues_.size();
    for (size_t w = 0; w < workers; ++w) {
        Worker& worker = *queues_[(next_queue_ + w) % workers];
        std::lock_guard<std::mutex> queue_lock(worker.mutex);
        for (size_t i = count * w / workers; i < count * (w + 1) / workers;
             ++i) {
            worker.deque.push_back([shared, i] { (*shared)(i); });
        }
    }
    pending_ += count;
    work_available_.notify_all();
}

void ThreadPool::wait_idle() {
    std::unique_lock<std::mutex> lock(state_mutex_);
    all_done_.wait(lock, [this] { return pending_ == 0; });
}

bool ThreadPool::try_pop_own(size_t self, std::function<void()>& task) {
    Worker& worker = *queues_[self];
    std::lock_guard<std::mutex> lock(worker.mutex);
    if (worker.deque.empty()) return false;
    task = std::move(worker.deque.back());
    worker.deque.pop_back();
    return true;
}

bool ThreadPool::try_steal(size_t self, std::function<void()>& task) {
    const size_t n = queues_.size();
    for (size_t offset = 1; offset < n; ++offset) {
        Worker& victim = *queues_[(self + offset) % n];
        std::lock_guard<std::mutex> lock(victim.mutex);
        if (victim.deque.empty()) continue;
        task = std::move(victim.deque.front());  // steal the oldest
        victim.deque.pop_front();
        return true;
    }
    return false;
}

void ThreadPool::worker_loop(size_t self) {
    tls_worker_index = self;
    tls_worker_pool = this;
    for (;;) {
        std::function<void()> task;
        if (try_pop_own(self, task) || try_steal(self, task)) {
            try {
                task();
            } catch (...) {
                // Tasks own their error handling (see the header); an
                // escaped exception must not kill the worker or wedge
                // the pending count.
            }
            std::lock_guard<std::mutex> lock(state_mutex_);
            pending_--;
            if (pending_ == 0) all_done_.notify_all();
            continue;
        }
        std::unique_lock<std::mutex> lock(state_mutex_);
        if (stopping_) return;
        // Re-check the queues under the state lock: a submit that slipped
        // in between the failed scans and this point pushed under the
        // same lock, so it is visible here — and one that arrives later
        // finds us waiting and its notify wakes us.
        if (any_queue_nonempty()) continue;
        work_available_.wait(lock);
    }
}

bool ThreadPool::any_queue_nonempty() {
    for (const auto& worker : queues_) {
        std::lock_guard<std::mutex> lock(worker->mutex);
        if (!worker->deque.empty()) return true;
    }
    return false;
}

}  // namespace slpwlo
