#include "support/thread_pool.hpp"

#include <algorithm>

namespace slpwlo {

ThreadPool::ThreadPool(int threads) {
    const size_t count =
        threads > 0 ? static_cast<size_t>(threads)
                    : std::max(1u, std::thread::hardware_concurrency());
    blocks_.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        blocks_.push_back(std::make_unique<Block>());
    }
    helpers_.reserve(count - 1);
    for (size_t i = 1; i < count; ++i) {
        helpers_.emplace_back([this, i] { helper_loop(i); });
    }
}

ThreadPool::~ThreadPool() {
    {
        std::lock_guard<std::mutex> lock(state_mutex_);
        stopping_ = true;
    }
    range_posted_.notify_all();
    for (std::thread& helper : helpers_) {
        helper.join();
    }
}

void ThreadPool::run_range(size_t count,
                           const std::function<void(size_t)>& task) {
    if (count == 0) return;
    const size_t workers = blocks_.size();
    {
        std::lock_guard<std::mutex> lock(state_mutex_);
        task_ = &task;
        pending_ = count;
        // Block w starts at ceil(count * w / workers), so block 0 is never
        // empty; the caller holds back its first index as it deals, so no
        // helper can steal index 0 from it.
        for (size_t w = 0; w < workers; ++w) {
            Block& block = *blocks_[w];
            std::lock_guard<std::mutex> block_lock(block.mutex);
            block.next = (count * w + workers - 1) / workers + (w == 0);
            block.end = (count * (w + 1) + workers - 1) / workers;
        }
        ++generation_;
    }
    if (!helpers_.empty()) range_posted_.notify_all();
    size_t index = 0;
    do {
        run_one(index);
    } while (try_take(0, index));
    std::unique_lock<std::mutex> lock(state_mutex_);
    all_done_.wait(lock, [this] { return pending_ == 0; });
}

bool ThreadPool::try_take(size_t self, size_t& index) {
    const size_t workers = blocks_.size();
    for (size_t offset = 0; offset < workers; ++offset) {
        Block& block = *blocks_[(self + offset) % workers];
        std::lock_guard<std::mutex> lock(block.mutex);
        if (block.next == block.end) continue;
        // The owner takes its block's front; a thief takes the back.
        index = offset == 0 ? block.next++ : --block.end;
        return true;
    }
    return false;
}

void ThreadPool::run_one(size_t index) {
    // task_ is read after the index was taken under a block mutex that
    // run_range() released after setting it; it stays valid until the
    // pending count below reaches zero and run_range() returns.
    try {
        (*task_)(index);
    } catch (...) {
        // Tasks own their error handling (see the header); an escaped
        // exception must not kill a helper or wedge the pending count.
    }
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (--pending_ == 0) all_done_.notify_all();
}

void ThreadPool::helper_loop(size_t self) {
    size_t seen = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(state_mutex_);
            // A range posted while this helper was still scanning has
            // already bumped the generation, so the helper scans again
            // instead of sleeping through it.
            range_posted_.wait(lock, [&] {
                return stopping_ || generation_ != seen;
            });
            if (stopping_) return;
            seen = generation_;
        }
        size_t index = 0;
        while (try_take(self, index)) run_one(index);
    }
}

}  // namespace slpwlo
