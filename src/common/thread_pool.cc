#include "common/thread_pool.h"

#include <algorithm>

#include "common/check.h"

namespace bhpo {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  task_available_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::RunOneTaskLocked(std::unique_lock<std::mutex>* lock) {
  Task task = std::move(tasks_.front());
  tasks_.pop();
  lock->unlock();
  task.fn();
  lock->lock();
  if (--task.batch->pending == 0) {
    // The batch owner waits under mutex_, so notifying while holding the
    // lock is safe: it cannot destroy the Batch until we release it.
    task.batch->done.notify_all();
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (workers_.size() == 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  Batch batch;
  batch.pending = n;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    BHPO_CHECK(!shutting_down_) << "ParallelFor after shutdown";
    for (size_t i = 0; i < n; ++i) {
      tasks_.push(Task{[&fn, i] { fn(i); }, &batch});
    }
  }
  task_available_.notify_all();

  // Help drain the queue instead of blocking on our batch: a pool worker
  // that issues a nested ParallelFor keeps executing tasks (its own or
  // anyone else's), so the pool always makes progress. We only sleep once
  // the queue is empty, at which point every remaining task of our batch is
  // running on some other thread and will signal `done`.
  std::unique_lock<std::mutex> lock(mutex_);
  while (batch.pending > 0) {
    if (!tasks_.empty()) {
      RunOneTaskLocked(&lock);
    } else {
      batch.done.wait(lock, [&batch] { return batch.pending == 0; });
    }
  }
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    task_available_.wait(
        lock, [this] { return shutting_down_ || !tasks_.empty(); });
    if (tasks_.empty()) return;  // Shutting down and fully drained.
    RunOneTaskLocked(&lock);
  }
}

}  // namespace bhpo
