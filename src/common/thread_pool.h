#ifndef BHPO_COMMON_THREAD_POOL_H_
#define BHPO_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace bhpo {

// Fixed-size worker pool for evaluating independent hyperparameter
// configurations (or cross-validation folds) in parallel. HPO evaluation is
// embarrassingly parallel within a rung, and each evaluation is again
// parallel across its CV folds, so ParallelFor supports *nested* use: a
// worker that issues a ParallelFor helps drain the task queue instead of
// blocking, which keeps two-level parallelism (configs x folds) deadlock
// free on a single shared pool. Work stealing and priorities are
// intentionally out of scope.
class ThreadPool {
 public:
  // num_threads == 0 means hardware_concurrency (at least 1).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  // Runs fn(i) for i in [0, n), partitioned across the pool, and blocks
  // until all iterations complete. Safe to call from inside a pool worker:
  // the caller executes queued tasks itself while its batch is pending, so
  // nested invocations make progress instead of deadlocking. Falls back to
  // a serial loop when the pool has a single worker to avoid pointless
  // queueing overhead.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

 private:
  // Completion tracker for one ParallelFor call; lives on the caller's
  // stack for the duration of the call.
  struct Batch {
    size_t pending = 0;
    std::condition_variable done;
  };
  struct Task {
    std::function<void()> fn;
    Batch* batch = nullptr;  // The ParallelFor call the task belongs to.
  };

  void WorkerLoop();
  // Pops and runs the front task. Called (and returns) with *lock held;
  // the lock is released while the task body runs.
  void RunOneTaskLocked(std::unique_lock<std::mutex>* lock);

  std::vector<std::thread> workers_;
  std::queue<Task> tasks_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  bool shutting_down_ = false;
};

}  // namespace bhpo

#endif  // BHPO_COMMON_THREAD_POOL_H_
