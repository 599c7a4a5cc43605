// Fixed-size worker pool with a parallel_for helper. Used for embarrassingly
// parallel work inside a single process: training the trees of a random
// forest and advancing the islands of an island GA. One likelihood
// evaluation is serial, and so is the simulation kernel; parallelism lives
// only in these independent units.
//
// Thread safety and shutdown/enqueue contract (mirrors log.hpp):
//
//  * submit() and parallel_for() are safe to call concurrently from any
//    thread, including from a task already running on a pool worker
//    (parallel_for is reentrant; the caller drains the range itself).
//  * Shutdown drains: the destructor stops intake first, then wakes every
//    worker, and workers keep executing already-queued tasks until the
//    queue is empty before exiting. A future obtained from submit() before
//    the destructor started is therefore always eventually ready.
//  * Enqueue-after-stop is a hard error: once the destructor has started,
//    submit() throws std::runtime_error instead of accepting a task whose
//    future could never resolve. Consequently submit() racing the
//    destructor is a caller lifetime bug — the caller must ensure (as
//    rf::Forest and IslandGaSearch do, by joining parallel_for before
//    releasing the pool) that no producer outlives the pool. The throw
//    turns such a bug into a loud failure instead of a silent hang, and is
//    asserted by test_util's EnqueueAfterStopThrows.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <thread>
#include <vector>

namespace lattice::util {

class ThreadPool {
 public:
  /// threads == 0 means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  /// Stop intake, execute every already-queued task, and join the workers.
  /// Idempotent when called again after returning; must not be called from
  /// two threads at once or from a pool task. The destructor calls this.
  void shutdown();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue a task; the future resolves with its result. Throws
  /// std::runtime_error if the pool is shutting down (see the
  /// shutdown/enqueue contract above).
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    {
      std::scoped_lock lock(mutex_);
      if (stopping_) {
        throw std::runtime_error(
            "ThreadPool::submit after shutdown started: the task's future "
            "could never become ready");
      }
      queue_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  /// Run body(i) for i in [0, n), blocking until all complete. Indices are
  /// claimed in contiguous chunks of at least `min_chunk` from a shared
  /// atomic cursor, so uneven per-index costs still balance. The calling
  /// thread participates in the work, which makes the call reentrant: a
  /// body running on a pool worker may itself call parallel_for on the
  /// same pool without deadlocking, because the caller drains the range
  /// even when every worker is busy.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                    std::size_t min_chunk = 1);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace lattice::util
