// Fixed-size host thread pool for the sharded scan engine.
//
// The simulator is deterministic by construction: all virtual-time and
// result state is partitioned per shard BEFORE work is submitted, so the
// pool only provides wall-clock parallelism — which worker thread runs
// which task, and in which order tasks finish, can never change a result.
// That makes this pool deliberately simple: one mutex-protected FIFO, no
// work stealing, futures for results and exception propagation.
//
// Lifecycle: the destructor drains every queued task (tasks submitted
// before destruction still run — their futures stay valid), then joins.
// A task that throws poisons only its own future; the worker thread and
// the rest of the queue keep going.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/error.hpp"

namespace ndpgen::support {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t threads) {
    NDPGEN_CHECK_ARG(threads >= 1, "thread pool needs at least one thread");
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    wake_.notify_all();
    for (auto& worker : workers_) worker.join();
  }

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues `fn` and returns a future for its result. A throwing task
  /// surfaces through the future's get(); the pool itself is unaffected.
  template <typename F>
  [[nodiscard]] auto submit(F&& fn)
      -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      NDPGEN_CHECK(!stopping_, "submit on a stopping thread pool");
      queue_.emplace_back([task] { (*task)(); });
    }
    wake_.notify_one();
    return future;
  }

  /// Sensible default worker count for `jobs` independent jobs: never more
  /// threads than jobs, never zero, capped at the hardware concurrency.
  [[nodiscard]] static std::size_t default_threads(std::size_t jobs) {
    const std::size_t hardware =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    return std::max<std::size_t>(1, std::min(jobs, hardware));
  }

  /// Worker count for `jobs` jobs when the caller asked for `requested`
  /// threads (0: default_threads): a worker beyond the job count would
  /// only ever wait, so the request is capped at `jobs`, never below one.
  [[nodiscard]] static std::size_t capped_threads(std::size_t requested,
                                                  std::size_t jobs) {
    if (requested == 0) return default_threads(jobs);
    return std::max<std::size_t>(1, std::min(requested, jobs));
  }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping_ and fully drained.
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();  // packaged_task captures any exception into the future.
    }
  }

  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// Runs `fn(i)` for every i in [0, jobs) on `pool` and blocks until all
/// complete. Exceptions are re-thrown in ascending job order (the lowest
/// failing index wins), so a multi-shard failure is reported
/// deterministically regardless of thread interleaving.
template <typename Fn>
void parallel_for(ThreadPool& pool, std::size_t jobs, Fn&& fn) {
  std::vector<std::future<void>> futures;
  futures.reserve(jobs);
  for (std::size_t i = 0; i < jobs; ++i) {
    futures.push_back(pool.submit([&fn, i] { fn(i); }));
  }
  std::exception_ptr first_error;
  for (auto& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace ndpgen::support
