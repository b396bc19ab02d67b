// A small fixed-size thread pool.
//
// The pool hands out *blocked ranges*: a parallel region enqueues one task
// per worker, each task repeatedly grabs chunks of the iteration space via
// an atomic cursor (guided self-scheduling).  This keeps the pool free of
// per-item overhead while still load-balancing irregular graph work such as
// frontier expansion.
//
// A process-wide default pool (sized from std::thread::hardware_concurrency,
// overridable with the GCLUS_THREADS environment variable) serves all
// library kernels; tests construct private pools to exercise specific
// worker counts.
//
// Nesting: a pool's workers are busy for the whole of a job, so a job that
// dispatches again on the *same* pool can never be served.  The index-space
// helpers of par/parallel_for.hpp therefore check on_worker_thread() and run
// inline when called from one of the pool's own workers (a kernel that is
// parallel at top level is serial inside another parallel region of its
// pool).  Raw nested run_on_workers on the same pool still aborts.  Calls
// on a *different* pool dispatch as usual.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gclus {

class ThreadPool {
 public:
  /// Creates `num_threads` workers.  `num_threads == 1` short-circuits all
  /// dispatch: work runs inline on the caller (useful for debugging and for
  /// deterministic baselines in tests).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t num_threads() const { return num_threads_; }

  /// Runs `fn(worker_index)` on every worker (and on the caller for pools of
  /// size 1) and blocks until all invocations return.  `fn` must be safe to
  /// call concurrently from distinct threads.
  void run_on_workers(const std::function<void(std::size_t)>& fn);

  /// True when the calling thread is one of this pool's workers, i.e. it
  /// is inside a run_on_workers job of this pool.
  [[nodiscard]] bool on_worker_thread() const;

  /// Process-wide pool.  First call creates it; sizing honours
  /// GCLUS_THREADS if set, else hardware_concurrency (min 1).
  static ThreadPool& global();

 private:
  void worker_loop(std::size_t index);

  std::size_t num_threads_;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t epoch_ = 0;       // bumped per job; workers wait for a new epoch
  std::size_t outstanding_ = 0; // workers still running the current job
  bool shutdown_ = false;
};

}  // namespace gclus
