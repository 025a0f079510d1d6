// Shared-memory work pool used by the software (PS-side) kernels.
//
// The convolution/batch-norm reference kernels parallelize over independent
// output slices with parallel_for(). Work is divided into contiguous static
// chunks (one per worker) so that results — including floating-point
// reductions that stay within a chunk — are deterministic for a fixed
// worker count.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace odenet::util {

/// Fixed-size thread pool with a blocking task queue.
class ThreadPool {
 public:
  /// Spawns `workers` threads; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const { return workers_.size(); }

  /// Enqueue a task; returns immediately.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished (engine shutdown);
  /// parallel_for does not use it, it waits for its own chunks only.
  void wait_idle();

  /// Process-wide default pool (size from ODENET_THREADS env or
  /// hardware_concurrency).
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

/// Runs fn(i) for i in [begin, end), split into one contiguous chunk per
/// worker. Executes inline when the range is small, the pool has a single
/// worker, or the caller is itself a worker of THIS pool (nested
/// parallel_for on the same pool is safe — it degrades to sequential
/// execution instead of deadlocking; workers of other pools fan out
/// normally). Otherwise the caller runs chunks alongside the workers and
/// returns once its own chunks are done: callers sharing a pool never
/// wait on each other's work, and an exception from fn surfaces in the
/// call that raised it (the first one, after the other chunks finish).
/// fn must be safe to call concurrently for distinct i.
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t grain = 1);

}  // namespace odenet::util
