#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>

#include "util/check.hpp"

namespace odenet::util {

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0) {
    workers = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ODENET_CHECK(!stop_, "submit() on a stopped ThreadPool");
    queue_.push(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
}

namespace {
/// The pool whose task the current thread is executing (nullptr outside
/// workers). parallel_for consults this to run nested parallelism on the
/// SAME pool inline instead of deadlocking on wait_idle() from inside a
/// worker; a worker of one pool (e.g. a serving-runtime backend thread)
/// can still fan out onto a different pool.
thread_local const ThreadPool* tl_worker_pool = nullptr;
}  // namespace

void ThreadPool::worker_loop() {
  tl_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool([] {
    if (const char* env = std::getenv("ODENET_THREADS")) {
      long n = std::strtol(env, nullptr, 10);
      if (n > 0) return static_cast<std::size_t>(n);
    }
    return std::size_t{0};
  }());
  return pool;
}

namespace {
/// One parallel_for call's chunks. The caller and every worker that picks
/// up one of the call's tasks claim chunks in order until none is left;
/// the call returns once each chunk has finished. Queued tasks share
/// ownership, so one that starts after the call returned finds nothing to
/// claim and never touches `fn`.
struct ForkJoin {
  std::size_t begin = 0, end = 0, chunk = 0, chunks = 0;
  const std::function<void(std::size_t)>* fn = nullptr;
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  std::condition_variable finished;
  std::size_t done = 0;        // guarded by mutex
  std::exception_ptr error;    // first failure, guarded by mutex

  void drain() {
    for (std::size_t c = next.fetch_add(1); c < chunks;
         c = next.fetch_add(1)) {
      const std::size_t lo = begin + c * chunk;
      const std::size_t hi = std::min(end, lo + chunk);
      // A failing chunk stops; the other chunks still run, so every
      // claimed chunk is counted and the caller is always released.
      std::exception_ptr failure;
      try {
        for (std::size_t i = lo; i < hi; ++i) (*fn)(i);
      } catch (...) {
        failure = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(mutex);
      if (failure && !error) error = failure;
      if (++done == chunks) finished.notify_all();
    }
  }
};
}  // namespace

void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t grain) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t workers = pool.worker_count();
  if (tl_worker_pool == &pool || workers <= 1 || n <= grain) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  auto job = std::make_shared<ForkJoin>();
  job->begin = begin;
  job->end = end;
  // One contiguous chunk per worker at most; the boundaries depend only on
  // n, grain and the worker count, never on which thread runs a chunk.
  const std::size_t split = std::min(workers, (n + grain - 1) / grain);
  job->chunk = (n + split - 1) / split;
  job->chunks = (n + job->chunk - 1) / job->chunk;
  job->fn = &fn;

  // The caller runs chunks too, so it queues one task fewer than there
  // are chunks and waits only for chunks a worker has already claimed.
  for (std::size_t t = 1; t < job->chunks; ++t) {
    pool.submit([job] { job->drain(); });
  }
  job->drain();
  std::unique_lock<std::mutex> lock(job->mutex);
  job->finished.wait(lock, [&] { return job->done == job->chunks; });
  if (job->error) std::rethrow_exception(job->error);
}

}  // namespace odenet::util
