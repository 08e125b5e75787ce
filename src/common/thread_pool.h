#ifndef TRACLUS_COMMON_THREAD_POOL_H_
#define TRACLUS_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace traclus::common {

/// Resolves a user-facing thread-count knob: any value ≤ 0 selects the
/// hardware concurrency (at least 1); positive values are used as given.
int ResolveNumThreads(int num_threads);

/// A fixed-size worker pool for the embarrassingly parallel phases of the
/// pipeline (per-trajectory MDL partitioning, batched ε-neighborhood queries,
/// pairwise distance evaluation).
///
/// Design constraints, in priority order:
///  1. Determinism of callers: the pool runs whatever closures it is given;
///     all helpers here (`ParallelFor`) index into caller-owned output slots so
///     results never depend on scheduling order.
///  2. `num_threads == 1` means *no worker threads at all*: tasks run inline on
///     the calling thread, byte-for-byte reproducing the serial seed behavior
///     (same allocation pattern, no synchronization overhead, trivially safe
///     for thread-compatible-but-not-thread-safe callees).
///  3. Exceptions thrown by tasks are captured and rethrown to the caller of
///     the owning `ParallelFor`/`Wait` — never lost, never `std::terminate`.
class ThreadPool {
 public:
  /// `num_threads` ≤ 0 selects hardware concurrency; 1 creates no workers.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of threads that execute work (including the inline path: never 0).
  int num_threads() const { return num_threads_; }

  /// Enqueues a task. Tasks start in FIFO order (completion order is up to the
  /// scheduler). With one thread the task runs immediately, inline.
  void Submit(std::function<void()> task) TRACLUS_EXCLUDES(mu_);

  /// Blocks until every submitted task has finished. Rethrows the first
  /// exception (in submission order of the failing tasks' observation) thrown
  /// by any task since the last Wait().
  void Wait() TRACLUS_EXCLUDES(mu_);

  /// Runs `body(i)` for every i in [begin, end), partitioned into contiguous
  /// chunks across the pool, and blocks until all iterations finish.
  ///
  /// `body` must be safe to invoke concurrently for distinct i and must write
  /// only to per-index state (or otherwise synchronize); under that contract
  /// the result is identical for every thread count. Empty ranges are a no-op;
  /// ranges smaller than the pool simply use fewer chunks. Exceptions from any
  /// iteration propagate to the caller after all chunks settle.
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t)>& body);

  /// Chunked variant: `body(chunk_begin, chunk_end)` per contiguous chunk.
  /// Useful when per-iteration dispatch is too fine-grained.
  void ParallelForChunked(
      size_t begin, size_t end,
      const std::function<void(size_t, size_t)>& body);

 private:
  void WorkerLoop() TRACLUS_EXCLUDES(mu_);
  void RecordException(std::exception_ptr e) TRACLUS_EXCLUDES(mu_);

  // Immutable after construction; safe to read from any thread unlocked.
  int num_threads_ = 1;
  std::vector<std::thread> workers_;

  Mutex mu_;
  CondVar task_ready_;
  CondVar all_done_;
  std::deque<std::function<void()>> queue_ TRACLUS_GUARDED_BY(mu_);
  /// Queued + currently executing tasks.
  size_t in_flight_ TRACLUS_GUARDED_BY(mu_) = 0;
  bool shutdown_ TRACLUS_GUARDED_BY(mu_) = false;
  /// First failure since the last Wait().
  std::exception_ptr first_error_ TRACLUS_GUARDED_BY(mu_);
};

/// Shared process-wide pool keyed by thread count, so repeated pipeline runs
/// (benchmarks, the CLI, tests) do not pay thread spawn cost per phase.
/// Returns a pool with `ResolveNumThreads(num_threads)` threads.
///
/// Ownership: the pools live in a registry with a real destructor, so every
/// worker thread is joined and every pool freed deterministically — at the
/// latest during static destruction, or earlier via `ShutdownSharedPools()`.
/// Do not call SharedPool from static destructors that run after the
/// registry's (it would be use-after-destroy), and do not hold the returned
/// reference across a `ShutdownSharedPools()` call.
ThreadPool& SharedPool(int num_threads);

/// Joins and destroys every pool the registry currently owns. Safe to call
/// when no pipeline run is in flight; subsequent `SharedPool` calls lazily
/// recreate pools. Intended for embedders that need worker threads gone at a
/// deterministic point (library unload, leak-checked test teardown).
void ShutdownSharedPools();

}  // namespace traclus::common

#endif  // TRACLUS_COMMON_THREAD_POOL_H_
