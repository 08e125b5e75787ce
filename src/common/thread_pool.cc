#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>

#include "common/logging.h"

namespace traclus::common {

int ResolveNumThreads(int num_threads) {
  if (num_threads > 0) return num_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(ResolveNumThreads(num_threads)) {
  // num_threads_ == 1 runs everything inline on the caller: no workers.
  workers_.reserve(num_threads_ > 1 ? num_threads_ : 0);
  for (int t = 1; t < num_threads_; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  task_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::RecordException(std::exception_ptr e) {
  MutexLock lock(mu_);
  if (!first_error_) first_error_ = std::move(e);
}

void ThreadPool::Submit(std::function<void()> task) {
  TRACLUS_DCHECK(task != nullptr);
  if (workers_.empty()) {
    // Single-threaded pool: run inline, exactly as the serial code would.
    try {
      task();
    } catch (...) {
      RecordException(std::current_exception());
    }
    return;
  }
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  task_ready_.notify_one();
}

void ThreadPool::Wait() {
  if (!workers_.empty()) {
    // Drain the queue on the calling thread too: Wait() participates instead
    // of idling, which also keeps single-producer workloads latency-bound on
    // the slowest task rather than on queue handoff.
    for (;;) {
      std::function<void()> task;
      {
        MutexLock lock(mu_);
        if (queue_.empty()) break;
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      try {
        task();
      } catch (...) {
        RecordException(std::current_exception());
      }
      {
        MutexLock lock(mu_);
        --in_flight_;
      }
      all_done_.notify_all();
    }
    MutexLock lock(mu_);
    while (in_flight_ != 0) all_done_.wait(mu_);
  }
  std::exception_ptr err;
  {
    MutexLock lock(mu_);
    std::swap(err, first_error_);
  }
  if (err) std::rethrow_exception(err);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && queue_.empty()) task_ready_.wait(mu_);
      if (queue_.empty()) return;  // Shutdown with a drained queue.
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      task();
    } catch (...) {
      RecordException(std::current_exception());
    }
    {
      MutexLock lock(mu_);
      --in_flight_;
    }
    all_done_.notify_all();
  }
}

namespace {

// Per-ParallelFor completion state. Each call owns its own counters and error
// slot so concurrent ParallelFor calls on one (shared) pool never observe each
// other's progress; worker tasks keep the state alive via shared_ptr in case
// a straggler task starts after the caller has already returned.
struct ParallelCallState {
  std::atomic<size_t> next_chunk{0};
  // Release on the finishing increment / acquire on the caller's check: the
  // edge that publishes every chunk body's writes to the caller even when the
  // caller never sleeps on the condition variable (see ParallelForChunked).
  std::atomic<size_t> chunks_done{0};
  size_t num_chunks = 0;
  size_t begin = 0;
  size_t end = 0;
  size_t chunk = 0;
  const std::function<void(size_t, size_t)>* body = nullptr;
  Mutex mu;
  CondVar all_done;
  std::exception_ptr error TRACLUS_GUARDED_BY(mu);
};

// Claims chunks off `state` until none remain. Chunk -> index-range mapping is
// fixed up front, so which thread runs a chunk never affects what it computes.
void RunChunks(const std::shared_ptr<ParallelCallState>& state) {
  for (;;) {
    const size_t c = state->next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (c >= state->num_chunks) return;
    const size_t lo = state->begin + c * state->chunk;
    const size_t hi = std::min(lo + state->chunk, state->end);
    try {
      (*state->body)(lo, hi);
    } catch (...) {
      MutexLock lock(state->mu);
      if (!state->error) state->error = std::current_exception();
    }
    if (state->chunks_done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        state->num_chunks) {
      // Lock pairs with the waiter's predicate check so the notify cannot
      // slip between its predicate evaluation and its sleep.
      MutexLock lock(state->mu);
      state->all_done.notify_all();
    }
  }
}

}  // namespace

void ThreadPool::ParallelForChunked(
    size_t begin, size_t end, const std::function<void(size_t, size_t)>& body) {
  if (begin >= end) return;
  const size_t n = end - begin;
  const size_t threads = static_cast<size_t>(num_threads_);
  if (threads == 1 || n == 1) {
    body(begin, end);
    return;
  }
  // Oversubscribe chunks 4x so stragglers (trajectories of uneven length,
  // dense vs sparse neighborhoods) load-balance, while keeping chunks
  // contiguous so outputs merge deterministically by index. After rounding
  // the chunk size up, recompute the chunk count so the last chunk ends
  // exactly at `end` — otherwise ceil-rounding would produce phantom chunks
  // with lo ≥ end (e.g. n=10 on 2 threads: 8 chunks of 2 covers 16 > 10).
  const size_t target_chunks = std::min(n, threads * 4);
  const size_t chunk = (n + target_chunks - 1) / target_chunks;
  const size_t num_chunks = (n + chunk - 1) / chunk;
  auto state = std::make_shared<ParallelCallState>();
  state->num_chunks = num_chunks;
  state->begin = begin;
  state->end = end;
  state->chunk = chunk;
  state->body = &body;

  // The caller claims chunks too, so progress is guaranteed even when every
  // worker is busy with other calls (e.g. a nested ParallelFor). If enqueuing
  // a helper throws (allocation failure), the error must not propagate until
  // every chunk has settled: already-queued helpers hold `state` and would
  // otherwise race a dead `body`.
  std::exception_ptr submit_error;
  const size_t helpers = std::min(threads - 1, num_chunks - 1);
  try {
    for (size_t t = 0; t < helpers; ++t) {
      Submit([state] { RunChunks(state); });
    }
  } catch (...) {
    submit_error = std::current_exception();
  }
  RunChunks(state);

  MutexLock lock(state->mu);
  while (state->chunks_done.load(std::memory_order_acquire) !=
         state->num_chunks) {
    state->all_done.wait(state->mu);
  }
  if (state->error) std::rethrow_exception(state->error);
  if (submit_error) std::rethrow_exception(submit_error);
}

void ThreadPool::ParallelFor(size_t begin, size_t end,
                             const std::function<void(size_t)>& body) {
  ParallelForChunked(begin, end, [&body](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) body(i);
  });
}

namespace {

// Owner of the shared pools. A function-local singleton with a real
// destructor: joining idle workers at static destruction is safe because
// every task a pool can still hold is a ParallelFor straggler whose state is
// kept alive by shared_ptr (see RunChunks) — no task touches other statics.
class SharedPoolRegistry {
 public:
  static SharedPoolRegistry& Instance() {
    static SharedPoolRegistry registry;
    return registry;
  }

  ThreadPool& Get(int resolved_threads) TRACLUS_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    auto& slot = pools_[resolved_threads];
    if (!slot) slot = std::make_unique<ThreadPool>(resolved_threads);
    return *slot;
  }

  void Clear() TRACLUS_EXCLUDES(mu_) {
    // Joining under the lock is fine: callers must not have a run in flight,
    // and pool workers never call back into SharedPool while draining.
    MutexLock lock(mu_);
    pools_.clear();
  }

 private:
  Mutex mu_;
  std::map<int, std::unique_ptr<ThreadPool>> pools_ TRACLUS_GUARDED_BY(mu_);
};

}  // namespace

ThreadPool& SharedPool(int num_threads) {
  return SharedPoolRegistry::Instance().Get(ResolveNumThreads(num_threads));
}

void ShutdownSharedPools() { SharedPoolRegistry::Instance().Clear(); }

}  // namespace traclus::common
