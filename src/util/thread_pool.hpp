#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/trace.hpp"

namespace rsnsec {

/// Fixed-size worker pool with chunked data-parallel loops.
///
/// The pool fans out only over independent units of work: the resolution
/// trials, the lint passes and the benchmark sweeps. A loop whose steps
/// depend on each other, such as the pivots of the multi-cycle closure,
/// stays on the calling thread: a fork and join per step would cost more
/// than the step itself. So does the dependency analysis (Sec. III-A):
/// its cones became too cheap to pay for a fan-out. Design points:
///
///  - A pool of `num_threads` has `num_threads - 1` background workers;
///    the caller of parallel_for/parallel_chunks participates as the
///    last thread. A 1-thread pool spawns nothing and runs every loop
///    inline, so sequential and parallel execution share one code path.
///  - parallel_for splits [begin, end) into chunks claimed from an
///    atomic counter (work stealing by contended increment), which load-
///    balances cost-skewed iterations such as trials of different size.
///  - Because the caller participates, a loop body may itself call
///    parallel_for on the same pool (nested parallelism) without
///    deadlock: if all workers are busy, the nested caller simply runs
///    its own chunks inline.
///  - The first exception thrown by a loop body cancels the remaining
///    chunks and is rethrown in the caller; the pool stays usable.
class ThreadPool {
 public:
  /// Upper bound on any thread count taken from outside the program
  /// (--jobs, --workers, RSNSEC_JOBS), so a typo cannot ask the host for
  /// a million threads.
  static constexpr std::size_t kMaxThreads = 1024;

  /// Resolves a requested parallelism degree: `requested` if > 0, else
  /// the RSNSEC_JOBS environment variable if set to an integer in
  /// [1, kMaxThreads], else std::thread::hardware_concurrency() (at
  /// least 1).
  static std::size_t resolve_num_threads(std::size_t requested = 0);

  /// Creates a pool of `num_threads` (0 = resolve_num_threads()).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Parallelism degree (>= 1). 1 means all loops run inline.
  std::size_t num_threads() const { return num_threads_; }

  /// Enqueues a fire-and-forget task. Safe to call from worker threads
  /// (nested submission); tasks run in FIFO order per worker pickup.
  /// Pending tasks are drained before the destructor returns.
  void submit(std::function<void()> task);

  /// Applies fn(i) to every i in [begin, end). `grain` is the chunk size
  /// (0 = automatic: about 8 chunks per thread). Iteration order within
  /// a chunk is ascending; chunks may run concurrently, so fn must only
  /// touch state owned by iteration i (or otherwise thread-safe).
  template <typename Fn>
  void parallel_for(std::size_t begin, std::size_t end, Fn&& fn,
                    std::size_t grain = 0) {
    run_chunked(begin, end, grain,
                [&fn](std::size_t cb, std::size_t ce, std::size_t) {
                  for (std::size_t i = cb; i < ce; ++i) fn(i);
                });
  }

  /// Chunk-granular variant of parallel_for: chunk_fn(chunk_begin,
  /// chunk_end, chunk_index) is called once per chunk of [begin, end),
  /// chunk_index running over [0, num_chunks). Use when the loop body
  /// wants per-chunk scratch state (allocate once per chunk, reuse across
  /// the chunk's iterations) instead of per-iteration state — e.g. the
  /// violation-index candidate evaluation reuses one trial overlay per
  /// chunk. Chunks may run concurrently and are claimed dynamically, so
  /// chunk_index is NOT a thread id: a thread may run many chunks, and
  /// which thread runs which chunk is scheduling-dependent.
  template <typename ChunkFn>
  void parallel_chunks(std::size_t begin, std::size_t end, ChunkFn&& chunk_fn,
                       std::size_t grain = 0) {
    run_chunked(begin, end, grain, std::forward<ChunkFn>(chunk_fn));
  }

 private:
  /// Shared state of one parallel loop; kept alive by shared_ptr so a
  /// stale runner task dequeued after the loop finished finds an
  /// exhausted chunk counter and returns immediately.
  struct Batch {
    std::function<void(std::size_t, std::size_t, std::size_t)> chunk_fn;
    /// Span context open at the fan-out site; re-installed as the
    /// ambient parent on whichever thread runs a chunk, so spans opened
    /// inside the loop body attribute to the enclosing span even when
    /// they execute on a pool worker.
    obs::SpanHandle trace_parent;
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t grain = 1;
    std::size_t num_chunks = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> remaining{0};
    std::atomic<bool> cancelled{false};
    std::mutex mutex;
    std::condition_variable done;
    std::exception_ptr error;  // guarded by mutex
  };

  std::size_t effective_grain(std::size_t range, std::size_t grain) const;
  void run_chunked(
      std::size_t begin, std::size_t end, std::size_t grain,
      std::function<void(std::size_t, std::size_t, std::size_t)> chunk_fn);
  static void run_batch(const std::shared_ptr<Batch>& batch);
  void worker_loop();

  std::size_t num_threads_ = 1;
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  bool stop_ = false;
};

}  // namespace rsnsec
