#include "util/thread_pool.hpp"

#include <cstdlib>
#include <optional>

namespace rsnsec {

std::size_t ThreadPool::resolve_num_threads(std::size_t requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("RSNSEC_JOBS")) {
    char* end = nullptr;
    unsigned long v = std::strtoul(env, &end, 10);
    if (end != env && v > 0 && v <= kMaxThreads)
      return static_cast<std::size_t>(v);
  }
  unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? hc : 1;
}

ThreadPool::ThreadPool(std::size_t num_threads)
    : num_threads_(num_threads == 0 ? resolve_num_threads() : num_threads) {
  workers_.reserve(num_threads_ - 1);
  for (std::size_t t = 1; t < num_threads_; ++t)
    workers_.emplace_back([this, t] {
      obs::set_current_thread_name("pool-worker-" + std::to_string(t));
      worker_loop();
    });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  // Workers drain the queue before exiting, so every submitted task has
  // run by now.
}

void ThreadPool::submit(std::function<void()> task) {
  if (workers_.empty()) {
    // Inline mode: run immediately on the caller.
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    queue_.push_back(std::move(task));
  }
  queue_cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

std::size_t ThreadPool::effective_grain(std::size_t range,
                                        std::size_t grain) const {
  if (grain > 0) return grain;
  // Automatic: about 8 chunks per thread, so cost skew between chunks
  // still balances while per-chunk claiming overhead stays negligible.
  std::size_t target_chunks = num_threads_ * 8;
  std::size_t g = (range + target_chunks - 1) / target_chunks;
  return g > 0 ? g : 1;
}

void ThreadPool::run_batch(const std::shared_ptr<Batch>& batch) {
  // Attribute spans opened by chunk bodies to the loop's enclosing span
  // (no-op when tracing is off: two thread_local assignments).
  obs::ScopedTaskParent task_parent(batch->trace_parent);
  for (;;) {
    std::size_t chunk = batch->next.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= batch->num_chunks) return;
    if (!batch->cancelled.load(std::memory_order_relaxed)) {
      std::size_t cb = batch->begin + chunk * batch->grain;
      std::size_t ce = cb + batch->grain < batch->end ? cb + batch->grain
                                                      : batch->end;
      try {
        batch->chunk_fn(cb, ce, chunk);
      } catch (...) {
        std::lock_guard<std::mutex> lock(batch->mutex);
        if (!batch->error) batch->error = std::current_exception();
        batch->cancelled.store(true, std::memory_order_relaxed);
      }
    }
    if (batch->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(batch->mutex);
      batch->done.notify_all();
    }
  }
}

void ThreadPool::run_chunked(
    std::size_t begin, std::size_t end, std::size_t grain,
    std::function<void(std::size_t, std::size_t, std::size_t)> chunk_fn) {
  if (begin >= end) return;
  const std::size_t range = end - begin;
  const std::size_t g = effective_grain(range, grain);
  const std::size_t num_chunks = (range + g - 1) / g;

  obs::TraceSession* trace = obs::TraceSession::active();
  std::optional<obs::Span> loop_span;
  if (trace != nullptr) {
    loop_span.emplace(trace, "pool.loop");
    trace->counter("pool.loops").add(1);
    trace->counter("pool.chunks").add(num_chunks);
  }

  if (workers_.empty() || num_chunks == 1) {
    // Inline: sequential ascending, exceptions propagate naturally.
    for (std::size_t chunk = 0; chunk < num_chunks; ++chunk) {
      std::size_t cb = begin + chunk * g;
      std::size_t ce = cb + g < end ? cb + g : end;
      chunk_fn(cb, ce, chunk);
    }
    return;
  }

  auto batch = std::make_shared<Batch>();
  batch->chunk_fn = std::move(chunk_fn);
  batch->trace_parent = obs::current_context();
  batch->begin = begin;
  batch->end = end;
  batch->grain = g;
  batch->num_chunks = num_chunks;
  batch->remaining.store(num_chunks, std::memory_order_relaxed);

  // One runner per worker (capped by the chunk count); the caller is the
  // final runner, which guarantees progress even when every worker is
  // occupied by an enclosing loop (nested parallel_for).
  std::size_t helpers = workers_.size() < num_chunks - 1 ? workers_.size()
                                                         : num_chunks - 1;
  for (std::size_t t = 0; t < helpers; ++t)
    submit([batch] { run_batch(batch); });
  run_batch(batch);

  std::unique_lock<std::mutex> lock(batch->mutex);
  batch->done.wait(lock, [&] {
    return batch->remaining.load(std::memory_order_acquire) == 0;
  });
  if (batch->error) std::rethrow_exception(batch->error);
}

}  // namespace rsnsec
