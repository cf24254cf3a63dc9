#pragma once

// Fair-share admission + execution for the serve daemon.
//
// Requests enter per-tenant FIFO queues under one global capacity bound;
// `workers` executor threads pull the next job round-robin across
// tenants with pending work. The fairness property: a tenant's k-th
// queued request waits behind at most one request from every *other*
// active tenant per round, never behind another tenant's whole backlog —
// a tenant flooding the daemon only slows itself down. When the global
// bound is hit, submit() returns Busy immediately and the connection
// layer answers with an SRV005 `busy` reply carrying retry_after_ms
// (explicit backpressure instead of unbounded buffering or blocked
// socket readers).
//
// Executor threads run the *request* level of parallelism: each runs its
// request's dependency analysis itself, and a secure request's resolution
// trials fan out onto the service's shared ThreadPool
// (ResolveOptions::pool), so total threads stay bounded no matter how
// many tenants connect.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace rsnsec::serve {

struct SchedulerOptions {
  /// Concurrent request executors (>= 1).
  std::size_t workers = 2;
  /// Global bound on queued (not yet running) requests across all
  /// tenants; submissions beyond it get Busy.
  std::size_t queue_capacity = 64;
};

class FairScheduler {
 public:
  enum class Admit {
    Accepted,  ///< queued; the job will run
    Busy,      ///< queue full — reply SRV005 with retry_after_ms()
    Stopping,  ///< drain in progress — reply SRV006
  };

  /// A job receives the time it spent queued (seconds), for the
  /// per-tenant queue-wait histograms.
  using Job = std::function<void(double queue_wait_seconds)>;

  explicit FairScheduler(SchedulerOptions options);
  ~FairScheduler();

  FairScheduler(const FairScheduler&) = delete;
  FairScheduler& operator=(const FairScheduler&) = delete;

  Admit submit(const std::string& tenant, Job job);

  /// Graceful shutdown: reject new submissions, run everything already
  /// queued, wait for in-flight jobs, join the executors. Idempotent.
  void drain_and_stop();

  std::size_t queue_depth() const;
  std::size_t capacity() const { return options_.queue_capacity; }
  std::size_t workers() const { return options_.workers; }

  /// Suggested client back-off for a Busy reply: grows with the queue
  /// backlog per executor, capped at one second.
  std::uint64_t retry_after_ms() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    Job fn;
    Clock::time_point enqueued;
  };
  struct TenantQueue {
    std::string name;
    std::deque<Pending> items;
  };

  void worker_loop();

  SchedulerOptions options_;
  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   // workers wait for jobs / stop
  std::condition_variable idle_cv_;   // drain waits for empty + idle
  std::vector<TenantQueue> queues_;   // grows per tenant, never shrinks
  std::unordered_map<std::string, std::size_t> tenant_index_;
  std::size_t cursor_ = 0;            // round-robin position
  std::size_t total_queued_ = 0;
  std::size_t in_flight_ = 0;
  bool draining_ = false;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace rsnsec::serve
