#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace rsnsec::obs {

class TraceSession;

/// Cheap copyable reference to an open span, used to attribute work that
/// crosses a thread boundary (a pool task parents to the span that was
/// open at the fan-out site, not to whatever runs on the worker).
struct SpanHandle {
  TraceSession* session = nullptr;
  std::uint64_t id = 0;
};

/// Named monotonic counter. add() is one relaxed atomic increment, so
/// counters may be bumped freely from concurrent pool tasks; because
/// addition commutes, totals are identical for any thread count as long
/// as the instrumented work itself is deterministic.
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::atomic<std::uint64_t> value_{0};
};

/// Named histogram over power-of-two buckets (bucket 0 holds value 0,
/// bucket b >= 1 holds [2^(b-1), 2^b)). Thread-safe like Counter.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  explicit Histogram(std::string name) : name_(std::move(name)) {}
  void record(std::uint64_t v);
  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  std::uint64_t bucket(std::size_t b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

/// Upper bound of the bucket holding quantile `q` of `h` (0 for bucket 0,
/// 2^b for bucket b, the recorded maximum for bucket 64, whose bound 2^64
/// does not fit): a factor-of-two estimate. 0 when `h` is empty.
std::uint64_t quantile_upper_bound(const Histogram& h, double q);

/// One completed span, as recorded by the session.
struct SpanEvent {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint32_t tid = 0;     ///< session-local dense thread id
  double start_us = 0.0;     ///< relative to session start
  double dur_us = 0.0;
};

/// Collects spans, counters and histograms for one tool invocation and
/// renders them as a chrome://tracing / Perfetto-loadable trace.json, a
/// JSON summary (merged into the report), or a text summary (--metrics).
///
/// Exactly one session is usually installed process-wide via
/// set_active(); every instrumentation site does
///
///   if (obs::TraceSession* t = obs::TraceSession::active()) { ... }
///
/// so the disabled-mode overhead is a single atomic load and branch.
/// All mutating members are thread-safe: events append under a mutex
/// (one lock per completed span), counters/histograms are atomics, and
/// the name registries hand out pointers that stay valid for the session
/// lifetime (deque storage, never reallocated).
class TraceSession {
 public:
  TraceSession();

  /// Process-wide ambient session (nullptr = tracing disabled).
  static TraceSession* active();
  static void set_active(TraceSession* session);

  /// Named counter/histogram; creates it on first use. The returned
  /// reference is stable for the session lifetime — hot paths may cache
  /// the pointer.
  Counter& counter(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Microseconds since session start (steady clock).
  double now_us() const;

  /// Dense id of the calling thread, assigned on first use; pairs with
  /// the thread name set via set_current_thread_name().
  std::uint32_t current_thread_id();

  /// Allocates a fresh span id (used by Span).
  std::uint64_t next_span_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Appends one completed span (used by Span::close).
  void record_span(SpanEvent event);

  /// Snapshot of all completed spans so far.
  std::vector<SpanEvent> events() const;
  std::size_t num_events() const;

  /// Sink 1: chrome://tracing "Trace Event Format" JSON — complete ("X")
  /// events per span, metadata thread names, and one counter ("C")
  /// sample per counter at the end of the session. Loadable in Perfetto
  /// (ui.perfetto.dev) and chrome://tracing.
  void write_chrome_trace(std::ostream& os) const;

  /// Sink 2: compact JSON summary object ({"counters": ..., "spans":
  /// ..., "histograms": ...}); `indent` prefixes every emitted line so
  /// the object can be embedded in an enclosing document.
  void write_summary_json(std::ostream& os,
                          const std::string& indent = "") const;

  /// Sink 2b: human-readable summary (the --metrics flag).
  void write_summary_text(std::ostream& os) const;

 private:
  using Clock = std::chrono::steady_clock;

  Clock::time_point t0_;
  std::uint64_t generation_ = 0;  ///< process-unique, keys the tid cache
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint32_t> next_tid_{0};

  mutable std::mutex mutex_;  // guards events_ and thread_names_
  std::vector<SpanEvent> events_;
  std::vector<std::string> thread_names_;  // indexed by dense tid

  mutable std::mutex registry_mutex_;  // guards the name -> slot maps
  std::deque<Counter> counters_;       // deque: stable addresses
  std::deque<Histogram> histograms_;
  std::map<std::string, Counter*, std::less<>> counter_by_name_;
  std::map<std::string, Histogram*, std::less<>> histogram_by_name_;
};

/// RAII trace span. Always captures a start timestamp (one steady-clock
/// read), so seconds() feeds wall-clock stats (DepStats, PipelineResult)
/// whether or not a session is recording; name copy, id assignment and
/// the close-time event record happen only when `session` is non-null.
///
/// Parent attribution: an explicit SpanHandle wins; otherwise the
/// innermost span open on this thread; otherwise the ambient task parent
/// installed by ScopedTaskParent (how ThreadPool tasks attribute to the
/// span that was open at the fan-out site). Spans must be closed on the
/// thread that opened them, innermost first (normal RAII nesting).
class Span {
 public:
  Span() = default;
  explicit Span(TraceSession* session, std::string_view name);
  Span(TraceSession* session, std::string_view name, SpanHandle parent);
  ~Span() { close(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span and records it; idempotent.
  void close();

  /// Seconds since the span opened (valid whether recording or not).
  double seconds() const;

  /// Handle for cross-thread parent attribution ({nullptr, 0} when the
  /// span is not recording).
  SpanHandle handle() const { return {session_, id_}; }

 private:
  friend SpanHandle current_context();

  std::chrono::steady_clock::time_point start_;
  TraceSession* session_ = nullptr;
  std::string name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  double start_us_ = 0.0;
  Span* prev_ = nullptr;  // enclosing span on this thread
};

/// The context new spans on this thread would parent to: the innermost
/// open span, else the ambient task parent. ThreadPool captures this at
/// fan-out and re-installs it on the executing thread.
SpanHandle current_context();

/// Bumps counter `name` on the ambient session, if one is installed.
/// Convenience for cold paths that do not cache the Counter pointer.
inline void bump(std::string_view name, std::uint64_t n = 1) {
  if (TraceSession* t = TraceSession::active()) t->counter(name).add(n);
}

/// Installs `parent` as this thread's ambient span parent for the
/// lifetime of the object (restores the previous one on destruction).
class ScopedTaskParent {
 public:
  explicit ScopedTaskParent(SpanHandle parent);
  ~ScopedTaskParent();

  ScopedTaskParent(const ScopedTaskParent&) = delete;
  ScopedTaskParent& operator=(const ScopedTaskParent&) = delete;

 private:
  SpanHandle saved_;
};

/// Names the calling thread for trace output ("pool-worker-3"). Cheap;
/// may be called before any session exists.
void set_current_thread_name(std::string_view name);

}  // namespace rsnsec::obs
