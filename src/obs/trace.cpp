#include "obs/trace.hpp"

#include <bit>
#include <cstring>
#include <iomanip>
#include <ostream>

#include "util/strings.hpp"  // json_escape (header-only, no link dep)

namespace rsnsec::obs {

namespace {

std::atomic<TraceSession*> g_active{nullptr};

// Per-thread span context. `t_current` is the innermost open span on
// this thread; `t_task_parent` the ambient parent a pool task inherited
// from its fan-out site. Plain thread_locals: no cross-thread access.
thread_local Span* t_current = nullptr;
thread_local SpanHandle t_task_parent;

// Per-thread display name and per-(thread, session) dense-id cache. The
// cache is keyed on a session generation, not the address — a later
// session allocated at a freed session's address must not see stale ids.
std::atomic<std::uint64_t> g_session_generation{0};
thread_local char t_thread_name[64] = {0};
thread_local std::uint64_t t_tid_generation = 0;
thread_local std::uint32_t t_tid = 0;

}  // namespace

void Histogram::record(std::uint64_t v) {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  std::uint64_t prev = max_.load(std::memory_order_relaxed);
  while (prev < v &&
         !max_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
  }
  std::size_t b = v == 0 ? 0 : static_cast<std::size_t>(std::bit_width(v));
  buckets_[b].fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t quantile_upper_bound(const Histogram& h, double q) {
  const std::uint64_t count = h.count();
  if (count == 0) return 0;
  std::uint64_t rank = static_cast<std::uint64_t>(q * count);
  if (rank >= count) rank = count - 1;
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    seen += h.bucket(b);
    if (seen > rank) {
      if (b == 0) return 0;
      return b < 64 ? std::uint64_t{1} << b : h.max();
    }
  }
  return h.max();
}

TraceSession::TraceSession()
    : t0_(Clock::now()),
      generation_(
          g_session_generation.fetch_add(1, std::memory_order_relaxed) + 1) {}

TraceSession* TraceSession::active() {
  return g_active.load(std::memory_order_acquire);
}

void TraceSession::set_active(TraceSession* session) {
  g_active.store(session, std::memory_order_release);
}

Counter& TraceSession::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  auto it = counter_by_name_.find(name);
  if (it != counter_by_name_.end()) return *it->second;
  counters_.emplace_back(std::string(name));
  Counter* c = &counters_.back();
  counter_by_name_.emplace(c->name(), c);
  return *c;
}

Histogram& TraceSession::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  auto it = histogram_by_name_.find(name);
  if (it != histogram_by_name_.end()) return *it->second;
  histograms_.emplace_back(std::string(name));
  Histogram* h = &histograms_.back();
  histogram_by_name_.emplace(h->name(), h);
  return *h;
}

double TraceSession::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
      .count();
}

std::uint32_t TraceSession::current_thread_id() {
  if (t_tid_generation == generation_) return t_tid;
  std::uint32_t tid = next_tid_.fetch_add(1, std::memory_order_relaxed);
  t_tid_generation = generation_;
  t_tid = tid;
  std::lock_guard<std::mutex> lock(mutex_);
  if (thread_names_.size() <= tid) thread_names_.resize(tid + 1);
  thread_names_[tid] = t_thread_name[0] != '\0'
                           ? std::string(t_thread_name)
                           : (tid == 0 ? "main" : "thread-" +
                                                      std::to_string(tid));
  return tid;
}

void TraceSession::record_span(SpanEvent event) {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(std::move(event));
}

std::vector<SpanEvent> TraceSession::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

std::size_t TraceSession::num_events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

void TraceSession::write_chrome_trace(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::lock_guard<std::mutex> reg_lock(registry_mutex_);
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  auto sep = [&]() -> std::ostream& {
    os << (first ? "\n" : ",\n");
    first = false;
    return os;
  };
  for (std::size_t tid = 0; tid < thread_names_.size(); ++tid) {
    sep() << " {\"ph\": \"M\", \"pid\": 1, \"tid\": " << tid
          << ", \"name\": \"thread_name\", \"args\": {\"name\": \""
          << json_escape(thread_names_[tid]) << "\"}}";
  }
  std::ostream::fmtflags flags = os.flags();
  os << std::fixed << std::setprecision(3);
  for (const SpanEvent& e : events_) {
    sep() << " {\"ph\": \"X\", \"pid\": 1, \"tid\": " << e.tid
          << ", \"name\": \"" << json_escape(e.name)
          << "\", \"ts\": " << e.start_us << ", \"dur\": " << e.dur_us
          << ", \"args\": {\"id\": " << e.id << ", \"parent\": " << e.parent
          << "}}";
  }
  const double end_us = now_us();
  for (const Counter& c : counters_) {
    sep() << " {\"ph\": \"C\", \"pid\": 1, \"tid\": 0, \"name\": \""
          << json_escape(c.name()) << "\", \"ts\": " << end_us
          << ", \"args\": {\"value\": " << c.value() << "}}";
  }
  os.flags(flags);
  os << (first ? "]}" : "\n]}") << "\n";
}

void TraceSession::write_summary_json(std::ostream& os,
                                      const std::string& indent) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::lock_guard<std::mutex> reg_lock(registry_mutex_);
  os << "{\n";
  os << indent << "  \"counters\": {";
  bool first = true;
  for (const Counter& c : counters_) {
    os << (first ? "\n" : ",\n") << indent << "    \""
       << json_escape(c.name()) << "\": " << c.value();
    first = false;
  }
  os << (first ? "" : "\n" + indent + "  ") << "},\n";
  os << indent << "  \"histograms\": {";
  first = true;
  for (const Histogram& h : histograms_) {
    os << (first ? "\n" : ",\n") << indent << "    \""
       << json_escape(h.name()) << "\": {\"count\": " << h.count()
       << ", \"sum\": " << h.sum() << ", \"max\": " << h.max() << "}";
    first = false;
  }
  os << (first ? "" : "\n" + indent + "  ") << "},\n";
  // Per-name span rollup in first-appearance order.
  std::vector<std::string> order;
  std::map<std::string, std::pair<std::uint64_t, double>, std::less<>>
      rollup;
  for (const SpanEvent& e : events_) {
    auto [it, inserted] = rollup.try_emplace(e.name, 0, 0.0);
    if (inserted) order.push_back(e.name);
    ++it->second.first;
    it->second.second += e.dur_us;
  }
  os << indent << "  \"spans\": {";
  first = true;
  std::ostream::fmtflags flags = os.flags();
  os << std::fixed << std::setprecision(6);
  for (const std::string& name : order) {
    const auto& [count, total_us] = rollup.find(name)->second;
    os << (first ? "\n" : ",\n") << indent << "    \"" << json_escape(name)
       << "\": {\"count\": " << count
       << ", \"total_seconds\": " << total_us / 1e6 << "}";
    first = false;
  }
  os.flags(flags);
  os << (first ? "" : "\n" + indent + "  ") << "}\n";
  os << indent << "}";
}

void TraceSession::write_summary_text(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::lock_guard<std::mutex> reg_lock(registry_mutex_);
  os << "== metrics ==\n";
  if (!counters_.empty()) {
    os << "counters:\n";
    for (const Counter& c : counters_)
      os << "  " << std::left << std::setw(36) << c.name() << std::right
         << std::setw(12) << c.value() << "\n";
  }
  if (!histograms_.empty()) {
    os << "histograms (count / mean / max):\n";
    for (const Histogram& h : histograms_) {
      double mean = h.count() ? static_cast<double>(h.sum()) /
                                    static_cast<double>(h.count())
                              : 0.0;
      os << "  " << std::left << std::setw(36) << h.name() << std::right
         << std::setw(12) << h.count() << std::fixed << std::setprecision(1)
         << std::setw(12) << mean << std::setw(12) << h.max() << "\n";
      os.unsetf(std::ios::fixed);
    }
  }
  std::vector<std::string> order;
  std::map<std::string, std::pair<std::uint64_t, double>, std::less<>>
      rollup;
  for (const SpanEvent& e : events_) {
    auto [it, inserted] = rollup.try_emplace(e.name, 0, 0.0);
    if (inserted) order.push_back(e.name);
    ++it->second.first;
    it->second.second += e.dur_us;
  }
  if (!order.empty()) {
    os << "spans (count / total seconds):\n";
    for (const std::string& name : order) {
      const auto& [count, total_us] = rollup.find(name)->second;
      os << "  " << std::left << std::setw(36) << name << std::right
         << std::setw(12) << count << std::fixed << std::setprecision(4)
         << std::setw(12) << total_us / 1e6 << "\n";
      os.unsetf(std::ios::fixed);
    }
  }
}

Span::Span(TraceSession* session, std::string_view name)
    : Span(session, name, SpanHandle{}) {}

Span::Span(TraceSession* session, std::string_view name, SpanHandle parent)
    : start_(std::chrono::steady_clock::now()) {
  if (session == nullptr) return;
  session_ = session;
  name_.assign(name);
  id_ = session->next_span_id();
  if (parent.session == session && parent.id != 0) {
    parent_ = parent.id;
  } else if (t_current != nullptr && t_current->session_ == session) {
    parent_ = t_current->id_;
  } else if (t_task_parent.session == session) {
    parent_ = t_task_parent.id;
  }
  start_us_ = session->now_us();
  prev_ = t_current;
  t_current = this;
}

void Span::close() {
  if (session_ == nullptr) return;
  TraceSession* session = session_;
  session_ = nullptr;
  t_current = prev_;
  SpanEvent e;
  e.name = std::move(name_);
  e.id = id_;
  e.parent = parent_;
  e.tid = session->current_thread_id();
  e.start_us = start_us_;
  e.dur_us = session->now_us() - start_us_;
  session->record_span(std::move(e));
}

double Span::seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

SpanHandle current_context() {
  if (t_current != nullptr) return {t_current->session_, t_current->id_};
  return t_task_parent;
}

ScopedTaskParent::ScopedTaskParent(SpanHandle parent)
    : saved_(t_task_parent) {
  t_task_parent = parent;
}

ScopedTaskParent::~ScopedTaskParent() { t_task_parent = saved_; }

void set_current_thread_name(std::string_view name) {
  std::size_t n = name.size() < sizeof(t_thread_name) - 1
                      ? name.size()
                      : sizeof(t_thread_name) - 1;
  std::memcpy(t_thread_name, name.data(), n);
  t_thread_name[n] = '\0';
}

}  // namespace rsnsec::obs
