#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "support/minijson.hpp"
#include "util/thread_pool.hpp"

// Allocation counter for the disabled-overhead test. Counting every
// global operator new in the test binary is coarse, but the assertion
// only needs "zero new allocations across this region".
static std::atomic<std::size_t> g_allocs{0};

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace rsnsec::obs {
namespace {

using testsupport::is_valid_json;

/// Restores the ambient session on scope exit, so a failing test cannot
/// leak an active session into the next one.
struct SessionGuard {
  explicit SessionGuard(TraceSession* s) { TraceSession::set_active(s); }
  ~SessionGuard() { TraceSession::set_active(nullptr); }
};

TEST(Counter, AddsAndReads) {
  TraceSession session;
  session.counter("a").add(3);
  session.counter("a").add(4);
  session.counter("b").add(1);
  EXPECT_EQ(session.counter("a").value(), 7u);
  EXPECT_EQ(session.counter("b").value(), 1u);
}

TEST(Counter, ReferencesAreStableAcrossManyRegistrations) {
  TraceSession session;
  Counter& first = session.counter("first");
  for (int i = 0; i < 200; ++i)
    session.counter("c" + std::to_string(i)).add(1);
  first.add(5);
  EXPECT_EQ(session.counter("first").value(), 5u);
}

TEST(Histogram, PowerOfTwoBuckets) {
  TraceSession session;
  Histogram& h = session.histogram("h");
  for (std::uint64_t v : {0u, 1u, 2u, 3u, 8u}) h.record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 14u);
  EXPECT_EQ(h.max(), 8u);
  EXPECT_EQ(h.bucket(0), 1u);  // value 0
  EXPECT_EQ(h.bucket(1), 1u);  // value 1
  EXPECT_EQ(h.bucket(2), 2u);  // values 2, 3
  EXPECT_EQ(h.bucket(4), 1u);  // value 8
  // Quantiles read back as the upper bound of their bucket.
  EXPECT_EQ(quantile_upper_bound(h, 0.0), 0u);
  EXPECT_EQ(quantile_upper_bound(h, 0.5), 4u);
  EXPECT_EQ(quantile_upper_bound(h, 0.99), 16u);
  // Bucket 64 holds [2^63, 2^64): its bound does not fit, so the maximum
  // stands in for it.
  h.record(~std::uint64_t{0} - 1);
  EXPECT_EQ(h.bucket(64), 1u);
  EXPECT_EQ(quantile_upper_bound(h, 1.0), ~std::uint64_t{0} - 1);
  EXPECT_EQ(quantile_upper_bound(Histogram("empty"), 0.5), 0u);
}

TEST(Span, RecordsNestingOnOneThread) {
  TraceSession session;
  {
    Span outer(&session, "outer");
    Span inner(&session, "inner");
  }
  std::vector<SpanEvent> events = session.events();
  ASSERT_EQ(events.size(), 2u);
  // Spans close innermost-first.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(events[0].parent, events[1].id);
  EXPECT_EQ(events[1].parent, 0u);
  EXPECT_GE(events[0].start_us, events[1].start_us);
}

TEST(Span, NullSessionRecordsNothingButStillTimes) {
  TraceSession session;
  Span s(nullptr, "ghost");
  EXPECT_GE(s.seconds(), 0.0);
  EXPECT_EQ(session.num_events(), 0u);
  EXPECT_EQ(s.handle().session, nullptr);
}

TEST(Span, DisabledModeAllocatesNothing) {
  ASSERT_EQ(TraceSession::active(), nullptr);
  std::size_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    Span s(TraceSession::active(), "hot-path-span");
    (void)s;
  }
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), before);
}

TEST(Span, PoolTasksAttributeToFanOutSpan) {
  TraceSession session;
  SessionGuard guard(&session);
  ThreadPool pool(4);
  {
    Span root(&session, "root");
    pool.parallel_for(
        0, 16,
        [&](std::size_t i) {
          Span task(TraceSession::active(), "task");
          (void)i;
        },
        /*grain=*/1);
  }
  std::map<std::uint64_t, const SpanEvent*> by_id;
  std::vector<SpanEvent> events = session.events();
  for (const SpanEvent& e : events) by_id[e.id] = &e;
  std::uint64_t root_id = 0;
  for (const SpanEvent& e : events)
    if (e.name == "root") root_id = e.id;
  ASSERT_NE(root_id, 0u);
  // Every task span reaches "root" through its parent chain (via the
  // pool.loop span the dispatcher opens), no matter which worker ran it.
  std::size_t tasks = 0;
  for (const SpanEvent& e : events) {
    if (e.name != "task") continue;
    ++tasks;
    std::uint64_t p = e.parent;
    bool reached = false;
    for (int hops = 0; p != 0 && hops < 10; ++hops) {
      if (p == root_id) {
        reached = true;
        break;
      }
      ASSERT_TRUE(by_id.count(p)) << "dangling parent id " << p;
      p = by_id[p]->parent;
    }
    EXPECT_TRUE(reached) << "task span not attributed to root";
  }
  EXPECT_EQ(tasks, 16u);
}

TEST(Span, ScopedTaskParentInstallsAmbientParent) {
  TraceSession session;
  SpanHandle parent;
  {
    Span outer(&session, "outer");
    parent = outer.handle();
  }
  {
    ScopedTaskParent ambient(parent);
    Span child(&session, "child");
  }
  Span orphan(&session, "orphan");
  orphan.close();
  std::vector<SpanEvent> events = session.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[1].name, "child");
  EXPECT_EQ(events[1].parent, parent.id);
  EXPECT_EQ(events[2].name, "orphan");
  EXPECT_EQ(events[2].parent, 0u);  // ambient parent restored on exit
}

TEST(Counters, TotalsAreIdenticalForAnyThreadCount) {
  std::vector<std::uint64_t> totals;
  for (std::size_t threads : {1u, 8u}) {
    TraceSession session;
    SessionGuard guard(&session);
    ThreadPool pool(threads);
    pool.parallel_for(
        0, 1000,
        [&](std::size_t i) {
          TraceSession::active()->counter("work").add(i % 7);
          TraceSession::active()->histogram("size").record(i % 13);
        },
        /*grain=*/8);
    totals.push_back(session.counter("work").value());
    EXPECT_EQ(session.histogram("size").count(), 1000u);
  }
  EXPECT_EQ(totals[0], totals[1]);
}

TEST(ChromeTrace, OutputIsStrictJsonWithHostileNames) {
  TraceSession session;
  {
    Span weird(&session, "evil \"name\"\nwith\tcontrol\x01" "chars");
    Span ok(&session, "normal");
  }
  session.counter("quoted \"counter\"").add(2);
  std::ostringstream os;
  session.write_chrome_trace(os);
  std::string text = os.str();
  EXPECT_TRUE(is_valid_json(text)) << text;
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(text.find("\\u0001"), std::string::npos);
}

TEST(ChromeTrace, EmptySessionIsStillValidJson) {
  TraceSession session;
  std::ostringstream os;
  session.write_chrome_trace(os);
  EXPECT_TRUE(is_valid_json(os.str())) << os.str();
}

TEST(SummaryJson, ValidatesAndListsEverything) {
  TraceSession session;
  session.counter("sat.solve_calls").add(42);
  session.histogram("cone.leaves").record(17);
  { Span s(&session, "dep.one_cycle"); }
  { Span s(&session, "dep.one_cycle"); }
  std::ostringstream os;
  session.write_summary_json(os);
  std::string text = os.str();
  EXPECT_TRUE(is_valid_json(text)) << text;
  EXPECT_NE(text.find("\"sat.solve_calls\": 42"), std::string::npos);
  EXPECT_NE(text.find("\"cone.leaves\""), std::string::npos);
  EXPECT_NE(text.find("\"dep.one_cycle\": {\"count\": 2"),
            std::string::npos);
}

TEST(SummaryText, ListsCountersHistogramsAndSpans) {
  TraceSession session;
  session.counter("rewire.trials").add(3);
  session.histogram("cone.leaves").record(4);
  { Span s(&session, "pipeline"); }
  std::ostringstream os;
  session.write_summary_text(os);
  std::string text = os.str();
  EXPECT_NE(text.find("== metrics =="), std::string::npos);
  EXPECT_NE(text.find("rewire.trials"), std::string::npos);
  EXPECT_NE(text.find("cone.leaves"), std::string::npos);
  EXPECT_NE(text.find("pipeline"), std::string::npos);
}

TEST(TraceSession, SequentialSessionsGetFreshThreadIds) {
  std::uint32_t first_tid, second_tid;
  {
    TraceSession a;
    first_tid = a.current_thread_id();
  }
  {
    TraceSession b;
    second_tid = b.current_thread_id();
  }
  // Dense ids restart per session; the calling thread is id 0 in both.
  EXPECT_EQ(first_tid, 0u);
  EXPECT_EQ(second_tid, 0u);
}

TEST(TraceSession, ThreadNamesAppearInTrace) {
  TraceSession session;
  std::thread t([&] {
    set_current_thread_name("pool-worker-test");
    Span s(&session, "t");
  });
  t.join();
  std::ostringstream os;
  session.write_chrome_trace(os);
  EXPECT_TRUE(is_valid_json(os.str()));
  EXPECT_NE(os.str().find("pool-worker-test"), std::string::npos);
}

}  // namespace
}  // namespace rsnsec::obs
