#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <vector>

#include "util/slot_pool.hpp"

namespace rsnsec {
namespace {

TEST(ThreadPool, EmptyRangeRunsNothing) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.parallel_for(0, 0, [&](std::size_t) { ++calls; });
  pool.parallel_for(5, 5, [&](std::size_t) { ++calls; });
  pool.parallel_for(7, 3, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, SingleThreadRunsInlineInOrder) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::vector<std::size_t> seen;
  pool.parallel_for(2, 9, [&](std::size_t i) { seen.push_back(i); });
  std::vector<std::size_t> expect{2, 3, 4, 5, 6, 7, 8};
  EXPECT_EQ(seen, expect);  // inline mode: sequential ascending
}

TEST(ThreadPool, EveryIndexVisitedExactlyOnce) {
  ThreadPool pool(8);
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(0, n, [&](std::size_t i) { ++hits[i]; }, /*grain=*/1);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ExceptionPropagatesAndPoolStaysUsable) {
  ThreadPool pool(4);
  auto boom = [&] {
    pool.parallel_for(0, 100, [](std::size_t i) {
      if (i == 37) throw std::runtime_error("cone 37 failed");
    });
  };
  EXPECT_THROW(boom(), std::runtime_error);
  // The pool survives a failed loop and runs subsequent work.
  std::atomic<int> calls{0};
  pool.parallel_for(0, 100, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 100);
}

TEST(ThreadPool, NestedParallelForCompletes) {
  ThreadPool pool(4);
  const std::size_t outer = 16, inner = 64;
  std::vector<std::atomic<int>> hits(outer * inner);
  pool.parallel_for(
      0, outer,
      [&](std::size_t o) {
        // Nested loop on the same pool: the caller participates, so this
        // terminates even when every worker is busy with outer chunks.
        pool.parallel_for(
            0, inner, [&](std::size_t i) { ++hits[o * inner + i]; },
            /*grain=*/1);
      },
      /*grain=*/1);
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, NestedSubmitRuns) {
  std::atomic<int> inner_ran{0};
  {
    ThreadPool pool(3);
    std::atomic<int> outer_ran{0};
    for (int t = 0; t < 8; ++t) {
      pool.submit([&] {
        ++outer_ran;
        pool.submit([&] { ++inner_ran; });
      });
    }
    // Destructor joins after the queue (incl. nested submissions) drains.
  }
  EXPECT_EQ(inner_ran.load(), 8);
}

TEST(ThreadPool, ParallelChunksCoverRangeWithPerChunkScratch) {
  ThreadPool pool(4);
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  std::atomic<int> scratch_setups{0};
  pool.parallel_chunks(
      0, n,
      [&](std::size_t cb, std::size_t ce, std::size_t) {
        ++scratch_setups;  // one "scratch allocation" per chunk
        ASSERT_LT(cb, ce);
        for (std::size_t i = cb; i < ce; ++i) ++hits[i];
      },
      /*grain=*/64);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  // Chunks amortize scratch: far fewer setups than iterations.
  EXPECT_EQ(scratch_setups.load(), static_cast<int>((n + 63) / 64));
}

TEST(ThreadPool, ParallelChunksIndicesAreDistinctAndDense) {
  ThreadPool pool(8);
  const std::size_t n = 512;
  std::vector<std::atomic<int>> chunk_seen(64);
  pool.parallel_chunks(
      0, n,
      [&](std::size_t, std::size_t, std::size_t chunk) {
        ASSERT_LT(chunk, chunk_seen.size());
        ++chunk_seen[chunk];
      },
      /*grain=*/8);
  for (std::size_t c = 0; c < 64; ++c) EXPECT_EQ(chunk_seen[c].load(), 1);
}

TEST(SlotPool, ChunksNeverShareASlotAndSlotsStayPerThread) {
  // Every chunk claims a slot for its whole run: no two chunks may hold
  // one at once, and a slot is made only when all others are held, so
  // there are never more slots than threads.
  struct Slot {
    std::atomic<bool> held{false};
    std::size_t uses = 0;
  };
  for (std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    SlotPool<Slot> slots;
    std::atomic<int> overlaps{0};
    pool.parallel_chunks(
        0, 2000,
        [&](std::size_t, std::size_t, std::size_t) {
          Slot& s = slots.acquire([] { return std::make_unique<Slot>(); });
          if (s.held.exchange(true)) ++overlaps;
          ++s.uses;
          s.held.store(false);
          slots.release(s);
        },
        /*grain=*/1);
    EXPECT_EQ(overlaps.load(), 0);
    EXPECT_GE(slots.size(), 1u);
    EXPECT_LE(slots.size(), threads);
  }
}

TEST(ThreadPool, ResolveHonorsRequestThenEnvThenHardware) {
  EXPECT_EQ(ThreadPool::resolve_num_threads(3), 3u);
  ::setenv("RSNSEC_JOBS", "5", 1);
  EXPECT_EQ(ThreadPool::resolve_num_threads(0), 5u);
  EXPECT_EQ(ThreadPool::resolve_num_threads(2), 2u);  // request wins
  ::setenv("RSNSEC_JOBS", "not-a-number", 1);
  EXPECT_GE(ThreadPool::resolve_num_threads(0), 1u);
  ::unsetenv("RSNSEC_JOBS");
  EXPECT_GE(ThreadPool::resolve_num_threads(0), 1u);
}

TEST(ThreadPool, ResolveIgnoresOutOfRangeEnvLikeMalformedEnv) {
  // Only resolves counts; no pool is built from a rejected value.
  ::unsetenv("RSNSEC_JOBS");
  const std::size_t fallback = ThreadPool::resolve_num_threads(0);
  for (const char* v : {"1025", "1000000", "99999999999999999999999", "-3"}) {
    ::setenv("RSNSEC_JOBS", v, 1);
    EXPECT_EQ(ThreadPool::resolve_num_threads(0), fallback) << v;
  }
  ::setenv("RSNSEC_JOBS", "1024", 1);
  EXPECT_EQ(ThreadPool::resolve_num_threads(0), ThreadPool::kMaxThreads);
  ::unsetenv("RSNSEC_JOBS");
}

}  // namespace
}  // namespace rsnsec
