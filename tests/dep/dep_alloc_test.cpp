// Allocation bounds of the dependency analysis, on the Table I grid-1000
// instance FlexScan circuit 2 (the resolve_alloc_test instance): during
// DependencyAnalyzer::run(), the allocations of at least num_nodes()
// bytes — the netlist-sized buffers — are bounded by a constant per run
// plus the constant of its one cone slot, independent of the number of
// cones, and so are the bytes allocated in total.
//
// Separate binary: it replaces the global operator new with a counting
// one, which must not perturb the other suites.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "bench/common.hpp"
#include "dep/analyzer.hpp"

static std::atomic<std::size_t> g_allocs{0};
static std::atomic<std::size_t> g_bytes{0};
static std::atomic<std::size_t> g_big{0};
static std::atomic<std::size_t> g_big_threshold{~std::size_t{0}};

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  if (n >= g_big_threshold.load(std::memory_order_relaxed))
    g_big.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rsnsec::dep {
namespace {

const bench::Instance& instance() {
  static const bench::Instance inst = [] {
    bench::SweepOptions opt;
    opt.base_seed = 1000;
    return bench::make_instance("FlexScan", opt, 2);
  }();
  return inst;
}

struct RunAllocs {
  std::size_t allocs = 0;  ///< all allocations
  std::size_t big = 0;     ///< allocations of >= num_nodes() bytes
  std::size_t bytes = 0;   ///< bytes allocated in total
  DepStats stats;
};

RunAllocs measure() {
  const bench::Instance& inst = instance();
  DependencyAnalyzer analyzer(inst.circuit, inst.doc.network);
  g_big_threshold.store(inst.circuit.num_nodes());
  const std::size_t allocs0 = g_allocs.load(), big0 = g_big.load(),
                    bytes0 = g_bytes.load();
  analyzer.run();
  RunAllocs r;
  r.allocs = g_allocs.load() - allocs0;
  r.big = g_big.load() - big0;
  r.bytes = g_bytes.load() - bytes0;
  g_big_threshold.store(~std::size_t{0});
  r.stats = analyzer.stats();
  return r;
}

/// Allocations of at least num_nodes() bytes of one run outside its cone
/// slot: the FF index, the per-task cone, signature and grouping arrays,
/// the per-group results, and the planes of the two relations. (A run
/// makes about 12 and a slot about 10 on this instance; before cone
/// slots, a run made 1,740, about three per classified cone.)
constexpr std::size_t kBigPerRun = 16;
/// Of one cone slot: the extraction marks, the signature codes, the two
/// literal maps (stamps and values each), the simulation values, the
/// ternary evaluator, and solver arrays a large cone grows past
/// num_nodes() bytes.
constexpr std::size_t kBigPerSlot = 12;
/// Bytes of one run outside its slot (about 1.3 MB on this instance;
/// 34.8 MB in all before cone slots), and of one slot per netlist node
/// (61 bytes of stamped maps and simulation values, plus solver growth).
constexpr std::size_t kBytesPerRun = std::size_t{2} << 20;
constexpr std::size_t kBytesPerSlotPerNode = 96;

TEST(DepAlloc, NetlistSizedAllocationsDoNotScaleWithCones) {
  const std::size_t nodes = instance().circuit.num_nodes();
  const RunAllocs r = measure();
  // There are more cones than the bound: one netlist-sized buffer per
  // cone would exceed it.
  EXPECT_GT(r.stats.circuit_ffs, kBigPerRun + kBigPerSlot);
  EXPECT_LE(r.big, kBigPerRun + kBigPerSlot);
  EXPECT_LE(r.bytes, kBytesPerRun + kBytesPerSlotPerNode * nodes)
      << r.allocs << " allocations";
}

}  // namespace
}  // namespace rsnsec::dep
