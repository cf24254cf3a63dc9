// Allocation bounds of resolution trials, on a Table I grid-1000 instance
// (FlexScan, circuit 2, spec 1; the recipe of GridOracle):
//   - once every candidate of the first violation has been evaluated, a
//     second pass of eval_trial allocates nothing, on both indexes;
//   - on warm trial slots, select_cut_parallel allocates at most a small
//     constant per selection plus two per element its trials' cuts add
//     (a repair or collector mux: its name and its input list), on
//     1-thread and 4-thread pools. The 4-thread selection also hands
//     slots between threads, which the TSan job race-checks.
//
// Separate binary: it replaces the global operator new with a counting
// one, which must not perturb the other suites.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <vector>

#include "bench/common.hpp"
#include "benchgen/specgen.hpp"
#include "dep/analyzer.hpp"
#include "security/hybrid.hpp"
#include "security/pure.hpp"
#include "security/violation_index.hpp"
#include "util/thread_pool.hpp"

static std::atomic<std::size_t> g_allocs{0};

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rsnsec::security {
namespace {

std::size_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

/// The grid-1000 instance FlexScan c2 s1 with its dependency analysis,
/// and its network after pure resolution (where hybrid violations are
/// left to resolve).
struct Grid {
  bench::Instance inst;
  SecuritySpec spec{1, 1};
  std::unique_ptr<dep::DependencyAnalyzer> deps;
  std::unique_ptr<TokenTable> tokens;
  std::unique_ptr<PureScanAnalyzer> pure;
  std::unique_ptr<HybridAnalyzer> hybrid;
  rsn::Rsn pure_resolved;

  Grid() {
    bench::SweepOptions opt;
    opt.base_seed = 1000;
    inst = bench::make_instance("FlexScan", opt, 2);
    spec = bench::make_spec(inst, opt.spec, /*spec_base_seed=*/1, 2, 1);
    deps = std::make_unique<dep::DependencyAnalyzer>(inst.circuit,
                                                     inst.doc.network);
    deps->run();
    tokens = std::make_unique<TokenTable>(spec, spec.num_modules());
    pure = std::make_unique<PureScanAnalyzer>(spec, *tokens);
    hybrid = std::make_unique<HybridAnalyzer>(inst.circuit, inst.doc.network,
                                              *deps, spec, *tokens);
    pure_resolved = inst.doc.network;
    ResolveOptions ropt;
    ropt.num_threads = 1;
    pure->detect_and_resolve(pure_resolved, nullptr,
                             ResolutionPolicy::BestGlobal, {}, ropt);
  }
};

const Grid& grid() {
  static const Grid g;
  return g;
}

/// The pure loop's cut candidates: every connection on the witness path.
std::vector<Connection> candidates(const rsn::Rsn& net,
                                   const PureViolation& v) {
  std::vector<Connection> out;
  for (std::size_t i = 0; i + 1 < v.path.size(); ++i) {
    const rsn::Element& to = net.elem(v.path[i + 1]);
    for (std::size_t p = 0; p < to.inputs.size(); ++p)
      if (to.inputs[p] == v.path[i])
        out.push_back({v.path[i], v.path[i + 1], p});
  }
  return out;
}

std::vector<Connection> candidates(const rsn::Rsn&,
                                   const HybridAnalyzer::Violation& v) {
  return v.rsn_connections;
}

/// Evaluates every candidate of the first violation with both hints,
/// twice, on one working copy and one scratch; returns the allocations
/// eval_trial made in the second pass.
template <typename Index>
std::size_t second_pass_allocs(const Index& index) {
  const rsn::Rsn& base = index.view().network();
  const auto v = index.find_violation();
  EXPECT_TRUE(v.has_value());
  if (!v) return 0;
  const std::vector<Connection> cands = candidates(base, *v);
  EXPECT_FALSE(cands.empty());
  rsn::Rsn trial = base;
  typename Index::Scratch scratch;
  Rewirer::Scratch cut;
  std::size_t counted = 0;
  for (int pass = 0; pass < 2; ++pass) {
    counted = 0;
    for (const Connection& c : cands)
      for (rsn::ElemId hint : {rsn::no_elem, base.scan_in()}) {
        Rewirer::cut_connection(trial, index.view(), c, hint, cut);
        const std::size_t before = allocs();
        index.eval_trial(trial, scratch);
        counted += allocs() - before;
        trial.restore(base);
      }
  }
  return counted;
}

TEST(ResolveAlloc, WarmPureTrialsAllocateNothing) {
  const Grid& g = grid();
  const PureViolationIndex index(*g.pure, g.inst.doc.network);
  EXPECT_EQ(second_pass_allocs(index), 0u);
}

TEST(ResolveAlloc, WarmHybridTrialsAllocateNothing) {
  const Grid& g = grid();
  const HybridViolationIndex index(*g.hybrid, g.pure_resolved);
  EXPECT_EQ(second_pass_allocs(index), 0u);
}

/// Elements the cuts of select_cut_parallel's trials add, summed over
/// the trials (its (candidate, hint) combos).
std::size_t elements_added(const rsn::CommittedView& view,
                           const std::vector<Connection>& cands) {
  const rsn::Rsn& base = view.network();
  std::size_t added = 0;
  for (const Connection& c : cands)
    for (rsn::ElemId hint : {rsn::no_elem, base.scan_in()}) {
      if (hint != rsn::no_elem && Rewirer::cut_is_hint_insensitive(view, c))
        continue;
      rsn::Rsn trial = base;
      Rewirer::cut_connection(trial, c, hint);
      added += trial.num_elements() - base.num_elements();
    }
  return added;
}

/// Allocations a selection may make beyond two per added element: its
/// combo and result vectors, the pool's batch and task handles (4 and 8
/// on 1 and 4 threads when written).
constexpr std::size_t kPerSelection = 16;

/// Runs the first violation's selection on `pool` until its slots are
/// warm, then checks one more selection against the bound.
template <typename Index>
void expect_warm_selection_bounded(const Index& index, std::size_t threads) {
  const auto v = index.find_violation();
  ASSERT_TRUE(v.has_value());
  const std::vector<Connection> cands =
      candidates(index.view().network(), *v);
  const std::size_t bound =
      kPerSelection + 2 * elements_added(index.view(), cands);
  ThreadPool pool(threads);
  Rewirer::TrialSlots slots(
      index.view(), [&index]() -> Rewirer::TrialCounter {
        auto scratch = std::make_shared<typename Index::Scratch>();
        return [&index, scratch](const rsn::Rsn& n) {
          return index.eval_trial(n, *scratch);
        };
      });
  std::optional<Rewirer::Selection> first;
  // A selection that creates a slot, or hands a slot trials it has not
  // grown its buffers to yet, is not warm: after a few rounds every slot
  // has run most chunks, and the first later round that creates no slot
  // is checked.
  constexpr int kWarmRounds = 6;
  bool checked = false;
  for (int round = 0; round < 4 * kWarmRounds && !checked; ++round) {
    const std::size_t slots_before = slots.size();
    const std::size_t before = allocs();
    const Rewirer::Selection sel = Rewirer::select_cut_parallel(
        index.view(), cands, slots, index.pairs(),
        ResolutionPolicy::BestGlobal, pool);
    const std::size_t made = allocs() - before;
    if (!first) first = sel;
    EXPECT_EQ(sel.found, first->found);
    EXPECT_EQ(sel.cut, first->cut);
    EXPECT_EQ(sel.reconnect_hint, first->reconnect_hint);
    EXPECT_EQ(sel.residual_pairs, first->residual_pairs);
    if (round < kWarmRounds || slots.size() != slots_before) continue;
    EXPECT_LE(made, bound) << threads << " thread(s), " << cands.size()
                           << " candidates";
    checked = true;
  }
  EXPECT_TRUE(checked) << "every round created a slot";
  EXPECT_LE(slots.size(), threads);
}

TEST(ResolveAlloc, WarmPureSelectionIsBounded) {
  const Grid& g = grid();
  const PureViolationIndex index(*g.pure, g.inst.doc.network);
  expect_warm_selection_bounded(index, 1);
  expect_warm_selection_bounded(index, 4);
}

TEST(ResolveAlloc, WarmHybridSelectionIsBounded) {
  const Grid& g = grid();
  const HybridViolationIndex index(*g.hybrid, g.pure_resolved);
  expect_warm_selection_bounded(index, 1);
  expect_warm_selection_bounded(index, 4);
}

}  // namespace
}  // namespace rsnsec::security
