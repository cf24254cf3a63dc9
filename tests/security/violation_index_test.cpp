// Randomized delta-vs-rebuild property tests of the violation indexes:
// starting from a generated workload, apply random cut_connection edits
// and check after every step that
//   - eval_trial on an uncommitted trial equals a from-scratch
//     count_violating_pairs of that trial,
//   - after commit, pairs() equals the from-scratch count and
//     find_violation returns exactly the analyzer's witness.
// The random walk exercises repair paths the resolution loop rarely
// takes (arbitrary cuts, repeated commits against an aging index), and
// hybrid trials that only add an edge, so some node gains a violating
// pair. The pure index's trials take the resolver's path: one working
// copy cut against the index's committed view, read through its edit
// record and rolled back with Rsn::restore; one trial per step adds an
// edge going down in committed rank, so an element is evaluated before
// its input settles and must be queued again.
//
// TrialSlots keeps one slot set across the commits of a Table I grid run
// and checks every selection against one made on fresh slots.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "bench/common.hpp"
#include "benchgen/circuit.hpp"
#include "benchgen/families.hpp"
#include "benchgen/specgen.hpp"
#include "dep/analyzer.hpp"
#include "obs/trace.hpp"
#include "security/hybrid.hpp"
#include "security/pure.hpp"
#include "security/violation_index.hpp"
#include "util/thread_pool.hpp"

namespace rsnsec::security {
namespace {

struct Workload {
  rsn::RsnDocument doc;
  netlist::Netlist circuit;
  SecuritySpec spec{1, 1};
};

Workload make_workload(std::uint64_t seed) {
  Workload w;
  Rng rng(seed);
  benchgen::BenchmarkProfile p = benchgen::bastion_profile("Mingle");
  w.doc = benchgen::generate_bastion(p, 0.3, rng);
  benchgen::CircuitOptions copt;
  copt.target_cross_functional = 8;
  copt.target_cross_structural = 8;
  w.circuit = benchgen::attach_random_circuit(w.doc, copt, rng);
  benchgen::SpecOptions sopt;
  sopt.expected_sensitive_modules = 4;
  w.spec = benchgen::random_spec(w.doc.module_names.size(), sopt, rng);
  return w;
}

void expect_same_violation(
    const std::optional<HybridAnalyzer::Violation>& a,
    const std::optional<HybridAnalyzer::Violation>& b, int step) {
  ASSERT_EQ(a.has_value(), b.has_value()) << "step " << step;
  if (!a) return;
  EXPECT_EQ(a->token, b->token) << "step " << step;
  EXPECT_EQ(a->victim_node, b->victim_node) << "step " << step;
  EXPECT_EQ(a->node_path, b->node_path) << "step " << step;
  EXPECT_EQ(a->rsn_connections, b->rsn_connections) << "step " << step;
}

class IndexFuzz : public ::testing::TestWithParam<int> {};

TEST_P(IndexFuzz, HybridDeltaMatchesRebuild) {
  Workload w = make_workload(0xabc0ULL + GetParam());
  TokenTable tokens(w.spec, w.spec.num_modules());
  dep::DependencyAnalyzer deps(w.circuit, w.doc.network, {});
  deps.run();
  HybridAnalyzer hybrid(w.circuit, w.doc.network, deps, w.spec, tokens);

  rsn::Rsn net = w.doc.network;
  HybridViolationIndex index(hybrid, net);
  ASSERT_EQ(index.pairs(), hybrid.count_violating_pairs(net));
  ASSERT_EQ(index.violating_registers(),
            hybrid.count_violating_registers(net));

  HybridViolationIndex::Scratch scratch;
  Rng rng(0x77700ULL + GetParam());
  Rng gain_rng(0x6a1aULL + GetParam());
  for (int step = 0; step < 10; ++step) {
    std::vector<Connection> conns = Rewirer::all_connections(net);
    if (conns.empty()) break;
    // Evaluate several uncommitted trials against the same committed
    // state (as the candidate loop does), then commit the last one.
    rsn::Rsn chosen = net;
    for (int t = 0; t < 3; ++t) {
      const Connection& c = rng.pick(conns);
      rsn::ElemId hint = rng.chance(0.5) ? net.scan_in() : rsn::no_elem;
      rsn::Rsn trial = net;
      Rewirer::cut_connection(trial, c, hint);
      ASSERT_EQ(index.eval_trial(trial, scratch),
                hybrid.count_violating_pairs(trial))
          << "step " << step << " trial " << t;
      chosen = trial;
    }
    // Trials that only add an edge — register `u` joins register `v`'s
    // driver through a fresh 2:1 mux — so nodes can only gain tokens (cut
    // repairs mostly lose them), until one gains a violating pair.
    for (int attempt = 0; attempt < 30; ++attempt) {
      const rsn::ElemId u = gain_rng.pick(net.registers());
      const rsn::ElemId v = gain_rng.pick(net.registers());
      if (u == v || net.reaches(v, u)) continue;
      rsn::Rsn trial = net;
      const rsn::ElemId m = trial.add_mux("gain_mux", 2);
      trial.connect(net.elem(v).inputs[0], m, 0);
      trial.connect(u, m, 1);
      trial.connect(m, v, 0);
      const std::size_t want = hybrid.count_violating_pairs(trial);
      ASSERT_EQ(index.eval_trial(trial, scratch), want)
          << "step " << step << " gain trial " << attempt;
      if (want > index.pairs()) break;
    }
    net = chosen;
    index.commit(net);
    ASSERT_EQ(index.pairs(), hybrid.count_violating_pairs(net))
        << "step " << step;
    ASSERT_EQ(index.violating_registers(),
              hybrid.count_violating_registers(net))
        << "step " << step;
    expect_same_violation(index.find_violation(), hybrid.find_violation(net),
                          step);
  }
}

/// Edits `trial`, a copy of the committed network `view.network()`, so
/// that the pure index must evaluate an element twice: register `w` is
/// switched to scan-in, which changes the value of an element `u`
/// downstream of it, and a register `v` ranked below `w` is driven from
/// `u` — an edge going down in committed rank that keeps the trial
/// acyclic. `v` is evaluated before `u` settles. Returns false if the
/// network offers no such triple.
bool make_down_rank_trial(rsn::Rsn& trial, const rsn::CommittedView& view,
                          const PureScanAnalyzer& pure, Rng& rng) {
  const rsn::Rsn& net = view.network();
  const std::vector<TokenSet> committed = pure.propagate(net);
  std::vector<rsn::ElemId> regs = net.registers();
  rng.shuffle(regs);
  for (rsn::ElemId w : regs) {
    rsn::Rsn probe = net;
    probe.connect(probe.scan_in(), w, 0);
    const std::vector<TokenSet> after = pure.propagate(probe);
    for (rsn::ElemId u : net.reachable_from(w)) {
      if (after[u] == committed[u]) continue;
      for (rsn::ElemId v : regs) {
        if (v == w || view.rank(v) >= view.rank(w) || probe.reaches(v, u))
          continue;
        trial.connect(trial.scan_in(), w, 0);
        trial.connect(u, v, 0);
        return true;
      }
    }
  }
  return false;
}

TEST_P(IndexFuzz, PureDeltaMatchesRebuild) {
  Workload w = make_workload(0xdef0ULL + GetParam());
  TokenTable tokens(w.spec, w.spec.num_modules());
  PureScanAnalyzer pure(w.spec, tokens);

  rsn::Rsn net = w.doc.network;
  PureViolationIndex index(pure, net);
  ASSERT_EQ(index.pairs(), pure.count_violating_pairs(net));
  ASSERT_EQ(index.violating_registers(),
            pure.count_violating_registers(net));

  PureViolationIndex::Scratch scratch;
  Rewirer::Scratch cut_scratch;
  Rng rng(0x12345ULL + GetParam());
  Rng down_rng(0x5eedULL + GetParam());
  int requeued = 0;
  rsn::Rsn trial = net;  // the working copy, rolled back after each trial
  for (int step = 0; step < 10; ++step) {
    std::vector<Connection> conns = Rewirer::all_connections(net);
    if (conns.empty()) break;
    rsn::Rsn chosen = net;
    for (int t = 0; t < 3; ++t) {
      const Connection& c = rng.pick(conns);
      rsn::ElemId hint = rng.chance(0.5) ? net.scan_in() : rsn::no_elem;
      Rewirer::cut_connection(trial, index.view(), c, hint, cut_scratch);
      ASSERT_NE(trial.edited(), nullptr);  // the query reads the record
      ASSERT_EQ(index.eval_trial(trial, scratch),
                pure.count_violating_pairs(trial))
          << "step " << step << " trial " << t;
      chosen = trial;
      trial.restore(net);
    }
    if (make_down_rank_trial(trial, index.view(), pure, down_rng)) {
      ASSERT_TRUE(trial.is_acyclic()) << "step " << step;
      ASSERT_EQ(index.eval_trial(trial, scratch),
                pure.count_violating_pairs(trial))
          << "step " << step << " down-rank trial";
      EXPECT_GT(scratch.evaluations, scratch.touched.size())
          << "step " << step << ": nothing was queued again";
      ++requeued;
      trial.restore(net);
    }
    net = chosen;
    index.commit(net);
    trial = net;
    ASSERT_EQ(index.pairs(), pure.count_violating_pairs(net))
        << "step " << step;
    ASSERT_EQ(index.violating_registers(),
              pure.count_violating_registers(net))
        << "step " << step;

    std::optional<PureViolation> a = index.find_violation();
    std::optional<PureViolation> b = pure.find_violation(net);
    ASSERT_EQ(a.has_value(), b.has_value()) << "step " << step;
    if (a) {
      EXPECT_EQ(a->origin, b->origin) << "step " << step;
      EXPECT_EQ(a->victim, b->victim) << "step " << step;
      EXPECT_EQ(a->token, b->token) << "step " << step;
      EXPECT_EQ(a->path, b->path) << "step " << step;
    }
  }
  EXPECT_GT(requeued, 0);
}

INSTANTIATE_TEST_SUITE_P(Fuzz, IndexFuzz, ::testing::Range(0, 8));

/// The pure resolution loop's candidates and fallback register.
std::vector<Connection> path_connections(const rsn::Rsn& net,
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

rsn::ElemId fallback_register(const rsn::Rsn& net, const PureViolation& v) {
  rsn::ElemId iso = v.origin;
  for (std::size_t i = 0; i + 1 < v.path.size(); ++i)
    if (net.elem(v.path[i]).kind == rsn::ElemKind::Register) iso = v.path[i];
  return iso;
}

TEST(TrialSlots, KeptSlotsSelectLikeFreshSlotsAcrossCommits) {
  // Grid 1000's FlexScan circuit 1 under spec 4 (the GridOracle recipe;
  // 37 pure changes, 20 of them inserting a repair mux), resolved by
  // hand: every selection on the run's slot set must equal one on fresh
  // slots, so a slot whose copy predates a commit (a cut, a cut
  // inserting a repair mux, an isolation) re-syncs before its trials.
  bench::SweepOptions opt;
  opt.base_seed = 1000;
  const bench::Instance inst = bench::make_instance("FlexScan", opt, 1);
  const SecuritySpec spec =
      bench::make_spec(inst, opt.spec, /*spec_base_seed=*/1, 1, 4);
  TokenTable tokens(spec, spec.num_modules());
  PureScanAnalyzer pure(spec, tokens);

  rsn::Rsn net = inst.doc.network;
  PureViolationIndex index(pure, net);
  const Rewirer::TrialCounterFactory factory =
      [&index]() -> Rewirer::TrialCounter {
    auto scratch = std::make_shared<PureViolationIndex::Scratch>();
    return [&index, scratch](const rsn::Rsn& n) {
      return index.eval_trial(n, *scratch);
    };
  };
  ThreadPool pool(4);
  Rewirer::TrialSlots kept(index.view(), factory);
  Rewirer::Scratch cut_scratch;
  obs::TraceSession session;
  obs::TraceSession::set_active(&session);
  int commits = 0;
  int repair_mux_commits = 0;
  int isolations = 0;
  constexpr int kIsolateAt = 5;
  for (std::optional<PureViolation> v = index.find_violation(); v;
       v = index.find_violation()) {
    const std::vector<Connection> cands = path_connections(net, *v);
    const Rewirer::Selection a = Rewirer::select_cut_parallel(
        index.view(), cands, kept, index.pairs(),
        ResolutionPolicy::BestGlobal, pool);
    Rewirer::TrialSlots fresh(index.view(), factory);
    const Rewirer::Selection b = Rewirer::select_cut_parallel(
        index.view(), cands, fresh, index.pairs(),
        ResolutionPolicy::BestGlobal, pool);
    EXPECT_EQ(a.found, b.found) << "commit " << commits;
    EXPECT_EQ(a.cut, b.cut) << "commit " << commits;
    EXPECT_EQ(a.reconnect_hint, b.reconnect_hint) << "commit " << commits;
    EXPECT_EQ(a.residual_pairs, b.residual_pairs) << "commit " << commits;
    EXPECT_EQ(a.operations, b.operations) << "commit " << commits;

    const std::size_t before = net.num_elements();
    if (commits == kIsolateAt || !a.found) {
      Rewirer::isolate_register_output(net, fallback_register(net, *v));
      ++isolations;
    } else {
      Rewirer::cut_connection(net, index.view(), a.cut, a.reconnect_hint,
                              cut_scratch);
      for (auto id = static_cast<rsn::ElemId>(before);
           id < net.num_elements(); ++id)
        if (net.elem(id).name.rfind("repair_mux_", 0) == 0) {
          ++repair_mux_commits;
          break;
        }
    }
    index.commit(net);
    ++commits;
  }
  obs::TraceSession::set_active(nullptr);
  EXPECT_EQ(index.pairs(), 0u);
  EXPECT_GE(commits, 20);
  EXPECT_GE(repair_mux_commits, 1);
  EXPECT_GE(isolations, 1);
  EXPECT_LE(kept.size(), pool.num_threads());
  EXPECT_GE(session.counter("resolve.slot_syncs").value(),
            static_cast<std::uint64_t>(commits - 1));
}

}  // namespace
}  // namespace rsnsec::security
