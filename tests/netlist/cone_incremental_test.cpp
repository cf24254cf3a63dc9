// Incremental query machinery of ConeDependenceChecker: verdict caching,
// core reuse and model rotation never change a leaf's classification
// versus the oracle of one fresh checker per query (tests/oracle); the
// conflict budget is per query; and the 256-bit simulation block matches
// the scalar evaluator lane for lane.

#include <gtest/gtest.h>

#include <vector>

#include "netlist/cone_check.hpp"
#include "netlist/netlist.hpp"
#include "netlist/sim.hpp"
#include "oracle/dep_oracle.hpp"
#include "util/rng.hpp"

namespace rsnsec::netlist {
namespace {

/// Random single-output combinational block over `num_ffs` self-looped
/// flip-flops, returning the FF whose next-state cone is the block. The
/// generator mixes reconvergence (reused subterms) with XOR so both
/// functional and structural-only leaves occur.
NodeId build_random_block(Netlist& nl, Rng& rng, std::size_t num_ffs) {
  std::vector<NodeId> ffs;
  for (std::size_t i = 0; i < num_ffs; ++i) {
    NodeId f = nl.add_ff("f" + std::to_string(i));
    nl.set_ff_input(f, f);
    ffs.push_back(f);
  }
  std::vector<NodeId> nets = ffs;
  std::size_t num_gates = 2 + num_ffs + rng.below(8);
  for (std::size_t g = 0; g < num_gates; ++g) {
    GateType types[] = {GateType::And, GateType::Or,  GateType::Xor,
                        GateType::Not, GateType::Mux, GateType::Nand};
    GateType t = types[rng.below(6)];
    std::size_t arity = t == GateType::Not ? 1 : (t == GateType::Mux ? 3 : 2);
    std::vector<NodeId> fanins;
    for (std::size_t k = 0; k < arity; ++k)
      fanins.push_back(nets[rng.below(static_cast<std::uint32_t>(
          nets.size()))]);
    nets.push_back(nl.add_gate(t, fanins));
  }
  NodeId t = nl.add_ff("t");
  nl.set_ff_input(t, nets.back());
  return t;
}

/// Brute-force functional dependence of the cone root on leaf
/// `leaf_idx` (cone must have <= 16 leaves).
bool brute_force_depends(const Netlist& nl, const Cone& cone,
                         std::size_t leaf_idx) {
  std::vector<std::uint64_t> vals(cone.leaves.size());
  std::vector<std::uint64_t> scratch;
  const std::size_t n = cone.leaves.size();
  for (std::uint64_t m = 0; m < (1ull << n); ++m) {
    for (std::size_t i = 0; i < n; ++i) {
      GateType t = nl.node(cone.leaves[i]).type;
      bool v = (m >> i) & 1;
      if (t == GateType::Const0) v = false;
      if (t == GateType::Const1) v = true;
      vals[i] = v ? ~0ULL : 0ULL;
    }
    std::uint64_t base = eval_cone(nl, cone, vals, scratch) & 1;
    vals[leaf_idx] ^= ~0ULL;
    std::uint64_t flipped = eval_cone(nl, cone, vals, scratch) & 1;
    vals[leaf_idx] ^= ~0ULL;
    GateType t = nl.node(cone.leaves[leaf_idx]).type;
    if (t == GateType::Const0 || t == GateType::Const1) return false;
    if (base != flipped) return true;
  }
  return false;
}

TEST(ConeIncremental, MatchesOracleAndBruteForceOnRandomCones) {
  Rng rng(7);
  for (int inst = 0; inst < 40; ++inst) {
    Netlist nl;
    NodeId t = build_random_block(nl, rng, 4 + rng.below(8));
    Cone cone = nl.extract_next_state_cone(t);
    if (cone.leaves.size() > 14) continue;

    ConeDependenceChecker incremental(nl, cone);

    std::vector<sat::Result> want(cone.leaves.size());
    for (std::size_t i = 0; i < cone.leaves.size(); ++i) {
      sat::Result got = incremental.query(i);
      want[i] = oracle::fresh_cone_query(nl, cone, i).result;
      EXPECT_EQ(got, want[i]) << "instance " << inst << " leaf " << i;
      EXPECT_EQ(got == sat::Result::Sat, brute_force_depends(nl, cone, i))
          << "instance " << inst << " leaf " << i;
    }
    // Re-querying (pure cache hits) stays stable.
    for (std::size_t i = 0; i < cone.leaves.size(); ++i)
      EXPECT_EQ(incremental.query(i), want[i]);
    EXPECT_LE(incremental.solver_solves(), incremental.sat_calls());
  }
}

TEST(ConeIncremental, QueryOrderDoesNotChangeVerdicts) {
  Rng rng(21);
  for (int inst = 0; inst < 20; ++inst) {
    Netlist nl;
    NodeId t = build_random_block(nl, rng, 6 + rng.below(6));
    Cone cone = nl.extract_next_state_cone(t);
    ConeDependenceChecker fwd(nl, cone);
    ConeDependenceChecker rev(nl, cone);
    std::vector<sat::Result> f(cone.leaves.size()), r(cone.leaves.size());
    for (std::size_t i = 0; i < cone.leaves.size(); ++i)
      f[i] = fwd.query(i);
    for (std::size_t i = cone.leaves.size(); i-- > 0;) r[i] = rev.query(i);
    EXPECT_EQ(f, r) << "instance " << inst;
  }
}

/// Width-`w` AND-of-XORs cone: t.D = AND_i XOR(a_i, b_i). Every leaf is
/// functional, and queries generate real search (good for budget tests).
NodeId build_and_xor(Netlist& nl, std::size_t width,
                     std::size_t inputs_among = 0) {
  std::vector<NodeId> xors;
  for (std::size_t i = 0; i < width; ++i) {
    NodeId a;
    if (i < inputs_among) {
      a = nl.add_input("in" + std::to_string(i));
    } else {
      a = nl.add_ff("a" + std::to_string(i));
      nl.set_ff_input(a, a);
    }
    NodeId b = nl.add_ff("b" + std::to_string(i));
    nl.set_ff_input(b, b);
    xors.push_back(nl.add_gate(GateType::Xor, {a, b}));
  }
  NodeId t = nl.add_ff("t");
  nl.set_ff_input(t, nl.add_gate(GateType::And, xors));
  return t;
}

TEST(ConeIncremental, ManyLimitedQueriesOnOneCheckerKeepFullBudget) {
  // Regression for the cumulative-conflict-limit bug: a checker that
  // answers many budgeted queries from one solver must give each query
  // the full budget instead of silently draining one shared budget into
  // Unknown verdicts. The solver-level contract is pinned by
  // SatIncremental.ConflictLimitIsPerSolveNotCumulative.
  Netlist nl;
  NodeId t = build_and_xor(nl, 48);
  Cone cone = nl.extract_next_state_cone(t);

  // Calibrate: the most expensive single query without a limit, each on
  // its own fresh checker.
  std::uint64_t max_per_query = 0, total = 0;
  for (std::size_t i = 0; i < cone.leaves.size(); ++i) {
    std::uint64_t c = oracle::fresh_cone_query(nl, cone, i).conflicts;
    max_per_query = std::max(max_per_query, c);
    total += c;
  }
  std::uint64_t limit = std::max<std::uint64_t>(max_per_query + 1, 8);
  ASSERT_GT(total, limit)
      << "workload too easy to distinguish per-solve from cumulative";

  // Every query fits in `limit` on its own, but their sum exceeds it:
  // under per-solve semantics no query may come back Unknown, whether it
  // runs on a fresh checker or on one checker answering all of them.
  ConeDependenceChecker chk(nl, cone, limit);
  for (std::size_t i = 0; i < cone.leaves.size(); ++i) {
    EXPECT_NE(chk.query(i), sat::Result::Unknown) << "leaf " << i;
    EXPECT_NE(oracle::fresh_cone_query(nl, cone, i, limit).result,
              sat::Result::Unknown)
        << "leaf " << i;
  }
}

TEST(ConeIncremental, Word256EvalMatchesScalarLanes) {
  Rng rng(55);
  for (int inst = 0; inst < 25; ++inst) {
    Netlist nl;
    NodeId t = build_random_block(nl, rng, 3 + rng.below(10));
    Cone cone = nl.extract_next_state_cone(t);
    std::vector<Word256> wide(cone.leaves.size());
    std::vector<std::vector<std::uint64_t>> narrow(
        4, std::vector<std::uint64_t>(cone.leaves.size()));
    for (std::size_t i = 0; i < cone.leaves.size(); ++i) {
      for (std::size_t lane = 0; lane < 4; ++lane) {
        std::uint64_t w = rng.next_u64();
        wide[i].lane[lane] = w;
        narrow[lane][i] = w;
      }
    }
    std::vector<Word256> wide_scratch;
    Word256 got = eval_cone(nl, cone, wide, wide_scratch);
    std::vector<std::uint64_t> scratch;
    for (std::size_t lane = 0; lane < 4; ++lane) {
      EXPECT_EQ(got.lane[lane], eval_cone(nl, cone, narrow[lane], scratch))
          << "instance " << inst << " lane " << lane;
    }
  }
}

}  // namespace
}  // namespace rsnsec::netlist
