#include "netlist/cone_check.hpp"

#include <gtest/gtest.h>

#include "netlist/sim.hpp"
#include "util/rng.hpp"

namespace rsnsec::netlist {
namespace {

std::size_t leaf_index(const Cone& cone, NodeId leaf) {
  for (std::size_t i = 0; i < cone.leaves.size(); ++i)
    if (cone.leaves[i] == leaf) return i;
  ADD_FAILURE() << "leaf not found";
  return 0;
}

TEST(ConeCheck, DirectWireIsFunctional) {
  Netlist nl;
  NodeId a = nl.add_ff("a");
  NodeId t = nl.add_ff("t");
  nl.set_ff_input(t, a);
  nl.set_ff_input(a, a);
  Cone cone = nl.extract_next_state_cone(t);
  ConeDependenceChecker chk(nl, cone);
  EXPECT_TRUE(chk.depends_on(leaf_index(cone, a)));
}

TEST(ConeCheck, AndGateBothInputsFunctional) {
  Netlist nl;
  NodeId a = nl.add_ff("a");
  NodeId b = nl.add_ff("b");
  NodeId t = nl.add_ff("t");
  nl.set_ff_input(t, nl.add_gate(GateType::And, {a, b}));
  nl.set_ff_input(a, a);
  nl.set_ff_input(b, b);
  Cone cone = nl.extract_next_state_cone(t);
  ConeDependenceChecker chk(nl, cone);
  EXPECT_TRUE(chk.depends_on(leaf_index(cone, a)));
  EXPECT_TRUE(chk.depends_on(leaf_index(cone, b)));
}

TEST(ConeCheck, XorSelfCancellationIsOnlyStructural) {
  // t.D = XOR(x, x) OR y : structurally depends on x, functionally only
  // on y — the Fig. 5 reconvergence situation.
  Netlist nl;
  NodeId x = nl.add_ff("x");
  NodeId y = nl.add_ff("y");
  NodeId dead = nl.add_gate(GateType::Xor, {x, x});
  NodeId d = nl.add_gate(GateType::Or, {dead, y});
  NodeId t = nl.add_ff("t");
  nl.set_ff_input(t, d);
  nl.set_ff_input(x, x);
  nl.set_ff_input(y, y);
  Cone cone = nl.extract_next_state_cone(t);
  ConeDependenceChecker chk(nl, cone);
  EXPECT_FALSE(chk.depends_on(leaf_index(cone, x)));
  EXPECT_TRUE(chk.depends_on(leaf_index(cone, y)));
}

TEST(ConeCheck, MuxWithEqualDataIgnoresSelect) {
  // t.D = MUX(s, a, a): select is only structural.
  Netlist nl;
  NodeId s = nl.add_ff("s");
  NodeId a = nl.add_ff("a");
  NodeId t = nl.add_ff("t");
  nl.set_ff_input(t, nl.add_gate(GateType::Mux, {s, a, a}));
  nl.set_ff_input(s, s);
  nl.set_ff_input(a, a);
  Cone cone = nl.extract_next_state_cone(t);
  ConeDependenceChecker chk(nl, cone);
  EXPECT_FALSE(chk.depends_on(leaf_index(cone, s)));
  EXPECT_TRUE(chk.depends_on(leaf_index(cone, a)));
}

TEST(ConeCheck, ConstantGatedAndIsOnlyStructural) {
  // t.D = AND(x, 0): x cannot propagate.
  Netlist nl;
  NodeId x = nl.add_ff("x");
  NodeId zero = nl.add_const(false);
  NodeId t = nl.add_ff("t");
  nl.set_ff_input(t, nl.add_gate(GateType::And, {x, zero}));
  nl.set_ff_input(x, x);
  Cone cone = nl.extract_next_state_cone(t);
  ConeDependenceChecker chk(nl, cone);
  EXPECT_FALSE(chk.depends_on(leaf_index(cone, x)));
}

TEST(ConeCheck, ConstantLeafNeverFunctional) {
  Netlist nl;
  NodeId one = nl.add_const(true);
  NodeId x = nl.add_ff("x");
  NodeId t = nl.add_ff("t");
  nl.set_ff_input(t, nl.add_gate(GateType::And, {x, one}));
  nl.set_ff_input(x, x);
  Cone cone = nl.extract_next_state_cone(t);
  ConeDependenceChecker chk(nl, cone);
  EXPECT_FALSE(chk.depends_on(leaf_index(cone, one)));
  EXPECT_TRUE(chk.depends_on(leaf_index(cone, x)));
}

TEST(ConeCheck, DeepCancellationAcrossGates) {
  // t.D = (x AND y) XOR (x AND y) OR z — the duplicate subterm cancels
  // both x and y.
  Netlist nl;
  NodeId x = nl.add_ff("x");
  NodeId y = nl.add_ff("y");
  NodeId z = nl.add_ff("z");
  NodeId g1 = nl.add_gate(GateType::And, {x, y});
  NodeId g2 = nl.add_gate(GateType::And, {x, y});
  NodeId dead = nl.add_gate(GateType::Xor, {g1, g2});
  NodeId d = nl.add_gate(GateType::Or, {dead, z});
  NodeId t = nl.add_ff("t");
  nl.set_ff_input(t, d);
  for (NodeId f : {x, y, z}) nl.set_ff_input(f, f);
  Cone cone = nl.extract_next_state_cone(t);
  ConeDependenceChecker chk(nl, cone);
  EXPECT_FALSE(chk.depends_on(leaf_index(cone, x)));
  EXPECT_FALSE(chk.depends_on(leaf_index(cone, y)));
  EXPECT_TRUE(chk.depends_on(leaf_index(cone, z)));
}

// Property: the SAT verdict must agree with exhaustive simulation over
// all leaf assignments on random small cones.
class ConeFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ConeFuzz, AgreesWithExhaustiveSimulation) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 39916801 + 3);
  Netlist nl;
  const std::size_t n_ffs = 2 + rng.below(4);  // 2..5 leaves
  std::vector<NodeId> ffs;
  for (std::size_t i = 0; i < n_ffs; ++i) {
    NodeId f = nl.add_ff("f" + std::to_string(i));
    nl.set_ff_input(f, f);
    ffs.push_back(f);
  }
  // Random DAG of gates over the FFs.
  std::vector<NodeId> pool = ffs;
  std::size_t n_gates = 1 + rng.below(6);
  NodeId last = pool[0];
  for (std::size_t g = 0; g < n_gates; ++g) {
    NodeId a = rng.pick(pool), b = rng.pick(pool), c = rng.pick(pool);
    switch (rng.below(5)) {
      case 0: last = nl.add_gate(GateType::And, {a, b}); break;
      case 1: last = nl.add_gate(GateType::Or, {a, b}); break;
      case 2: last = nl.add_gate(GateType::Xor, {a, b}); break;
      case 3: last = nl.add_gate(GateType::Not, {a}); break;
      default: last = nl.add_gate(GateType::Mux, {a, b, c}); break;
    }
    pool.push_back(last);
  }
  NodeId t = nl.add_ff("t");
  nl.set_ff_input(t, last);

  Cone cone = nl.extract_next_state_cone(t);
  ConeDependenceChecker chk(nl, cone);
  std::vector<std::uint64_t> scratch;

  for (std::size_t li = 0; li < cone.leaves.size(); ++li) {
    // Exhaustive: does flipping leaf li ever flip the root?
    bool functional = false;
    std::size_t n_leaves = cone.leaves.size();
    for (std::uint32_t m = 0; m < (1u << n_leaves) && !functional; ++m) {
      std::vector<std::uint64_t> vals(n_leaves);
      for (std::size_t i = 0; i < n_leaves; ++i)
        vals[i] = ((m >> i) & 1u) ? ~0ULL : 0ULL;
      std::uint64_t f0 = eval_cone(nl, cone, vals, scratch);
      vals[li] = ~vals[li];
      std::uint64_t f1 = eval_cone(nl, cone, vals, scratch);
      functional = (f0 != f1);
    }
    EXPECT_EQ(chk.depends_on(li), functional) << "leaf " << li;
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, ConeFuzz, ::testing::Range(0, 40));

// Property: on random cones of 1-8 free leaves (flip-flops and inputs),
// with constant leaves and fanins shared between gates, the exhaustive
// check decides every leaf as the SAT checker does. Every tenth case is
// the degenerate cone of a single leaf.
class ExhaustiveFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ExhaustiveFuzz, EqualsTheCheckerOnEveryLeaf) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761u + 17);
  Netlist nl;
  std::vector<NodeId> pool;
  const std::size_t n_free = 1 + rng.below(8);
  for (std::size_t i = 0; i < n_free; ++i) {
    if (rng.chance(0.7)) {
      NodeId f = nl.add_ff("f" + std::to_string(i));
      nl.set_ff_input(f, f);
      pool.push_back(f);
    } else {
      pool.push_back(nl.add_input("i" + std::to_string(i)));
    }
  }
  const std::size_t n_const = rng.below(3);
  for (std::size_t i = 0; i < n_const; ++i)
    pool.push_back(nl.add_const(rng.chance(0.5)));

  NodeId root = rng.pick(pool);
  if (GetParam() % 10 != 0) {
    const std::size_t n_gates = 1 + rng.below(10);
    for (std::size_t g = 0; g < n_gates; ++g) {
      // Fanins are drawn with replacement from everything built so far,
      // so gates share fanins and reconverge.
      std::vector<NodeId> ins;
      const std::size_t arity = 1 + rng.below(4);
      for (std::size_t k = 0; k < arity; ++k) ins.push_back(rng.pick(pool));
      static constexpr GateType kNary[] = {GateType::And,  GateType::Nand,
                                           GateType::Or,   GateType::Nor,
                                           GateType::Xor,  GateType::Xnor};
      switch (rng.below(4)) {
        case 0:
          root = nl.add_gate(rng.chance(0.5) ? GateType::Not : GateType::Buf,
                             {ins[0]});
          break;
        case 1:
          root = nl.add_gate(GateType::Mux, {ins[0], rng.pick(pool),
                                             rng.pick(pool)});
          break;
        default:
          root = nl.add_gate(kNary[rng.below(6)], ins);
          break;
      }
      pool.push_back(root);
    }
  }

  ConeWorkspace ws(nl);
  Cone cone;
  ws.extract_signal_cone(root, cone);
  std::vector<bool> depends;
  ASSERT_TRUE(exhaustive_dependence(ws, cone, depends));
  ASSERT_EQ(depends.size(), cone.leaves.size());
  ConeDependenceChecker chk(nl, cone);
  for (std::size_t li = 0; li < cone.leaves.size(); ++li)
    EXPECT_EQ(depends[li], chk.query(li) == sat::Result::Sat) << "leaf " << li;
}

INSTANTIATE_TEST_SUITE_P(Fuzz, ExhaustiveFuzz, ::testing::Range(0, 200));

TEST(ConeCheck, ExhaustiveCheckStopsAtNineFreeLeaves) {
  // Constants do not count toward the limit; a ninth free leaf does.
  Netlist nl;
  std::vector<NodeId> leaves{nl.add_const(false), nl.add_const(true)};
  for (int i = 0; i < 8; ++i) leaves.push_back(nl.add_input("x"));
  ConeWorkspace ws(nl);
  Cone cone;
  ws.extract_signal_cone(nl.add_gate(GateType::Xor, leaves), cone);
  std::vector<bool> depends;
  ASSERT_TRUE(exhaustive_dependence(ws, cone, depends));
  for (std::size_t i = 0; i < cone.leaves.size(); ++i)
    EXPECT_EQ(depends[i], nl.node(cone.leaves[i]).type == GateType::Input);

  leaves.push_back(nl.add_input("y"));
  ws.extract_signal_cone(nl.add_gate(GateType::Xor, leaves), cone);
  depends.assign(3, true);
  EXPECT_FALSE(exhaustive_dependence(ws, cone, depends));
  EXPECT_EQ(depends, std::vector<bool>(3, true));
}

}  // namespace
}  // namespace rsnsec::netlist
