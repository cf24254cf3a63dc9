#include "netlist/netlist.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

namespace rsnsec::netlist {
namespace {

TEST(Netlist, BuildAndQuery) {
  Netlist nl;
  ModuleId m = nl.add_module("core");
  NodeId in = nl.add_input("pi", m);
  NodeId ff = nl.add_ff("ff", m);
  NodeId g = nl.add_gate(GateType::And, {in, ff}, "g", m);
  nl.set_ff_input(ff, g);
  EXPECT_EQ(nl.num_nodes(), 3u);
  EXPECT_EQ(nl.num_modules(), 1u);
  EXPECT_EQ(nl.module_name(m), "core");
  EXPECT_TRUE(nl.is_ff(ff));
  EXPECT_FALSE(nl.is_ff(g));
  EXPECT_EQ(nl.ffs().size(), 1u);
  EXPECT_EQ(nl.inputs().size(), 1u);
  EXPECT_TRUE(nl.validate());
}

TEST(Netlist, ValidateRejectsUnconnectedFF) {
  Netlist nl;
  nl.add_ff("dangling");
  std::string err;
  EXPECT_FALSE(nl.validate(&err));
  EXPECT_NE(err.find("no data input"), std::string::npos);
}

TEST(Netlist, ReconvergentDiamondValidates) {
  // The builder only accepts fanins that already exist, so combinational
  // cycles cannot arise; reconvergent fanout must validate.
  Netlist nl;
  NodeId in = nl.add_input("pi");
  NodeId a = nl.add_gate(GateType::Not, {in});
  NodeId b = nl.add_gate(GateType::Buf, {in});
  NodeId join = nl.add_gate(GateType::Xor, {a, b});
  NodeId ff = nl.add_ff("ff");
  nl.set_ff_input(ff, join);
  EXPECT_TRUE(nl.validate());
}

TEST(Netlist, SequentialLoopIsFine) {
  // FF -> gate -> FF loops are sequential, not combinational.
  Netlist nl;
  NodeId ff = nl.add_ff("ff");
  NodeId g = nl.add_gate(GateType::Not, {ff});
  nl.set_ff_input(ff, g);
  EXPECT_TRUE(nl.validate());
}

TEST(Netlist, AddGateTakesOnlyExistingFanins) {
  // Every fanin must exist before the node that reads it, so node-id
  // order is topological and no netlist holds a combinational loop. A
  // rejected call throws and leaves the netlist as it was.
  Netlist nl;
  NodeId in = nl.add_input("pi");
  NodeId ff = nl.add_ff("ff", no_module, in);
  auto expect_rejected = [&](auto&& call) {
    EXPECT_THROW(call(), std::invalid_argument);
    EXPECT_EQ(nl.num_nodes(), 2u);
    EXPECT_EQ(nl.ffs().size(), 1u);
    EXPECT_EQ(nl.node(ff).fanins, std::vector<NodeId>{in});
  };
  expect_rejected([&] { nl.add_gate(GateType::And, {in, 3}); });  // forward
  expect_rejected([&] { nl.add_gate(GateType::Not, {2}); });  // its own id
  expect_rejected([&] { nl.add_gate(GateType::Or, {in, no_node}); });
  expect_rejected([&] { nl.add_ff("late", no_module, 2); });
  expect_rejected([&] { nl.set_ff_input(ff, 2); });
  expect_rejected([&] { nl.set_ff_input(ff, no_node); });

  // Existing nodes are accepted, a flip-flop feeding itself included.
  NodeId g = nl.add_gate(GateType::Xor, {in, ff});
  nl.set_ff_input(ff, ff);
  nl.set_ff_input(ff, g);
  EXPECT_EQ(nl.node(ff).fanins, std::vector<NodeId>{g});
  EXPECT_TRUE(nl.validate());
}

TEST(Netlist, GateArityChecks) {
  Netlist nl;
  NodeId in = nl.add_input("pi");
  EXPECT_THROW(nl.add_gate(GateType::Mux, {in, in}), std::invalid_argument);
  EXPECT_THROW(nl.add_gate(GateType::Not, {in, in}), std::invalid_argument);
  EXPECT_THROW(nl.add_gate(GateType::Buf, {}), std::invalid_argument);
}

TEST(Netlist, SignalConeOfLeafIsDegenerate) {
  Netlist nl;
  NodeId ff = nl.add_ff("ff");
  NodeId in = nl.add_input("pi");
  nl.set_ff_input(ff, in);
  Cone c = nl.extract_signal_cone(ff);
  EXPECT_EQ(c.root, ff);
  EXPECT_TRUE(c.gates.empty());
  EXPECT_EQ(c.leaves, std::vector<NodeId>{ff});
}

TEST(Netlist, NextStateConeStopsAtSequentialLeaves) {
  Netlist nl;
  NodeId a = nl.add_ff("a");
  NodeId b = nl.add_ff("b");
  NodeId in = nl.add_input("pi");
  NodeId g1 = nl.add_gate(GateType::And, {a, in});
  NodeId g2 = nl.add_gate(GateType::Xor, {g1, b});
  nl.set_ff_input(a, in);
  nl.set_ff_input(b, g2);
  Cone c = nl.extract_next_state_cone(b);
  EXPECT_EQ(c.root, g2);
  EXPECT_EQ(c.gates.size(), 2u);
  // Topological: g1 before g2.
  auto pos = [&](NodeId n) {
    return std::find(c.gates.begin(), c.gates.end(), n) - c.gates.begin();
  };
  EXPECT_LT(pos(g1), pos(g2));
  EXPECT_EQ(c.leaves.size(), 3u);  // a, in, b
  for (NodeId leaf : {a, b, in})
    EXPECT_NE(std::find(c.leaves.begin(), c.leaves.end(), leaf),
              c.leaves.end());
}

TEST(Netlist, ConeDoesNotCrossFlipFlops) {
  // a -> g -> b(FF) -> h -> c(FF): cone of c stops at b.
  Netlist nl;
  NodeId a = nl.add_ff("a");
  NodeId g = nl.add_gate(GateType::Not, {a});
  NodeId b = nl.add_ff("b");
  nl.set_ff_input(b, g);
  NodeId h = nl.add_gate(GateType::Buf, {b});
  NodeId c = nl.add_ff("c");
  nl.set_ff_input(c, h);
  nl.set_ff_input(a, h);
  Cone cone = nl.extract_next_state_cone(c);
  EXPECT_EQ(cone.leaves, std::vector<NodeId>{b});
  EXPECT_EQ(cone.gates, std::vector<NodeId>{h});
}

TEST(Netlist, SharedSubconeVisitedOnce) {
  Netlist nl;
  NodeId a = nl.add_ff("a");
  NodeId shared = nl.add_gate(GateType::Not, {a});
  NodeId g = nl.add_gate(GateType::And, {shared, shared});
  NodeId b = nl.add_ff("b");
  nl.set_ff_input(b, g);
  nl.set_ff_input(a, g);
  Cone cone = nl.extract_next_state_cone(b);
  EXPECT_EQ(cone.leaves, std::vector<NodeId>{a});
  EXPECT_EQ(cone.gates.size(), 2u);  // shared appears once
}

TEST(EvalGate, TruthTables) {
  const std::uint64_t A = 0b1100, B = 0b1010;
  std::uint64_t v2[] = {A, B};
  EXPECT_EQ(eval_gate(GateType::And, v2, 2) & 0xF, 0b1000u);
  EXPECT_EQ(eval_gate(GateType::Or, v2, 2) & 0xF, 0b1110u);
  EXPECT_EQ(eval_gate(GateType::Xor, v2, 2) & 0xF, 0b0110u);
  EXPECT_EQ(eval_gate(GateType::Nand, v2, 2) & 0xF, 0b0111u);
  EXPECT_EQ(eval_gate(GateType::Nor, v2, 2) & 0xF, 0b0001u);
  EXPECT_EQ(eval_gate(GateType::Xnor, v2, 2) & 0xF, 0b1001u);
  std::uint64_t v1[] = {A};
  EXPECT_EQ(eval_gate(GateType::Not, v1, 1) & 0xF, 0b0011u);
  EXPECT_EQ(eval_gate(GateType::Buf, v1, 1) & 0xF, 0b1100u);
  // MUX fanins: [sel, in0, in1].
  // sel=1 -> in1 bits, sel=0 -> in0 bits: (1100 & 0110) | (0011 & 1010).
  std::uint64_t v3[] = {0b1100, 0b1010, 0b0110};
  EXPECT_EQ(eval_gate(GateType::Mux, v3, 3) & 0xF, 0b0110u);
  EXPECT_EQ(eval_gate(GateType::Const0, nullptr, 0), 0u);
  EXPECT_EQ(eval_gate(GateType::Const1, nullptr, 0), ~0ULL);
}

}  // namespace
}  // namespace rsnsec::netlist
