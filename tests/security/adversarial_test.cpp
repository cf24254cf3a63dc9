// Adversarial topologies for the full pipeline: deeply nested SIB trees,
// several interacting tokens, shared accepted-masks and chained relays.

#include <gtest/gtest.h>

#include "core/tool.hpp"
#include "security/hybrid.hpp"

namespace rsnsec::security {
namespace {

using netlist::Netlist;
using netlist::NodeId;
using rsn::ElemId;
using rsn::Rsn;

/// Wraps `inner_out` with a SIB bypass mux fed from `entry`.
ElemId sib_wrap(Rsn& net, ElemId entry, ElemId inner_out,
                const std::string& name) {
  ElemId m = net.add_mux(name, 2);
  net.connect(entry, m, 0);
  net.connect(inner_out, m, 1);
  return m;
}

TEST(Adversarial, DeeplyNestedSibTreeWithLeafViolation) {
  // Four levels of nested SIBs; the confidential register sits at the
  // innermost level, the untrusted one at the outermost, downstream.
  Netlist nl;
  for (const char* m : {"conf", "mid", "untrusted"}) nl.add_module(m);
  NodeId cf = nl.add_ff("cf", 0);
  NodeId uf = nl.add_ff("uf", 2);
  nl.set_ff_input(cf, cf);
  nl.set_ff_input(uf, uf);

  Rsn net("nested");
  ElemId cur = net.scan_in();
  std::vector<ElemId> sib_regs;
  // Descend: each level adds a 1-FF SIB control register, innermost
  // holds the confidential payload register.
  ElemId entry = cur;
  std::vector<ElemId> entries;
  for (int level = 0; level < 4; ++level) {
    ElemId s = net.add_register("sib" + std::to_string(level), 1, 1);
    net.connect(entry, s, 0);
    entries.push_back(entry);
    entry = s;
    sib_regs.push_back(s);
  }
  ElemId payload = net.add_register("payload", 4, 0);
  net.connect(entry, payload, 0);
  net.set_capture(payload, 0, cf);
  // Ascend: close each SIB with its bypass mux.
  ElemId inner = payload;
  for (int level = 3; level >= 0; --level) {
    inner = sib_wrap(net, sib_regs[static_cast<std::size_t>(level)], inner,
                     "m" + std::to_string(level));
  }
  ElemId victim = net.add_register("victim", 2, 2);
  net.connect(inner, victim, 0);
  net.set_capture(victim, 0, uf);
  net.connect(victim, net.scan_out(), 0);

  SecuritySpec spec(3, 2);
  spec.set_policy(0, 1, 0b10);
  spec.set_policy(2, 0, 0b11);
  ASSERT_TRUE(net.validate());

  SecureFlowTool tool(nl, net, spec);
  PipelineResult r = tool.run();
  ASSERT_TRUE(r.secured);
  EXPECT_GE(r.total_changes(), 1);
  // All registers (SIB controls included) stay accessible.
  const rsn::ScanAccess access = net.scan_access();
  for (rsn::ElemId r : net.registers())
    EXPECT_TRUE(access.accessible(r)) << net.elem(r).name;
}

TEST(Adversarial, TwoTokensWithOppositeVictims) {
  // Token A must not reach module X, token B must not reach module Y;
  // X sits between A and B on the chain, Y after B. Resolution must
  // handle both without starving either register of access.
  Netlist nl;
  for (const char* m : {"A", "X", "B", "Y"}) nl.add_module(m);
  Rsn net("two");
  ElemId ra = net.add_register("ra", 1, 0);
  ElemId rx = net.add_register("rx", 1, 1);
  ElemId rb = net.add_register("rb", 1, 2);
  ElemId ry = net.add_register("ry", 1, 3);
  net.connect(net.scan_in(), ra, 0);
  net.connect(ra, rx, 0);
  net.connect(rx, rb, 0);
  net.connect(rb, ry, 0);
  net.connect(ry, net.scan_out(), 0);

  SecuritySpec spec(4, 3);
  spec.set_policy(0, 2, 0b110);  // A rejects category 0 (= X)
  spec.set_policy(1, 0, 0b111);
  spec.set_policy(2, 2, 0b101);  // B rejects category 1 (= Y)
  spec.set_policy(3, 1, 0b111);
  ASSERT_TRUE(spec.validate());

  SecureFlowTool tool(nl, net, spec);
  PipelineResult r = tool.run();
  ASSERT_TRUE(r.secured);
  EXPECT_GE(r.total_changes(), 2);

  // Independent re-check with fresh analyzers.
  dep::DependencyAnalyzer deps(nl, net, {});
  deps.run();
  TokenTable tokens(spec, 4);
  HybridAnalyzer hybrid(nl, net, deps, spec, tokens);
  EXPECT_EQ(hybrid.count_violating_pairs(net), 0u);
  const rsn::ScanAccess access = net.scan_access();
  for (rsn::ElemId r : net.registers())
    EXPECT_TRUE(access.accessible(r)) << net.elem(r).name;
}

TEST(Adversarial, SharedAcceptedMaskIsNotAViolation) {
  // Two modules with identical accepted-masks share a token id; data of
  // one reaching the other must not be flagged (their trusts are both
  // accepted by the shared mask after validation).
  Netlist nl;
  nl.add_module("m1");
  nl.add_module("m2");
  Rsn net("shared");
  ElemId r1 = net.add_register("r1", 1, 0);
  ElemId r2 = net.add_register("r2", 1, 1);
  net.connect(net.scan_in(), r1, 0);
  net.connect(r1, r2, 0);
  net.connect(r2, net.scan_out(), 0);

  SecuritySpec spec(2, 3);
  spec.set_policy(0, 1, 0b110);  // same mask, different trusts (1 and 2)
  spec.set_policy(1, 2, 0b110);
  ASSERT_TRUE(spec.validate());

  SecureFlowTool tool(nl, net, spec);
  PipelineResult r = tool.run();
  ASSERT_TRUE(r.secured);
  EXPECT_EQ(r.total_changes(), 0);
}

TEST(Adversarial, ChainedRelaysNeedMultipleCuts) {
  // conf -> relay1 -> relay2 -> victim, where each relay leg goes through
  // the circuit (update -> FF -> FF -> capture). A single cut between
  // conf and relay1 suffices; verify the loop finds a minimal repair and
  // the result is clean.
  Netlist nl;
  for (const char* m : {"conf", "r1", "r2", "vic"}) nl.add_module(m);
  NodeId cf = nl.add_ff("cf", 0);
  NodeId a_in = nl.add_ff("a_in", 1);
  NodeId a_out = nl.add_ff("a_out", 1);
  NodeId b_in = nl.add_ff("b_in", 2);
  NodeId b_out = nl.add_ff("b_out", 2);
  NodeId vf = nl.add_ff("vf", 3);
  nl.set_ff_input(cf, cf);
  nl.set_ff_input(a_in, a_in);
  nl.set_ff_input(a_out, a_in);
  nl.set_ff_input(b_in, a_out);  // circuit hop relay1 -> relay2
  nl.set_ff_input(b_out, b_in);
  nl.set_ff_input(vf, b_out);  // circuit hop relay2 -> victim

  Rsn net("chain");
  ElemId rc = net.add_register("rc", 1, 0);
  ElemId rr1 = net.add_register("rr1", 1, 1);
  ElemId rr2 = net.add_register("rr2", 1, 2);
  ElemId rv = net.add_register("rv", 1, 3);
  net.connect(net.scan_in(), rv, 0);  // victim upstream: hybrid-only
  net.connect(rv, rc, 0);
  net.connect(rc, rr1, 0);
  net.connect(rr1, rr2, 0);
  net.connect(rr2, net.scan_out(), 0);
  net.set_capture(rc, 0, cf);
  net.set_update(rr1, 0, a_in);
  net.set_capture(rv, 0, vf);

  SecuritySpec spec(4, 2);
  spec.set_policy(0, 1, 0b10);  // conf data: trusted only
  spec.set_policy(3, 0, 0b11);  // victim is untrusted
  ASSERT_TRUE(spec.validate());

  SecureFlowTool tool(nl, net, spec);
  PipelineResult r = tool.run();
  ASSERT_TRUE(r.secured) << "intra=" << r.static_report.intra_segment
                         << " logic=" << r.static_report.insecure_logic;
  EXPECT_GE(r.hybrid.applied_changes, 1);

  dep::DependencyAnalyzer deps(nl, net, {});
  deps.run();
  TokenTable tokens(spec, 4);
  HybridAnalyzer hybrid(nl, net, deps, spec, tokens);
  EXPECT_EQ(hybrid.count_violating_pairs(net), 0u);
}

}  // namespace
}  // namespace rsnsec::security
