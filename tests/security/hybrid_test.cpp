#include "security/hybrid.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dep/analyzer.hpp"
#include "oracle/resolve_oracle.hpp"

namespace rsnsec::security {
namespace {

using netlist::GateType;
using netlist::Netlist;
using netlist::NodeId;
using rsn::ElemId;
using rsn::Rsn;

/// Modules: 0 = confidential (accepts category 1 only), 1 = relay
/// (permissive), 2 = untrusted (trust category 0).
SecuritySpec make_spec() {
  SecuritySpec spec(3, 2);
  spec.set_policy(0, 1, 0b10);
  spec.set_policy(1, 1, 0b11);
  spec.set_policy(2, 0, 0b11);
  return spec;
}

struct Analysis {
  Netlist nl;
  Rsn net{"t"};
  SecuritySpec spec = make_spec();

  dep::DependencyAnalyzer run_deps() {
    dep::DependencyAnalyzer d(nl, net, {});
    d.run();
    return d;
  }
};

TEST(Hybrid, DetectsUpdateCircuitViolation) {
  // regC (conf, captures cf) -> RSN -> regR (relay, updates rf);
  // rf -> uf (untrusted) in the circuit: a hybrid violation.
  Analysis a;
  for (const char* m : {"conf", "relay", "untrusted"}) a.nl.add_module(m);
  NodeId cf = a.nl.add_ff("cf", 0);
  NodeId rf = a.nl.add_ff("rf", 1);
  NodeId uf = a.nl.add_ff("uf", 2);
  a.nl.set_ff_input(cf, cf);
  a.nl.set_ff_input(rf, rf);
  a.nl.set_ff_input(uf, rf);

  ElemId reg_c = a.net.add_register("regC", 1, 0);
  ElemId reg_r = a.net.add_register("regR", 1, 1);
  // The untrusted module's instrument register: keeps uf RSN-connected
  // (un-attached flip-flops are bridged away as transit-only). Placed
  // UPSTREAM so no pure scan path leads from regC to it.
  ElemId reg_u = a.net.add_register("regU", 1, 2);
  a.net.connect(a.net.scan_in(), reg_u, 0);
  a.net.connect(reg_u, reg_c, 0);
  a.net.connect(reg_c, reg_r, 0);
  a.net.connect(reg_r, a.net.scan_out(), 0);
  a.net.set_capture(reg_c, 0, cf);
  a.net.set_update(reg_r, 0, rf);
  a.net.set_capture(reg_u, 0, uf);

  dep::DependencyAnalyzer deps = a.run_deps();
  TokenTable tokens(a.spec, 3);
  HybridAnalyzer hybrid(a.nl, a.net, deps, a.spec, tokens);

  EXPECT_TRUE(hybrid.check_static().clean());
  EXPECT_GT(hybrid.count_violating_pairs(a.net), 0u);

  auto v = hybrid.find_violation(a.net);
  ASSERT_TRUE(v.has_value());
  EXPECT_FALSE(v->rsn_connections.empty());

  HybridStats stats = hybrid.detect_and_resolve(a.net);
  EXPECT_GE(stats.applied_changes, 1);
  EXPECT_EQ(hybrid.count_violating_pairs(a.net), 0u);
  std::string err;
  EXPECT_TRUE(a.net.validate(&err)) << err;
}

TEST(Hybrid, FlipFlopGranularityAvoidsFalsePositive) {
  // The Fig. 4 discussion: within one register, capture happens at the
  // LATER flip-flop and update at the EARLIER one. Data can only shift
  // toward scan-out, so the two circuit attachments cannot concatenate —
  // a register-granular method would falsely report a violation here.
  Analysis a;
  for (const char* m : {"conf", "relay", "untrusted"}) a.nl.add_module(m);
  NodeId cf = a.nl.add_ff("cf", 0);
  NodeId xf = a.nl.add_ff("xf", 1);  // functionally depends on cf
  NodeId rf = a.nl.add_ff("rf", 1);
  NodeId uf = a.nl.add_ff("uf", 2);
  a.nl.set_ff_input(cf, cf);
  a.nl.set_ff_input(xf, cf);
  a.nl.set_ff_input(rf, rf);
  a.nl.set_ff_input(uf, rf);

  ElemId reg = a.net.add_register("regM", 2, 1);
  ElemId reg_u = a.net.add_register("regU", 1, 2);  // keeps uf attached
  ElemId reg_c = a.net.add_register("regC", 1, 0);  // keeps cf attached
  a.net.connect(a.net.scan_in(), reg_u, 0);  // upstream: no pure path to it
  a.net.connect(reg_u, reg, 0);
  a.net.connect(reg, reg_c, 0);  // conf register last: its token is inert
  a.net.connect(reg_c, a.net.scan_out(), 0);
  a.net.set_capture(reg_u, 0, uf);
  a.net.set_capture(reg_c, 0, cf);
  a.net.set_update(reg, 0, rf);   // earlier FF updates
  a.net.set_capture(reg, 1, xf);  // later FF captures confidential data

  dep::DependencyAnalyzer deps = a.run_deps();
  TokenTable tokens(a.spec, 3);
  HybridAnalyzer hybrid(a.nl, a.net, deps, a.spec, tokens);

  EXPECT_TRUE(hybrid.check_static().clean());
  EXPECT_EQ(hybrid.count_violating_pairs(a.net), 0u);
  EXPECT_FALSE(hybrid.find_violation(a.net).has_value());
}

TEST(Hybrid, IntraSegmentFlowReportedAsStatic) {
  // Reversed attachment: capture at the earlier FF, update at the later
  // one. Now the flow exists entirely inside the register and cannot be
  // fixed by RSN rewiring: check_static must flag it.
  Analysis a;
  for (const char* m : {"conf", "relay", "untrusted"}) a.nl.add_module(m);
  NodeId cf = a.nl.add_ff("cf", 0);
  NodeId xf = a.nl.add_ff("xf", 1);
  NodeId rf = a.nl.add_ff("rf", 1);
  NodeId uf = a.nl.add_ff("uf", 2);
  a.nl.set_ff_input(cf, cf);
  a.nl.set_ff_input(xf, cf);
  a.nl.set_ff_input(rf, rf);
  a.nl.set_ff_input(uf, rf);

  ElemId reg = a.net.add_register("regM", 2, 1);
  ElemId reg_u = a.net.add_register("regU", 1, 2);  // keeps uf attached
  ElemId reg_c = a.net.add_register("regC", 1, 0);  // keeps cf attached
  a.net.connect(a.net.scan_in(), reg_u, 0);
  a.net.connect(reg_u, reg, 0);
  a.net.connect(reg, reg_c, 0);
  a.net.connect(reg_c, a.net.scan_out(), 0);
  a.net.set_capture(reg_u, 0, uf);
  a.net.set_capture(reg_c, 0, cf);
  a.net.set_capture(reg, 0, xf);  // earlier FF captures
  a.net.set_update(reg, 1, rf);   // later FF updates

  dep::DependencyAnalyzer deps = a.run_deps();
  TokenTable tokens(a.spec, 3);
  HybridAnalyzer hybrid(a.nl, a.net, deps, a.spec, tokens);

  StaticReport report = hybrid.check_static();
  EXPECT_FALSE(report.insecure_logic);
  EXPECT_TRUE(report.intra_segment);
}

TEST(Hybrid, InsecureCircuitLogicDetected) {
  // cf (confidential) feeds uf (untrusted) directly in the circuit: a
  // Sec. III-B violation, independent of any scan infrastructure.
  Analysis a;
  for (const char* m : {"conf", "relay", "untrusted"}) a.nl.add_module(m);
  NodeId cf = a.nl.add_ff("cf", 0);
  NodeId uf = a.nl.add_ff("uf", 2);
  a.nl.set_ff_input(cf, cf);
  a.nl.set_ff_input(uf, cf);

  ElemId reg = a.net.add_register("reg", 1, 0);
  ElemId reg_u = a.net.add_register("regU", 1, 2);  // keeps uf attached
  a.net.connect(a.net.scan_in(), reg, 0);
  a.net.connect(reg, reg_u, 0);
  a.net.connect(reg_u, a.net.scan_out(), 0);
  a.net.set_capture(reg, 0, cf);
  a.net.set_capture(reg_u, 0, uf);

  dep::DependencyAnalyzer deps = a.run_deps();
  TokenTable tokens(a.spec, 3);
  HybridAnalyzer hybrid(a.nl, a.net, deps, a.spec, tokens);
  StaticReport report = hybrid.check_static();
  EXPECT_TRUE(report.insecure_logic);
  EXPECT_FALSE(report.clean());
}

TEST(Hybrid, StructuralOnlyCircuitPathIsSafe) {
  // cf -> uf exists structurally but the XOR reconvergence cancels it:
  // the exact analysis must NOT flag insecure logic (Fig. 5 argument).
  Analysis a;
  for (const char* m : {"conf", "relay", "untrusted"}) a.nl.add_module(m);
  NodeId cf = a.nl.add_ff("cf", 0);
  NodeId live = a.nl.add_ff("live", 1);
  NodeId uf = a.nl.add_ff("uf", 2);
  a.nl.set_ff_input(cf, cf);
  a.nl.set_ff_input(live, live);
  NodeId dead = a.nl.add_gate(GateType::Xor, {cf, cf});
  a.nl.set_ff_input(uf, a.nl.add_gate(GateType::Or, {dead, live}));

  ElemId reg = a.net.add_register("reg", 1, 0);
  ElemId reg_u = a.net.add_register("regU", 1, 2);  // keeps uf attached
  a.net.connect(a.net.scan_in(), reg, 0);
  a.net.connect(reg, reg_u, 0);
  a.net.connect(reg_u, a.net.scan_out(), 0);
  a.net.set_capture(reg, 0, cf);
  a.net.set_capture(reg_u, 0, uf);

  dep::DependencyAnalyzer deps = a.run_deps();
  TokenTable tokens(a.spec, 3);
  HybridAnalyzer hybrid(a.nl, a.net, deps, a.spec, tokens);
  EXPECT_TRUE(hybrid.check_static().clean());

  // The structural-only over-approximation (Sec. IV-C) falsely classifies
  // the same circuit as insecure.
  dep::DepOptions opt;
  opt.mode = dep::DepMode::StructuralOnly;
  dep::DependencyAnalyzer deps2(a.nl, a.net, opt);
  deps2.run();
  HybridAnalyzer hybrid2(a.nl, a.net, deps2, a.spec, tokens);
  EXPECT_TRUE(hybrid2.check_static().insecure_logic);
}

TEST(Hybrid, CyclicAttributePropagationReachesFixpoint) {
  // regC updates co; circuit: ri.D = co; regR (UPSTREAM of regC)
  // captures ri. The confidential attribute must flow "against" the scan
  // order through the circuit and back down to the untrusted register —
  // the omnidirectional propagation of Sec. III-D.
  Analysis a;
  for (const char* m : {"conf", "relay", "untrusted"}) a.nl.add_module(m);
  NodeId co = a.nl.add_ff("co", 0);
  NodeId ri = a.nl.add_ff("ri", 1);
  NodeId uf = a.nl.add_ff("uf", 2);
  a.nl.set_ff_input(co, co);
  a.nl.set_ff_input(ri, co);
  a.nl.set_ff_input(uf, uf);

  ElemId reg_r = a.net.add_register("regR", 1, 1);
  ElemId reg_c = a.net.add_register("regC", 1, 0);
  ElemId reg_u = a.net.add_register("regU", 1, 2);
  a.net.connect(a.net.scan_in(), reg_r, 0);
  a.net.connect(reg_r, reg_c, 0);
  a.net.connect(reg_c, reg_u, 0);
  a.net.connect(reg_u, a.net.scan_out(), 0);
  a.net.set_update(reg_c, 0, co);
  a.net.set_capture(reg_r, 0, ri);

  dep::DependencyAnalyzer deps = a.run_deps();
  TokenTable tokens(a.spec, 3);
  HybridAnalyzer hybrid(a.nl, a.net, deps, a.spec, tokens);
  ASSERT_TRUE(hybrid.check_static().clean());
  // Violation: conf token cycles regC -> co -> ri -> regR -> regC -> regU.
  EXPECT_GT(hybrid.count_violating_pairs(a.net), 0u);

  HybridStats stats = hybrid.detect_and_resolve(a.net);
  EXPECT_GE(stats.applied_changes, 1);
  EXPECT_EQ(hybrid.count_violating_pairs(a.net), 0u);
  std::string err;
  EXPECT_TRUE(a.net.validate(&err)) << err;
}

TEST(Hybrid, ResolutionKeepsEveryRegister) {
  Analysis a;
  for (const char* m : {"conf", "relay", "untrusted"}) a.nl.add_module(m);
  NodeId cf = a.nl.add_ff("cf", 0);
  NodeId rf = a.nl.add_ff("rf", 1);
  NodeId uf = a.nl.add_ff("uf", 2);
  a.nl.set_ff_input(cf, cf);
  a.nl.set_ff_input(rf, rf);
  a.nl.set_ff_input(uf, rf);

  ElemId reg_c = a.net.add_register("regC", 2, 0);
  ElemId reg_r = a.net.add_register("regR", 2, 1);
  ElemId reg_u = a.net.add_register("regU", 2, 2);
  a.net.connect(a.net.scan_in(), reg_c, 0);
  a.net.connect(reg_c, reg_r, 0);
  a.net.connect(reg_r, reg_u, 0);
  a.net.connect(reg_u, a.net.scan_out(), 0);
  a.net.set_capture(reg_c, 0, cf);
  a.net.set_update(reg_r, 1, rf);

  dep::DependencyAnalyzer deps = a.run_deps();
  TokenTable tokens(a.spec, 3);
  HybridAnalyzer hybrid(a.nl, a.net, deps, a.spec, tokens);
  ASSERT_TRUE(hybrid.check_static().clean());
  hybrid.detect_and_resolve(a.net);
  EXPECT_EQ(a.net.registers().size(), 3u);
  EXPECT_EQ(hybrid.count_violating_pairs(a.net), 0u);
  std::string err;
  EXPECT_TRUE(a.net.validate(&err)) << err;
}

/// regC (confidential, captures cf) drives mux X0, the head of `k`
/// reconvergent 2:1 mux diamonds that end at regR: 2^k chains from regC
/// to regR. regC also drives mux Y, created before X0 so the chain DFS
/// pops it last, and Y drives the relay regU, which updates rf; rf feeds
/// the untrusted uf, which regT (upstream of regC) captures. The
/// confidential token reaches uf and regT only over the regC -> regU
/// edge: two hybrid pairs, no pure pair.
void build_diamonds(Analysis& a, int k) {
  for (const char* m : {"conf", "relay", "untrusted"}) a.nl.add_module(m);
  NodeId cf = a.nl.add_ff("cf", 0);
  NodeId rf = a.nl.add_ff("rf", 1);
  NodeId uf = a.nl.add_ff("uf", 2);
  a.nl.set_ff_input(cf, cf);
  a.nl.set_ff_input(rf, rf);
  a.nl.set_ff_input(uf, rf);

  Rsn& net = a.net;
  ElemId reg_t = net.add_register("regT", 1, 2);
  ElemId reg_c = net.add_register("regC", 1, 0);
  ElemId reg_u = net.add_register("regU", 1, 1);
  ElemId reg_r = net.add_register("regR", 1, 1);
  ElemId y = net.add_mux("Y", 2);
  ElemId x = net.add_mux("X0", 2);
  net.connect(net.scan_in(), reg_t, 0);
  net.connect(reg_t, reg_c, 0);
  net.connect(reg_c, y, 0);
  net.connect(net.scan_in(), y, 1);
  net.connect(y, reg_u, 0);
  net.connect(reg_c, x, 0);
  net.connect(net.scan_in(), x, 1);
  for (int i = 1; i <= k; ++i) {
    const std::string n = std::to_string(i);
    ElemId l = net.add_mux("A" + n, 2);
    ElemId r = net.add_mux("B" + n, 2);
    ElemId join = net.add_mux("X" + n, 2);
    net.connect(x, l, 0);
    net.connect(net.scan_in(), l, 1);
    net.connect(x, r, 0);
    net.connect(net.scan_in(), r, 1);
    net.connect(l, join, 0);
    net.connect(r, join, 1);
    x = join;
  }
  net.connect(x, reg_r, 0);
  ElemId out = net.add_mux("Z", 2);
  net.connect(reg_u, out, 0);
  net.connect(reg_r, out, 1);
  net.connect(out, net.scan_out(), 0);
  net.set_capture(reg_t, 0, uf);
  net.set_capture(reg_c, 0, cf);
  net.set_update(reg_u, 0, rf);
}

TEST(Hybrid, ReconvergentChainsKeepEveryInterSegmentEdge) {
  // The chain DFS expands each mux once per source register, so the 2^k
  // duplicate paths to regR cannot crowd out the regC -> regU edge (a cap
  // of 256 chains per register hid it from k = 8 on).
  for (int k : {7, 8, 10}) {
    Analysis a;
    build_diamonds(a, k);
    std::string err;
    ASSERT_TRUE(a.net.validate(&err)) << err;
    dep::DependencyAnalyzer deps = a.run_deps();
    TokenTable tokens(a.spec, 3);
    HybridAnalyzer hybrid(a.nl, a.net, deps, a.spec, tokens);
    PureScanAnalyzer pure(a.spec, tokens);
    ASSERT_TRUE(hybrid.check_static().clean()) << "k = " << k;
    EXPECT_EQ(pure.count_violating_pairs(a.net), 0u) << "k = " << k;
    EXPECT_EQ(hybrid.count_violating_pairs(a.net), 2u) << "k = " << k;
    auto v = hybrid.find_violation(a.net);
    ASSERT_TRUE(v.has_value()) << "k = " << k;
    EXPECT_FALSE(v->rsn_connections.empty());

    // Resolution leaves no pair and matches the from-scratch oracle.
    Rsn engine_net = a.net;
    Rsn oracle_net = a.net;
    std::vector<AppliedChange> engine_log;
    std::vector<AppliedChange> oracle_log;
    HybridStats engine = hybrid.detect_and_resolve(engine_net, &engine_log);
    HybridStats oracle = oracle::resolve_hybrid_from_scratch(
        hybrid, oracle_net, &oracle_log, ResolutionPolicy::BestGlobal);
    EXPECT_GE(engine.applied_changes, 1) << "k = " << k;
    EXPECT_EQ(hybrid.count_violating_pairs(engine_net), 0u) << "k = " << k;
    EXPECT_TRUE(engine_net.validate(&err)) << err;
    EXPECT_EQ(engine.applied_changes, oracle.applied_changes);
    EXPECT_EQ(engine.rewire_operations, oracle.rewire_operations);
    ASSERT_EQ(engine_log.size(), oracle_log.size());
    for (std::size_t i = 0; i < engine_log.size(); ++i) {
      EXPECT_EQ(engine_log[i].note, oracle_log[i].note) << "change " << i;
      EXPECT_EQ(engine_log[i].cut, oracle_log[i].cut) << "change " << i;
    }
    ASSERT_EQ(engine_net.num_elements(), oracle_net.num_elements());
    for (ElemId id = 0; id < engine_net.num_elements(); ++id)
      EXPECT_EQ(engine_net.elem(id).inputs, oracle_net.elem(id).inputs)
          << "element " << id;
  }
}

TEST(Hybrid, NodeNamingAndIndexing) {
  Analysis a;
  a.nl.add_module("conf");
  NodeId cf = a.nl.add_ff("cf", 0);
  a.nl.set_ff_input(cf, cf);
  ElemId reg = a.net.add_register("reg", 2, 0);
  a.net.connect(a.net.scan_in(), reg, 0);
  a.net.connect(reg, a.net.scan_out(), 0);
  a.net.set_capture(reg, 0, cf);

  dep::DependencyAnalyzer deps = a.run_deps();
  SecuritySpec spec(1, 2);
  TokenTable tokens(spec, 1);
  HybridAnalyzer hybrid(a.nl, a.net, deps, spec, tokens);
  EXPECT_EQ(hybrid.num_nodes(), 3u);  // 2 scan FFs + 1 circuit FF
  EXPECT_NE(hybrid.scan_node(reg, 0), hybrid.scan_node(reg, 1));
  EXPECT_NE(hybrid.node_name(hybrid.circuit_node(cf)).find("cf"),
            std::string::npos);
}

}  // namespace
}  // namespace rsnsec::security
