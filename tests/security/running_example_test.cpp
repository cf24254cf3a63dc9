#include <gtest/gtest.h>

#include "benchgen/running_example.hpp"
#include "core/tool.hpp"
#include "rsn/csu_sim.hpp"

namespace rsnsec {
namespace {

using benchgen::RunningExample;
using benchgen::make_running_example;
using rsn::CsuSimulator;
using rsn::ElemId;

/// Initializes deterministic circuit state: every FF and input zero,
/// except module B's input held high (so F5 holds its value) and the
/// secret in F2.
void init_circuit(const RunningExample& ex, CsuSimulator& sim,
                  std::uint64_t secret) {
  for (netlist::NodeId ff : ex.circuit.ffs()) sim.circuit().set_value(ff, 0);
  for (netlist::NodeId in : ex.circuit.inputs())
    sim.circuit().set_value(in, 0);
  // modB_pi gates F5's hold loop.
  for (netlist::NodeId in : ex.circuit.inputs()) {
    if (ex.circuit.node(in).name == "modB_pi")
      sim.circuit().set_value(in, ~0ULL);
  }
  sim.circuit().set_value(ex.f2, secret);
}

/// One capture / shift^k / update / clock^c round; returns the value of
/// the untrusted module's F7 afterwards.
std::uint64_t run_round(const RunningExample& ex, const rsn::Rsn& net,
                        std::uint64_t secret, std::size_t shifts,
                        std::size_t clocks) {
  CsuSimulator sim(net, ex.circuit);
  init_circuit(ex, sim, secret);
  sim.capture();
  for (std::size_t i = 0; i < shifts; ++i) sim.shift(0);
  sim.update();
  sim.clock_circuit(clocks);
  return sim.circuit().value(ex.f7);
}

/// True if any single capture/shift/update/clock round under any mux
/// configuration leaks F2 into F7 (differential test: F7 must be
/// identical for secret 0 and ~0).
bool attack_leaks(const RunningExample& ex, rsn::Rsn& net) {
  const std::vector<ElemId>& muxes = net.muxes();
  std::size_t n_cfg = 1;
  for (ElemId m : muxes) n_cfg *= net.elem(m).inputs.size();
  n_cfg = std::min<std::size_t>(n_cfg, 1024);
  std::size_t max_shift = net.num_scan_ffs();

  for (std::size_t cfg = 0; cfg < n_cfg; ++cfg) {
    std::size_t rest = cfg;
    for (ElemId m : muxes) {
      std::size_t k = net.elem(m).inputs.size();
      net.set_mux_select(m, rest % k);
      rest /= k;
    }
    if (net.active_path().empty()) continue;
    for (std::size_t shifts = 0; shifts <= max_shift; ++shifts) {
      for (std::size_t clocks = 0; clocks <= 3; ++clocks) {
        std::uint64_t a = run_round(ex, net, 0, shifts, clocks);
        std::uint64_t b = run_round(ex, net, ~0ULL, shifts, clocks);
        if (a != b) return true;
      }
    }
  }
  return false;
}

TEST(RunningExample, StructureMatchesFig1) {
  RunningExample ex = make_running_example();
  EXPECT_EQ(ex.doc.network.registers().size(), 5u);
  EXPECT_EQ(ex.doc.network.num_scan_ffs(), 14u);
  EXPECT_EQ(ex.doc.network.muxes().size(), 2u);
  EXPECT_EQ(ex.circuit.ffs().size(), 12u);  // F1..F10 + IF1 + IF2
  std::string err;
  EXPECT_TRUE(ex.doc.network.validate(&err)) << err;
  EXPECT_TRUE(ex.circuit.validate(&err)) << err;
  EXPECT_TRUE(ex.spec.validate(&err)) << err;
}

TEST(RunningExample, ActivePathWithBothMuxesSetTraversesAllRegisters) {
  RunningExample ex = make_running_example();
  std::vector<ElemId> p = ex.doc.network.active_path();
  ASSERT_FALSE(p.empty());
  for (ElemId r : {ex.r1, ex.r2, ex.r3, ex.r4, ex.r5}) {
    EXPECT_NE(std::find(p.begin(), p.end(), r), p.end());
  }
}

TEST(RunningExample, PureAttackSucceedsOnInsecureNetwork) {
  // Sec. II-C, pure path: capture F2 into SF2, shift it into SF7 (5
  // positions), update into F7.
  RunningExample ex = make_running_example();
  const std::uint64_t secret = 0xDEADBEEFCAFEF00DULL;
  CsuSimulator sim(ex.doc.network, ex.circuit);
  init_circuit(ex, sim, secret);
  sim.capture();
  EXPECT_EQ(sim.scan_value(ex.r1, 1), secret);  // SF2 holds the secret
  for (int i = 0; i < 5; ++i) sim.shift(0);
  EXPECT_EQ(sim.scan_value(ex.r4, 0), secret);  // now in SF7
  sim.update();
  EXPECT_EQ(sim.circuit().value(ex.f7), secret);  // leaked into untrusted
}

TEST(RunningExample, HybridAttackSucceedsOnInsecureNetwork) {
  // Sec. II-C, hybrid path: capture F2 into SF2, shift to SF5, update
  // into F5, then let the circuit carry it over IF1/IF2 into F7.
  RunningExample ex = make_running_example();
  const std::uint64_t secret = 0x123456789ABCDEF0ULL;
  CsuSimulator sim(ex.doc.network, ex.circuit);
  init_circuit(ex, sim, secret);
  sim.capture();
  for (int i = 0; i < 3; ++i) sim.shift(0);  // SF2 -> SF5
  EXPECT_EQ(sim.scan_value(ex.r3, 0), secret);
  sim.update();
  EXPECT_EQ(sim.circuit().value(ex.f5), secret);
  sim.clock_circuit(3);  // F5 -> IF1 -> IF2 -> F7
  EXPECT_EQ(sim.circuit().value(ex.f7), secret);
}

TEST(RunningExample, DifferentialLeakDetectedBeforeTransform) {
  RunningExample ex = make_running_example();
  EXPECT_TRUE(attack_leaks(ex, ex.doc.network));
}

TEST(RunningExample, PipelineSecuresTheNetwork) {
  RunningExample ex = make_running_example();
  SecureFlowTool tool(ex.circuit, ex.doc.network, ex.spec);
  PipelineResult result = tool.run();

  ASSERT_TRUE(result.secured);
  EXPECT_TRUE(result.static_report.clean());
  // Both the pure and the hybrid stage had work to do.
  EXPECT_GE(result.pure.applied_changes, 1);
  EXPECT_GE(result.hybrid.applied_changes, 1);
  EXPECT_GE(result.initial_violating_registers, 1u);
  // Every register is still in the network (the paper's guarantee).
  EXPECT_EQ(ex.doc.network.registers().size(), 5u);
  std::string err;
  EXPECT_TRUE(ex.doc.network.validate(&err)) << err;
}

TEST(RunningExample, NoLeakAfterTransformUnderAnyConfiguration) {
  RunningExample ex = make_running_example();
  SecureFlowTool tool(ex.circuit, ex.doc.network, ex.spec);
  ASSERT_TRUE(tool.run().secured);
  // Exhaustive differential sweep over every mux configuration, shift
  // count and clock count: the untrusted module must be independent of
  // the secret.
  EXPECT_FALSE(attack_leaks(ex, ex.doc.network));
}

TEST(RunningExample, PureStageAloneLeavesHybridThreat) {
  // Applying only [17] (pure paths) resolves the pure violation but the
  // hybrid analyzer still finds the update-through-circuit path — the
  // paper's core motivation.
  RunningExample ex = make_running_example();
  security::TokenTable tokens(ex.spec, ex.spec.num_modules());
  security::PureScanAnalyzer pure(ex.spec, tokens);
  EXPECT_GE(pure.detect_and_resolve(ex.doc.network).applied_changes, 1);
  std::string err;
  EXPECT_TRUE(ex.doc.network.validate(&err)) << err;

  // Re-analyze: hybrid violations remain.
  dep::DependencyAnalyzer deps(ex.circuit, ex.doc.network, {});
  deps.run();
  security::HybridAnalyzer hybrid(ex.circuit, ex.doc.network, deps, ex.spec,
                                  tokens);
  EXPECT_GT(hybrid.count_violating_pairs(ex.doc.network), 0u);
}

TEST(RunningExample, StructuralOnlyModeFalselyFlagsInsecureLogic) {
  // Sec. IV-C: with path-dependency over-approximated by structural
  // dependency, the F2 -> F6 -> (XOR reconvergence) -> IF1 -> F7 route
  // looks functional and the circuit logic is falsely classified as
  // insecure.
  RunningExample ex = make_running_example();
  PipelineOptions opt;
  opt.dep.mode = dep::DepMode::StructuralOnly;
  SecureFlowTool tool(ex.circuit, ex.doc.network, ex.spec, opt);
  PipelineResult result = tool.run();
  EXPECT_FALSE(result.secured);
  EXPECT_TRUE(result.static_report.insecure_logic);
}

}  // namespace
}  // namespace rsnsec
