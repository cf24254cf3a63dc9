#include "core/tool.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "bench/common.hpp"
#include "benchgen/circuit.hpp"
#include "benchgen/families.hpp"
#include "benchgen/specgen.hpp"
#include "obs/trace.hpp"

namespace rsnsec {
namespace {

using benchgen::attach_random_circuit;
using benchgen::bastion_profile;
using benchgen::generate_bastion;
using benchgen::generate_mbist;
using benchgen::random_spec;

struct Workload {
  rsn::RsnDocument doc;
  netlist::Netlist circuit;
  security::SecuritySpec spec;
};

Workload make_workload(const std::string& bench, std::uint64_t seed,
                       double scale) {
  Workload w;
  Rng rng(seed);
  if (bench.rfind("MBIST", 0) == 0) {
    w.doc = generate_mbist(1, 2, 2, scale);
  } else {
    w.doc = generate_bastion(bastion_profile(bench), scale, rng);
  }
  w.circuit = attach_random_circuit(w.doc, {}, rng);
  benchgen::SpecOptions sopt;
  sopt.restrict_prob = 0.4;
  w.spec = random_spec(w.doc.module_names.size(), sopt, rng);
  return w;
}

/// Property: on every generated workload where the circuit logic is not
/// statically insecure, the pipeline terminates with a valid, cycle-free,
/// violation-free network that still contains every register.
class PipelineProperty
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(PipelineProperty, SecuresGeneratedWorkloads) {
  auto [bench, seed] = GetParam();
  // FlexScan's register count equals its FF count; a smaller scale keeps
  // the property sweep fast.
  double scale = (bench == "FlexScan") ? 0.015 : 0.05;
  Workload w = make_workload(bench, static_cast<std::uint64_t>(seed) + 1,
                             scale);
  std::size_t regs_before = w.doc.network.registers().size();

  SecureFlowTool tool(w.circuit, w.doc.network, w.spec);
  PipelineResult result = tool.run();

  if (!result.static_report.clean()) {
    // Statically insecure workloads are excluded from the paper's
    // averages; nothing further to check.
    EXPECT_FALSE(result.secured);
    return;
  }
  ASSERT_TRUE(result.secured);
  EXPECT_EQ(w.doc.network.registers().size(), regs_before);
  std::string err;
  EXPECT_TRUE(w.doc.network.validate(&err)) << err;

  // The paper's guarantee: every scan register of the original network
  // is still accessible in the secure one.
  const rsn::ScanAccess access = w.doc.network.scan_access();
  for (rsn::ElemId r : w.doc.network.registers())
    EXPECT_TRUE(access.accessible(r)) << w.doc.network.elem(r).name;

  // Re-verify independently: zero violating pairs remain.
  dep::DependencyAnalyzer deps(w.circuit, w.doc.network, {});
  deps.run();
  security::TokenTable tokens(w.spec, w.spec.num_modules());
  security::HybridAnalyzer hybrid(w.circuit, w.doc.network, deps, w.spec,
                                  tokens);
  EXPECT_EQ(hybrid.count_violating_pairs(w.doc.network), 0u);
  security::PureScanAnalyzer pure(w.spec, tokens);
  EXPECT_FALSE(pure.find_violation(w.doc.network).has_value());
}

INSTANTIATE_TEST_SUITE_P(
    Benchmarks, PipelineProperty,
    ::testing::Combine(::testing::Values("BasicSCB", "Mingle", "TreeFlat",
                                         "TreeBalanced", "q12710",
                                         "FlexScan", "MBIST"),
                       ::testing::Range(0, 4)));

TEST(Pipeline, TransformationIsIdempotent) {
  // Running the pipeline on an already-secured network applies zero
  // further changes (the fixed point is stable).
  for (int seed = 0; seed < 4; ++seed) {
    Workload w = make_workload("TreeFlat",
                               static_cast<std::uint64_t>(seed) + 50, 0.2);
    SecureFlowTool first(w.circuit, w.doc.network, w.spec);
    PipelineResult r1 = first.run();
    if (!r1.secured) continue;
    SecureFlowTool second(w.circuit, w.doc.network, w.spec);
    PipelineResult r2 = second.run();
    ASSERT_TRUE(r2.secured);
    EXPECT_EQ(r2.total_changes(), 0) << "seed " << seed;
    EXPECT_EQ(r2.initial_violating_registers, 0u);
  }
}

TEST(Pipeline, RejectsInvalidSpec) {
  Workload w = make_workload("BasicSCB", 1, 0.1);
  security::SecuritySpec bad(w.doc.module_names.size(), 2);
  bad.set_policy(0, 1, 0b01);  // does not accept own category
  SecureFlowTool tool(w.circuit, w.doc.network, bad);
  EXPECT_THROW(tool.run(), std::invalid_argument);
}

TEST(Pipeline, PermissiveSpecNeedsNoChanges) {
  Workload w = make_workload("Mingle", 2, 0.1);
  security::SecuritySpec open(w.doc.module_names.size(), 2);
  SecureFlowTool tool(w.circuit, w.doc.network, open);
  PipelineResult r = tool.run();
  ASSERT_TRUE(r.secured);
  EXPECT_EQ(r.total_changes(), 0);
  EXPECT_EQ(r.initial_violating_registers, 0u);
}

TEST(Pipeline, TimingsArePopulated) {
  Workload w = make_workload("TreeFlat", 3, 0.2);
  SecureFlowTool tool(w.circuit, w.doc.network, w.spec);
  PipelineResult r = tool.run();
  EXPECT_GT(r.t_dependency, 0.0);
  EXPECT_GE(r.t_total, r.t_dependency);
}

TEST(Pipeline, ChangeLogMatchesCounters) {
  Workload w = make_workload("BasicSCB", 4, 0.15);
  SecureFlowTool tool(w.circuit, w.doc.network, w.spec);
  PipelineResult r = tool.run();
  if (r.secured) {
    EXPECT_EQ(r.changes.size(),
              static_cast<std::size_t>(r.total_changes()));
  }
}

TEST(Pipeline, StructuralModeNeverMissesExactViolations) {
  // Soundness of the Sec. IV-C over-approximation: if the exact pipeline
  // found violations, the structural-only pipeline must find at least as
  // many (or classify the logic insecure).
  for (int seed = 0; seed < 4; ++seed) {
    Workload w1 =
        make_workload("Mingle", 100 + static_cast<std::uint64_t>(seed), 0.1);
    Workload w2 =
        make_workload("Mingle", 100 + static_cast<std::uint64_t>(seed), 0.1);
    SecureFlowTool exact(w1.circuit, w1.doc.network, w1.spec);
    PipelineResult re = exact.run();
    PipelineOptions opt;
    opt.dep.mode = dep::DepMode::StructuralOnly;
    SecureFlowTool over(w2.circuit, w2.doc.network, w2.spec, opt);
    PipelineResult ro = over.run();
    if (re.secured && ro.secured) {
      EXPECT_GE(ro.initial_violating_registers,
                re.initial_violating_registers);
    }
  }
}

TEST(Pipeline, TracedRunRecordsEveryPhaseSpanUnderItsPipelineParent) {
  // A Table I grid-1000 instance (FlexScan, circuit 2, spec 1) whose pure
  // and hybrid stages both apply changes.
  bench::SweepOptions sweep;
  sweep.base_seed = 1000;
  bench::Instance inst = bench::make_instance("FlexScan", sweep, 2);
  security::SecuritySpec spec =
      bench::make_spec(inst, sweep.spec, /*spec_base_seed=*/1, 2, 1);
  PipelineOptions opt;
  opt.resolve.num_threads = 1;

  obs::TraceSession session;
  struct Deactivate {
    ~Deactivate() { obs::TraceSession::set_active(nullptr); }
  } deactivate;
  obs::TraceSession::set_active(&session);
  SecureFlowTool tool(inst.circuit, inst.doc.network, spec, opt);
  PipelineResult r = tool.run();
  ASSERT_TRUE(r.secured);
  ASSERT_GT(r.pure.applied_changes, 0);
  ASSERT_GT(r.hybrid.applied_changes, 0);

  const std::vector<obs::SpanEvent> events = session.events();
  std::map<std::uint64_t, const obs::SpanEvent*> by_id;
  for (const obs::SpanEvent& e : events) by_id[e.id] = &e;
  // The nearest enclosing span named pipeline or pipeline.*.
  auto pipeline_parent = [&](const obs::SpanEvent& e) -> std::string {
    for (auto it = by_id.find(e.parent); it != by_id.end();
         it = by_id.find(it->second->parent))
      if (it->second->name.rfind("pipeline", 0) == 0) return it->second->name;
    return "";
  };
  const std::map<std::string, std::string> expected = {
      {"pipeline.validate", "pipeline"},
      {"pipeline.static", "pipeline"},
      {"hybrid.build", "pipeline.static"},
      {"pure.index", "pipeline.pure"},
      {"pure.find_violation", "pipeline.pure"},
      {"pure.select", "pipeline.pure"},
      {"pure.commit", "pipeline.pure"},
      {"hybrid.index", "pipeline.hybrid"},
      {"hybrid.find_violation", "pipeline.hybrid"},
      {"hybrid.select", "pipeline.hybrid"},
      {"hybrid.commit", "pipeline.hybrid"},
      {"hybrid.forest", "pipeline.hybrid"},
  };
  std::set<std::string> seen;
  for (const obs::SpanEvent& e : events) {
    auto it = expected.find(e.name);
    if (it == expected.end()) continue;
    seen.insert(e.name);
    EXPECT_EQ(pipeline_parent(e), it->second) << e.name;
  }
  for (const auto& [name, parent] : expected)
    EXPECT_TRUE(seen.count(name)) << name << " was not recorded";
  // One index per stage, one find_violation per loop iteration (the last
  // one finds none), one select and one commit per applied change.
  std::map<std::string, int> count;
  for (const obs::SpanEvent& e : events) ++count[e.name];
  EXPECT_EQ(count["pure.index"], 1);
  EXPECT_EQ(count["hybrid.index"], 1);
  EXPECT_EQ(count["pure.commit"], r.pure.applied_changes);
  EXPECT_EQ(count["pure.select"], r.pure.applied_changes);
  EXPECT_EQ(count["pure.find_violation"], r.pure.applied_changes + 1);
  EXPECT_EQ(count["hybrid.commit"], r.hybrid.applied_changes);
  EXPECT_EQ(count["hybrid.select"], r.hybrid.applied_changes);
  EXPECT_EQ(count["hybrid.find_violation"], r.hybrid.applied_changes + 1);
}

}  // namespace
}  // namespace rsnsec
