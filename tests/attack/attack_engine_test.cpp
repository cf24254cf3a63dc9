// Attack engine end-to-end: path planning, planted-secret recovery on a
// red-team workload, bit-exact witness replay determinism, verdict
// cross-checking against the static analyses, and the post-`secure`
// differential non-leakage probe.

#include "attack/engine.hpp"

#include <gtest/gtest.h>

#include "attack/model.hpp"
#include "attack/scansat.hpp"
#include "benchgen/redteam.hpp"
#include "core/tool.hpp"
#include "rsn/pathfind.hpp"
#include "rsn/rsn.hpp"

namespace rsnsec::attack {
namespace {

// ---- find_path_through on a hand-built network:
//   scan_in -> r0 -> r1 -> mux(port0 = r0, port1 = r1) -> r2 -> scan_out
// so r1 lies on the path only when the mux selects port 1.
struct DiamondRsn {
  rsn::Rsn net{"diamond"};
  rsn::ElemId r0, r1, r2, m;

  DiamondRsn() {
    r0 = net.add_register("r0", 2, 0);
    r1 = net.add_register("r1", 1, 1);
    r2 = net.add_register("r2", 1, 2);
    m = net.add_mux("m", 2);
    net.connect(net.scan_in(), r0, 0);
    net.connect(r0, r1, 0);
    net.connect(r0, m, 0);
    net.connect(r1, m, 1);
    net.connect(m, r2, 0);
    net.connect(r2, net.scan_out(), 0);
  }
};

TEST(PathFind, PlansConfigurationThroughWaypoints) {
  DiamondRsn d;
  auto plan = rsn::find_path_through(d.net, {d.r1, d.r2});
  ASSERT_TRUE(plan.has_value());
  // The plan must route through the mux's r1 port.
  ASSERT_EQ(plan->settings.size(), 1u);
  EXPECT_EQ(plan->settings[0].mux, d.m);
  EXPECT_EQ(plan->settings[0].sel, 1u);
  // Chain order: r0[0], r0[1], r1[0], r2[0]; positions are chain offsets.
  EXPECT_EQ(plan->position_of(d.r0, 0), 0u);
  EXPECT_EQ(plan->position_of(d.r1, 0), 2u);
  EXPECT_EQ(plan->position_of(d.r2, 0), 3u);
  EXPECT_EQ(plan->position_of(d.r1, 1), rsn::PathPlan::npos);
  // Applying the plan makes it the active path.
  rsn::apply_plan(d.net, *plan);
  EXPECT_EQ(d.net.active_path(), plan->elements);
}

TEST(PathFind, RespectsWaypointOrder) {
  DiamondRsn d;
  // r2 is strictly downstream of r1: the reversed order has no path.
  EXPECT_FALSE(rsn::find_path_through(d.net, {d.r2, d.r1}).has_value());
  // A bypassed register is still reachable alone.
  EXPECT_TRUE(rsn::find_path_through(d.net, {d.r1}).has_value());
  EXPECT_TRUE(rsn::find_path_through(d.net, {d.r0, d.r2}).has_value());
}

// ---- Engine on the BasicSCB red-team workload.

class BasicScbAttack : public ::testing::Test {
 protected:
  BasicScbAttack() : w_(benchgen::make_redteam_workload("BasicSCB", 1)) {}
  benchgen::RedTeamWorkload w_;
};

TEST_F(BasicScbAttack, RecoversPlantedSecretsAndCrossChecks) {
  ASSERT_EQ(w_.scenarios.size(), 2u);  // pure + hybrid
  AttackReport rep = run_attacks(w_.circuit, w_.doc.network, w_.scenarios);
  EXPECT_FALSE(rep.soundness_bug());
  EXPECT_TRUE(rep.any_recovered());
  for (const ScenarioResult& sc : rep.scenarios) {
    EXPECT_TRUE(sc.any_recovered()) << sc.scenario;
    ASSERT_TRUE(sc.cross.ran);
    EXPECT_TRUE(sc.cross.consistent) << sc.scenario;
    // A replayed leak must be visible to the static side: violating
    // pairs exist, certification fails, and the dependency matrix holds
    // the witness's first hop (secret FF -> carrier scan FF).
    EXPECT_GT(sc.cross.violating_pairs, 0u) << sc.scenario;
    EXPECT_FALSE(sc.cross.certified) << sc.scenario;
    EXPECT_TRUE(sc.cross.dep_secret_edge) << sc.scenario;
    for (const AttackOutcome& o : sc.outcomes) {
      if (!o.recovered()) continue;
      // Recovery is only claimed on bit-exact replayed evidence, and the
      // attacker-side estimate must equal the planted ground truth.
      EXPECT_TRUE(o.differential.leaks) << o.method;
      EXPECT_FALSE(o.differential.witness.diff_ops.empty()) << o.method;
      EXPECT_EQ(o.recovered_value, o.secret_value) << o.method;
    }
  }
}

TEST_F(BasicScbAttack, WitnessReplayIsDeterministic) {
  AttackOutcome o = scansat_attack(w_.circuit, w_.doc.network,
                                   w_.scenarios[0]);
  ASSERT_TRUE(o.recovered());
  const Witness& wit = o.differential.witness;
  DifferentialResult a = differential_replay(
      w_.circuit, w_.doc.network, wit.schedule, wit.secret, wit.victim_reg,
      wit.seed);
  DifferentialResult b = differential_replay(
      w_.circuit, w_.doc.network, wit.schedule, wit.secret, wit.victim_reg,
      wit.seed);
  EXPECT_TRUE(a.leaks);
  EXPECT_EQ(a.witness.diff_ops, b.witness.diff_ops);
  EXPECT_EQ(a.witness.diff_ops, wit.diff_ops);
  EXPECT_EQ(a.shifts, b.shifts);
}

TEST_F(BasicScbAttack, SecureDefeatsEveryAttack) {
  for (const benchgen::RedTeamScenario& sc : w_.scenarios) {
    rsn::Rsn net = w_.doc.network;
    SecureFlowTool tool(w_.circuit, net, sc.spec, PipelineOptions{});
    PipelineResult r = tool.run();
    ASSERT_TRUE(r.secured) << sc.name;
    AttackReport rep = run_attacks(w_.circuit, net, {sc});
    EXPECT_FALSE(rep.any_recovered()) << sc.name;
    EXPECT_FALSE(rep.soundness_bug()) << sc.name;
    ASSERT_EQ(rep.scenarios.size(), 1u);
    EXPECT_TRUE(rep.scenarios[0].cross.certified) << sc.name;
    EXPECT_EQ(rep.scenarios[0].cross.violating_pairs, 0u) << sc.name;
  }
}

TEST_F(BasicScbAttack, NonLeakageProbeFindsPlantedLeakAndPassesSecured) {
  const benchgen::RedTeamScenario& sc = w_.scenarios[0];
  ProbeStats stats;
  std::optional<std::string> leak = verify_no_leakage(
      w_.circuit, w_.doc.network, sc.spec, ProbeOptions{}, &stats);
  ASSERT_TRUE(leak.has_value());  // unsecured: the planted flow leaks
  EXPECT_GT(stats.probes, 0u);
  EXPECT_GT(stats.leaks, 0u);

  rsn::Rsn net = w_.doc.network;
  SecureFlowTool tool(w_.circuit, net, sc.spec, PipelineOptions{});
  ASSERT_TRUE(tool.run().secured);
  ProbeStats secured_stats;
  EXPECT_FALSE(verify_no_leakage(w_.circuit, net, sc.spec, ProbeOptions{},
                                 &secured_stats)
                   .has_value());
  EXPECT_GT(secured_stats.probes, 0u);
  EXPECT_EQ(secured_stats.leaks, 0u);
}

TEST_F(BasicScbAttack, VerifyPipelineRunsAttackProbe) {
  rsn::Rsn net = w_.doc.network;
  PipelineOptions opt;
  opt.verify = true;
  SecureFlowTool tool(w_.circuit, net, w_.scenarios[0].spec, opt);
  PipelineResult r = tool.run();  // a probe leak would throw logic_error
  EXPECT_TRUE(r.secured);
  EXPECT_TRUE(r.attack_checked);
  EXPECT_GT(r.attack_probes, 0u);
}

}  // namespace
}  // namespace rsnsec::attack
