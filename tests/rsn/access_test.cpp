#include "rsn/access.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "benchgen/circuit.hpp"
#include "benchgen/families.hpp"
#include "rsn/csu_sim.hpp"

namespace rsnsec::rsn {
namespace {

/// scan_in -> a -> {M1: bypass | b} -> c -> scan_out.
struct Net {
  Rsn net{"n"};
  ElemId a, b, c, m;
  Net() {
    a = net.add_register("a", 2, 0);
    b = net.add_register("b", 3, 1);
    c = net.add_register("c", 1, 2);
    m = net.add_mux("m", 2);
    net.connect(net.scan_in(), a, 0);
    net.connect(a, b, 0);
    net.connect(a, m, 0);
    net.connect(b, m, 1);
    net.connect(m, c, 0);
    net.connect(c, net.scan_out(), 0);
  }
};

TEST(AccessPlanner, PlansThroughMux) {
  Net f;
  AccessPlanner planner(f.net);
  auto plan = planner.plan(f.b);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->elements, (std::vector<ElemId>{f.net.scan_in(), f.a, f.b,
                                                 f.m, f.c, f.net.scan_out()}));
  EXPECT_EQ(plan->chain.size(), 6u);  // a(2) + b(3) + c(1)
  EXPECT_EQ(plan->position_of(f.b, 0), 2u);
  EXPECT_EQ(plan->position_of(f.b, 2), 4u);
  // The mux must select input 1 (through b).
  ASSERT_EQ(plan->settings.size(), 1u);
  EXPECT_EQ(plan->settings[0].mux, f.m);
  EXPECT_EQ(plan->settings[0].sel, 1u);
}

TEST(AccessPlanner, AppliedPlanActivatesTarget) {
  Net f;
  AccessPlanner planner(f.net);
  for (ElemId target : {f.a, f.b, f.c}) {
    auto plan = planner.plan(target);
    ASSERT_TRUE(plan.has_value());
    apply_plan(f.net, *plan);
    std::vector<ElemId> p = f.net.active_path();
    EXPECT_NE(std::find(p.begin(), p.end(), target), p.end())
        << f.net.elem(target).name;
    EXPECT_EQ(p, plan->elements);
  }
}

TEST(AccessPlanner, ShiftOffsetsMatchSimulation) {
  Net f;
  netlist::Netlist nl;
  netlist::NodeId src = nl.add_ff("src");
  nl.set_ff_input(src, src);
  f.net.set_capture(f.b, 1, src);  // b[1] captures src

  AccessPlanner planner(f.net);
  auto plan = planner.plan(f.b);
  ASSERT_TRUE(plan.has_value());
  apply_plan(f.net, *plan);

  // Read: capture, then shift until b[1] reaches scan-out, which takes
  // one shift per chain position from b[1] to the end of the chain.
  CsuSimulator sim(f.net, nl);
  sim.circuit().set_value(src, 0xAB);
  sim.capture();
  std::uint64_t out = 0;
  const std::size_t read_shifts =
      plan->chain.size() - plan->position_of(f.b, 1);
  for (std::size_t i = 0; i < read_shifts; ++i) out = sim.shift(0);
  EXPECT_EQ(out, 0xABu);

  // Write: insert a value at scan-in and shift it into b[0], one shift
  // per chain position up to and including b[0].
  CsuSimulator sim2(f.net, nl);
  sim2.shift(0x77);  // insert
  const std::size_t write_shifts = plan->position_of(f.b, 0) + 1;
  for (std::size_t i = 1; i < write_shifts; ++i) sim2.shift(0);
  EXPECT_EQ(sim2.scan_value(f.b, 0), 0x77u);
}

TEST(AccessPlanner, BypassedRegisterStillPlannable) {
  Net f;
  // Even with the mux currently bypassing b, planning must find it.
  f.net.set_mux_select(f.m, 0);
  AccessPlanner planner(f.net);
  EXPECT_TRUE(planner.plan(f.b).has_value());
}

TEST(AccessPlanner, RejectsNonRegisters) {
  Net f;
  AccessPlanner planner(f.net);
  EXPECT_FALSE(planner.plan(f.m).has_value());
  EXPECT_FALSE(planner.plan(f.net.scan_in()).has_value());
}

TEST(AccessPlanner, DetectsInaccessibleRegister) {
  Rsn net("n");
  ElemId a = net.add_register("a", 1, 0);
  ElemId orphan = net.add_register("orphan", 1, 0);
  net.connect(net.scan_in(), a, 0);
  net.connect(a, net.scan_out(), 0);
  net.connect(orphan, orphan, 0);  // self-loop island (invalid network)
  AccessPlanner planner(net);
  EXPECT_TRUE(planner.plan(a).has_value());
  EXPECT_FALSE(planner.plan(orphan).has_value());
}

/// Rsn::scan_access answers, for every register, exactly whether the
/// planner finds a plan.
void expect_sweep_matches_planner(const Rsn& net, const std::string& what) {
  const ScanAccess access = net.scan_access();
  AccessPlanner planner(net);
  for (ElemId r : net.registers())
    EXPECT_EQ(access.accessible(r), planner.plan(r).has_value())
        << what << ": register " << net.elem(r).name;
}

TEST(ScanAccess, MatchesPlannerOnEveryGeneratorFamily) {
  for (const benchgen::BenchmarkProfile& p : benchgen::bastion_profiles()) {
    Rng rng(5);
    rsn::RsnDocument doc = benchgen::generate_bastion(
        p, p.name == "FlexScan" ? 0.015 : 0.05, rng);
    const ScanAccess access = doc.network.scan_access();
    for (ElemId r : doc.network.registers())
      EXPECT_TRUE(access.accessible(r)) << p.name << " " << r;
    expect_sweep_matches_planner(doc.network, p.name);
  }
  rsn::RsnDocument mbist = benchgen::generate_mbist(2, 4, 4, 1.0);
  expect_sweep_matches_planner(mbist.network, "MBIST_2_4_4");
}

TEST(ScanAccess, MatchesPlannerOnBrokenNetworks) {
  // Orphan: reaches scan-out through a collector mux, but nothing feeds
  // it.
  Net orphan;
  ElemId o = orphan.net.add_register("orphan", 1, 0);
  orphan.net.attach_to_scan_out(o);
  EXPECT_FALSE(orphan.net.scan_access().from_scan_in[o]);
  EXPECT_TRUE(orphan.net.scan_access().to_scan_out[o]);
  expect_sweep_matches_planner(orphan.net, "orphan");

  // Dead end: fed from scan-in, but its output goes nowhere.
  Net dead;
  ElemId d = dead.net.add_register("dead_end", 2, 0);
  dead.net.connect(dead.net.scan_in(), d, 0);
  EXPECT_TRUE(dead.net.scan_access().from_scan_in[d]);
  EXPECT_FALSE(dead.net.scan_access().to_scan_out[d]);
  expect_sweep_matches_planner(dead.net, "dead end");

  // Cycles: c feeds back into a through a second mux, so a, b and c lie
  // on a cycle that scan-in enters and scan-out leaves; x and y form an
  // island cycle nothing enters or leaves.
  Net cyc;
  ElemId back = cyc.net.add_mux("back", 2);
  cyc.net.connect(cyc.net.scan_in(), back, 0);
  cyc.net.connect(cyc.c, back, 1);
  cyc.net.connect(back, cyc.a, 0);
  ElemId x = cyc.net.add_register("x", 1, 0);
  ElemId y = cyc.net.add_register("y", 1, 0);
  cyc.net.connect(x, y, 0);
  cyc.net.connect(y, x, 0);
  ASSERT_FALSE(cyc.net.is_acyclic());
  const ScanAccess access = cyc.net.scan_access();
  for (ElemId r : {cyc.a, cyc.b, cyc.c}) EXPECT_TRUE(access.accessible(r));
  EXPECT_FALSE(access.accessible(x));
  EXPECT_FALSE(access.accessible(y));
  expect_sweep_matches_planner(cyc.net, "cycle");
}

class GeneratedAccess : public ::testing::TestWithParam<std::string> {};

TEST_P(GeneratedAccess, EveryRegisterOfGeneratedNetworksIsAccessible) {
  Rng rng(5);
  benchgen::BenchmarkProfile p = benchgen::bastion_profile(GetParam());
  rsn::RsnDocument doc = benchgen::generate_bastion(p, 0.03, rng);
  const ScanAccess access = doc.network.scan_access();
  AccessPlanner planner(doc.network);
  // Every register is accessible, and every plan is internally consistent.
  for (ElemId r : doc.network.registers()) {
    EXPECT_TRUE(access.accessible(r)) << doc.network.elem(r).name;
    auto plan = planner.plan(r);
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->elements.front(), doc.network.scan_in());
    EXPECT_EQ(plan->elements.back(), doc.network.scan_out());
    const std::size_t width = doc.network.elem(r).ffs.size();
    EXPECT_NE(plan->position_of(r, 0), PathPlan::npos);
    EXPECT_EQ(plan->position_of(r, width - 1),
              plan->position_of(r, 0) + width - 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Bastion, GeneratedAccess,
                         ::testing::Values("BasicSCB", "TreeFlatEx",
                                           "p22810", "FlexScan"));

}  // namespace
}  // namespace rsnsec::rsn
