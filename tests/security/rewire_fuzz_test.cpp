// Randomized robustness tests of the rewiring machinery: on generated
// networks of every BASTION family and one MBIST configuration, cutting
// any connection (with either reconnection policy, or a hint that would
// close a cycle) and isolating any register must always leave a valid,
// cycle-free network that contains every register — the paper's
// structural invariants (Sec. III-D). Every cut and isolation must also
// match the probe-based oracle repair (tests/oracle/rewire_oracle)
// element for element, on a fresh copy and on the resolver's trial path
// (one working copy cut against a committed view and rolled back).

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "benchgen/families.hpp"
#include "oracle/rewire_oracle.hpp"
#include "rsn/access.hpp"
#include "rsn/io.hpp"
#include "security/rewire.hpp"

namespace rsnsec::security {
namespace {

/// The sweep's network: a BASTION family at scale 0.05, or MBIST_2_4_4.
rsn::RsnDocument generate(const std::string& bench, Rng& rng) {
  if (bench == "MBIST_2_4_4") return benchgen::generate_mbist(2, 4, 4, 0.05);
  return benchgen::generate_bastion(benchgen::bastion_profile(bench), 0.05,
                                    rng);
}

std::string rsn_text(const rsn::Rsn& net) {
  std::ostringstream os;
  rsn::write_rsn(os, net);
  return os.str();
}

/// `got` (`got_ops` operations) must equal the oracle's repair `ref`: same
/// .rsn text, same element count and names, same operation count.
void expect_same_as_oracle(const rsn::Rsn& got, int got_ops,
                           const rsn::Rsn& ref, int ref_ops,
                           const std::string& what) {
  EXPECT_EQ(got_ops, ref_ops) << what;
  ASSERT_EQ(got.num_elements(), ref.num_elements()) << what;
  for (rsn::ElemId id = 0; id < got.num_elements(); ++id)
    ASSERT_EQ(got.elem(id).name, ref.elem(id).name) << what;
  EXPECT_EQ(rsn_text(got), rsn_text(ref)) << what;
}

class RewireFuzz
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(RewireFuzz, AnySingleCutKeepsInvariants) {
  auto [bench, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 37 + 11);
  rsn::RsnDocument doc = generate(bench, rng);
  const rsn::Rsn& base = doc.network;
  std::size_t n_regs = base.registers().size();

  for (const Connection& c : Rewirer::all_connections(base)) {
    // The resolver's two hints, plus one downstream of the cut: that
    // driver would close a cycle, so the repair must reject it and fall
    // back to its default choice.
    std::vector<rsn::ElemId> hints{rsn::no_elem, base.scan_in()};
    for (rsn::ElemId d : base.reachable_from(c.to)) {
      if (d != base.scan_out()) {
        hints.push_back(d);
        break;
      }
    }
    for (rsn::ElemId hint : hints) {
      const std::string what = "cut " + base.elem(c.from).name + " -> " +
                               base.elem(c.to).name + " hint " +
                               std::to_string(hint);
      rsn::Rsn net = base;
      int ops = Rewirer::cut_connection(net, c, hint);
      rsn::Rsn ref = base;
      int ref_ops = oracle::cut_connection(ref, c, hint);
      expect_same_as_oracle(net, ops, ref, ref_ops, what);

      // Cutting a connection from the scan-in port may legitimately
      // repair back to scan-in (it is the reconnection fallback), and
      // scan-in carries no tokens anyway — the resolver never selects
      // such cuts.
      if (c.from == base.scan_in()) continue;
      auto direct_connections = [&](const rsn::Rsn& n) {
        std::size_t count = 0;
        for (rsn::ElemId in : n.elem(c.to).inputs) count += (in == c.from);
        return count;
      };
      std::size_t before = direct_connections(base);
      std::string err;
      ASSERT_TRUE(net.validate(&err))
          << err << " after cutting " << net.elem(c.from).name << " -> "
          << net.elem(c.to).name;
      EXPECT_EQ(net.registers().size(), n_regs);
      // The direct connection is gone (reachability over *other* routes,
      // e.g. around a bypass mux, may legitimately remain; the resolution
      // loop's trial scoring handles those).
      EXPECT_LT(direct_connections(net), before);
    }
  }
}

TEST_P(RewireFuzz, TrialPathMatchesOracle) {
  // The resolver's trial path: one working copy of the committed network,
  // cut against the committed view (lazy pre-cut walks, rank-proved cycle
  // checks) and rolled back with Rsn::restore after every cut.
  auto [bench, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 53 + 29);
  rsn::RsnDocument doc = generate(bench, rng);
  const rsn::Rsn& base = doc.network;
  const rsn::CommittedView view(base);
  ASSERT_TRUE(view.ranked());
  const auto n = static_cast<std::uint32_t>(base.num_elements());
  rsn::Rsn trial = base;
  Rewirer::Scratch scratch;
  for (const Connection& c : Rewirer::all_connections(base)) {
    // The resolver's two hints, then random elements (any of which may
    // close a cycle, and must then walk to find out).
    std::vector<rsn::ElemId> hints{rsn::no_elem, base.scan_in(),
                                   rng.below(n), rng.below(n)};
    for (std::size_t h = 0; h < hints.size(); ++h) {
      const std::string what = "cut " + base.elem(c.from).name + " -> " +
                               base.elem(c.to).name + " hint " +
                               std::to_string(hints[h]);
      scratch.cycle_walks = 0;
      int ops = Rewirer::cut_connection(trial, view, c, hints[h], scratch);
      rsn::Rsn ref = base;
      int ref_ops = oracle::cut_connection(ref, c, hints[h]);
      expect_same_as_oracle(trial, ops, ref, ref_ops, what);
      // With the resolver's hints every cycle check is decided by rank.
      if (h < 2) EXPECT_EQ(scratch.cycle_walks, 0u) << what;
      trial.restore(base);
    }
  }
  EXPECT_EQ(rsn_text(trial), rsn_text(base));
}

TEST_P(RewireFuzz, AnyIsolationKeepsInvariants) {
  auto [bench, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 91 + 3);
  rsn::RsnDocument doc = generate(bench, rng);
  const rsn::Rsn& base = doc.network;

  for (rsn::ElemId r : base.registers()) {
    rsn::Rsn net = base;
    int ops = Rewirer::isolate_register_output(net, r);
    rsn::Rsn ref = base;
    int ref_ops = oracle::isolate_register_output(ref, r);
    expect_same_as_oracle(net, ops, ref, ref_ops,
                          "isolate " + base.elem(r).name);
    std::string err;
    ASSERT_TRUE(net.validate(&err))
        << err << " after isolating " << net.elem(r).name;
    // The isolated register reaches no other register anymore.
    for (rsn::ElemId other : net.reachable_from(r)) {
      EXPECT_NE(net.elem(other).kind, rsn::ElemKind::Register)
          << net.elem(r).name << " still reaches " << net.elem(other).name;
    }
    // But it is still accessible for test/debug.
    rsn::AccessPlanner planner(net);
    EXPECT_TRUE(planner.plan(r).has_value());
  }
}

TEST_P(RewireFuzz, RandomCutSequencesConverge) {
  auto [bench, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 13 + 7);
  rsn::RsnDocument doc = generate(bench, rng);
  rsn::Rsn net = doc.network;
  std::size_t n_regs = net.registers().size();

  for (int step = 0; step < 12; ++step) {
    auto conns = Rewirer::all_connections(net);
    // Avoid repeatedly cutting trivial scan-in connections.
    std::vector<Connection> interesting;
    for (const Connection& c : conns)
      if (c.from != net.scan_in()) interesting.push_back(c);
    if (interesting.empty()) break;
    Connection c = interesting[rng.below(
        static_cast<std::uint32_t>(interesting.size()))];
    rsn::ElemId hint = rng.chance(0.5) ? net.scan_in() : rsn::no_elem;
    // Later steps cut networks that earlier repairs already rewired.
    rsn::Rsn ref = net;
    int ref_ops = oracle::cut_connection(ref, c, hint);
    int ops = Rewirer::cut_connection(net, c, hint);
    expect_same_as_oracle(net, ops, ref, ref_ops,
                          "step " + std::to_string(step));
    std::string err;
    ASSERT_TRUE(net.validate(&err)) << err << " at step " << step;
    ASSERT_EQ(net.registers().size(), n_regs);
    // The linear sweep and per-register planning agree on every register.
    const rsn::ScanAccess access = net.scan_access();
    rsn::AccessPlanner planner(net);
    for (rsn::ElemId r : net.registers())
      EXPECT_EQ(access.accessible(r), planner.plan(r).has_value())
          << net.elem(r).name << " at step " << step;
  }
  const rsn::ScanAccess access = net.scan_access();
  for (rsn::ElemId r : net.registers())
    EXPECT_TRUE(access.accessible(r)) << net.elem(r).name;
}

INSTANTIATE_TEST_SUITE_P(
    Networks, RewireFuzz,
    ::testing::Combine(
        ::testing::Values("BasicSCB", "TreeFlatEx", "p34392",
                          "TreeUnbalanced", "Mingle", "TreeFlat",
                          "TreeBalanced", "q12710", "t512505", "p22810",
                          "a586710", "p93791", "FlexScan", "MBIST_2_4_4"),
        ::testing::Range(0, 3)));

}  // namespace
}  // namespace rsnsec::security
