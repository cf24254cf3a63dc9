#include "rsn/rsn.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "benchgen/families.hpp"
#include "rsn/io.hpp"

namespace rsnsec::rsn {
namespace {

/// scan_in -> r1 -> mux(bypass: r1, through: r2) -> r3 -> scan_out,
/// with r2 fed from r1.
struct SmallNet {
  Rsn net{"small"};
  ElemId r1, r2, r3, mux;
  SmallNet() {
    r1 = net.add_register("r1", 2, 0);
    r2 = net.add_register("r2", 3, 1);
    r3 = net.add_register("r3", 1, 2);
    mux = net.add_mux("m", 2);
    net.connect(net.scan_in(), r1, 0);
    net.connect(r1, r2, 0);
    net.connect(r1, mux, 0);
    net.connect(r2, mux, 1);
    net.connect(mux, r3, 0);
    net.connect(r3, net.scan_out(), 0);
  }
};

TEST(Rsn, CountsAndAccessors) {
  SmallNet s;
  EXPECT_EQ(s.net.registers().size(), 3u);
  EXPECT_EQ(s.net.muxes().size(), 1u);
  EXPECT_EQ(s.net.num_scan_ffs(), 6u);
  EXPECT_EQ(s.net.elem(s.r1).ffs.size(), 2u);
  EXPECT_EQ(s.net.elem(s.r1).module, 0);
  EXPECT_EQ(s.net.elem(s.mux).inputs.size(), 2u);
}

TEST(Rsn, ValidatesWhenComplete) {
  SmallNet s;
  std::string err;
  EXPECT_TRUE(s.net.validate(&err)) << err;
}

TEST(Rsn, ValidateRejectsDanglingRegister) {
  Rsn net("n");
  ElemId r = net.add_register("r", 1, 0);
  net.connect(r, net.scan_out(), 0);
  std::string err;
  EXPECT_FALSE(net.validate(&err));
  EXPECT_NE(err.find("dangling"), std::string::npos);
}

TEST(Rsn, ValidateRejectsUnreachableRegister) {
  Rsn net("n");
  ElemId a = net.add_register("a", 1, 0);
  ElemId b = net.add_register("b", 1, 0);
  net.connect(net.scan_in(), a, 0);
  net.connect(a, net.scan_out(), 0);
  // b drives nothing and reaches nothing, but has a driver.
  net.connect(net.scan_in(), b, 0);
  std::string err;
  EXPECT_FALSE(net.validate(&err));
  EXPECT_NE(err.find("scan-out"), std::string::npos);
}

TEST(Rsn, AcyclicDetectsCycle) {
  Rsn net("n");
  ElemId a = net.add_register("a", 1, 0);
  ElemId b = net.add_register("b", 1, 0);
  net.connect(a, b, 0);
  net.connect(b, a, 0);
  EXPECT_FALSE(net.is_acyclic());
}

TEST(Rsn, ValidateReportsACycleBeforeAnythingElse) {
  // Cycle-freedom is checked first, so a cycle is the whole message.
  SmallNet s;
  s.net.connect(s.r3, s.r2, 0);  // r2 <- r3 <- m <- r2
  EXPECT_FALSE(s.net.is_acyclic());
  std::string err;
  EXPECT_FALSE(s.net.validate(&err));
  EXPECT_EQ(err, "scan network contains a cycle");
}

TEST(Rsn, ActivePathFollowsMuxSelect) {
  SmallNet s;
  s.net.set_mux_select(s.mux, 0);  // bypass r2
  std::vector<ElemId> p = s.net.active_path();
  ASSERT_FALSE(p.empty());
  EXPECT_EQ(p.front(), s.net.scan_in());
  EXPECT_EQ(p.back(), s.net.scan_out());
  EXPECT_EQ(std::count(p.begin(), p.end(), s.r2), 0);
  EXPECT_EQ(std::count(p.begin(), p.end(), s.r1), 1);

  s.net.set_mux_select(s.mux, 1);  // through r2
  p = s.net.active_path();
  EXPECT_EQ(std::count(p.begin(), p.end(), s.r2), 1);
}

TEST(Rsn, ActivePathEmptyWhenBroken) {
  Rsn net("n");
  ElemId r = net.add_register("r", 1, 0);
  net.connect(r, net.scan_out(), 0);
  // r's input dangles: no complete path.
  EXPECT_TRUE(net.active_path().empty());
}

TEST(Rsn, ReachabilityQueries) {
  SmallNet s;
  EXPECT_TRUE(s.net.reaches(s.r1, s.r3));
  EXPECT_TRUE(s.net.reaches(s.r2, s.r3));
  EXPECT_FALSE(s.net.reaches(s.r3, s.r1));
  EXPECT_FALSE(s.net.reaches(s.r2, s.r1));
  EXPECT_TRUE(s.net.reaches(s.net.scan_in(), s.net.scan_out()));
  for (ElemId x : {s.net.scan_in(), s.r1, s.mux, s.net.scan_out()})
    EXPECT_FALSE(s.net.reaches(x, x));

  // Depth-first over fanouts listed by consumer id, then port.
  auto from_r1 = s.net.reachable_from(s.r1);
  EXPECT_EQ(from_r1,
            (std::vector<ElemId>{s.r2, s.mux, s.r3, s.net.scan_out()}));
  auto to_r3 = s.net.reaching(s.r3);
  EXPECT_NE(std::find(to_r3.begin(), to_r3.end(), s.net.scan_in()),
            to_r3.end());
}

TEST(Rsn, FanoutsEnumerateConsumers) {
  SmallNet s;
  auto fo = s.net.fanouts(s.r1);
  // r1 feeds r2 (port 0) and mux (port 0).
  EXPECT_EQ(fo.size(), 2u);
}

TEST(Rsn, DisconnectAndRemoveMuxInput) {
  SmallNet s;
  s.net.remove_mux_input(s.mux, 1);
  EXPECT_EQ(s.net.elem(s.mux).inputs.size(), 1u);
  // r2 now has no fanout but is still connected upstream.
  EXPECT_TRUE(s.net.fanouts(s.r2).empty());
  // Select was clamped.
  EXPECT_LT(s.net.elem(s.mux).sel, 1u);
}

TEST(Rsn, AttachToScanOutInsertsCollector) {
  SmallNet s;
  // scan_out is already driven by r3: attaching r2 inserts a 2:1 mux.
  ElemId m = s.net.attach_to_scan_out(s.r2);
  EXPECT_NE(m, no_elem);
  const Element& so = s.net.elem(s.net.scan_out());
  EXPECT_EQ(so.inputs[0], m);
  EXPECT_TRUE(s.net.is_acyclic());
  // A second attachment reuses the collector instead of nesting muxes.
  ElemId r4 = s.net.add_register("r4", 1, 0);
  s.net.connect(s.net.scan_in(), r4, 0);
  ElemId m2 = s.net.attach_to_scan_out(r4);
  EXPECT_EQ(m2, no_elem);
  EXPECT_EQ(s.net.elem(m).inputs.size(), 3u);
  std::string err;
  EXPECT_TRUE(s.net.validate(&err)) << err;
}

TEST(Rsn, AttachToScanOutDirectWhenDangling) {
  Rsn net("n");
  ElemId r = net.add_register("r", 1, 0);
  net.connect(net.scan_in(), r, 0);
  EXPECT_EQ(net.attach_to_scan_out(r), no_elem);
  EXPECT_EQ(net.elem(net.scan_out()).inputs[0], r);
}

TEST(Rsn, GuardsInvalidOperations) {
  SmallNet s;
  EXPECT_THROW(s.net.connect(s.r1, s.net.scan_in(), 0),
               std::invalid_argument);
  EXPECT_THROW(s.net.connect(s.r1, s.mux, 7), std::out_of_range);
  EXPECT_THROW(s.net.set_mux_select(s.mux, 9), std::out_of_range);
  EXPECT_THROW(s.net.add_mux("bad", 1), std::invalid_argument);
  EXPECT_THROW(s.net.add_register("bad", 0, 0), std::invalid_argument);
}

TEST(Rsn, CopySemanticsSnapshotTopology) {
  SmallNet s;
  Rsn copy = s.net;
  copy.disconnect(s.r3, 0);
  EXPECT_EQ(s.net.elem(s.r3).inputs[0], s.mux);  // original untouched
  EXPECT_EQ(copy.elem(s.r3).inputs[0], no_elem);
}

std::string rsn_text(const Rsn& net) {
  std::ostringstream os;
  write_rsn(os, net);
  return os.str();
}

TEST(Rsn, RestoreRollsBackStructuralEdits) {
  Rng rng(7);
  RsnDocument doc = benchgen::generate_bastion(
      benchgen::bastion_profile("TreeFlat"), 0.05, rng);
  Rsn& base = doc.network;
  const std::string text = rsn_text(base);
  ASSERT_FALSE(base.muxes().empty());
  ASSERT_GE(base.registers().size(), 2u);
  const ElemId mux = base.muxes().front();
  const ElemId a = base.registers().front();
  const ElemId b = base.registers().back();

  Rsn trial = base;
  // The second round edits a copy whose capacities are already warm.
  for (int round = 0; round < 2; ++round) {
    ElemId m = trial.add_mux("trial_mux", 2);
    trial.connect(a, m, 0);
    trial.connect(b, m, 1);
    trial.disconnect(a, 0);
    trial.connect(trial.scan_in(), a, 0);
    trial.add_mux_input(mux, a);
    trial.remove_mux_input(mux, 0);
    // A register driving scan-out makes attach_to_scan_out insert a
    // collector mux.
    trial.connect(b, trial.scan_out(), 0);
    ASSERT_NE(trial.attach_to_scan_out(a), no_elem);

    trial.restore(base);
    EXPECT_EQ(rsn_text(trial), text) << "round " << round;
    EXPECT_EQ(trial.muxes(), base.muxes());
    EXPECT_EQ(trial.num_elements(), base.num_elements());
    for (ElemId x : base.muxes())
      EXPECT_EQ(trial.mux_select(x), base.mux_select(x));
  }

  // The auto-mux counter is restored too: the next collector mux gets the
  // same name on the rolled-back copy as on the base.
  std::string names[2];
  Rsn* nets[2] = {&trial, &base};
  for (int i = 0; i < 2; ++i) {
    nets[i]->connect(b, nets[i]->scan_out(), 0);
    ElemId m = nets[i]->attach_to_scan_out(a);
    ASSERT_NE(m, no_elem);
    names[i] = nets[i]->elem(m).name;
  }
  EXPECT_EQ(names[0], names[1]);
}

TEST(Rsn, CopyAssignmentResyncsAWorkingCopy) {
  // A working copy that trials edited and restored is re-synced to a base
  // that a commit changed and grew, by copy-assignment in place; assigning
  // the smaller original back truncates it again.
  Rng rng(11);
  RsnDocument doc = benchgen::generate_bastion(
      benchgen::bastion_profile("TreeFlat"), 0.05, rng);
  const Rsn original = doc.network;
  Rsn& base = doc.network;
  Rsn work = base;
  const ElemId a = base.registers().front();
  const ElemId b = base.registers().back();
  ElemId m = work.add_mux("trial_mux", 2);
  work.connect(a, m, 0);
  work.restore(base);

  for (int commit = 0; commit < 3; ++commit) {
    m = base.add_mux("commit_mux_" + std::to_string(commit), 2);
    base.connect(a, m, 0);
    base.connect(b, m, 1);
    base.add_mux_input(base.muxes().front(), b);
    work.disconnect(b, 0);  // a trial edit the re-sync must overwrite
    work = base;
    EXPECT_EQ(rsn_text(work), rsn_text(base)) << "commit " << commit;
    EXPECT_EQ(work.muxes(), base.muxes());
    EXPECT_EQ(work.registers(), base.registers());
    EXPECT_EQ(work.elem(m).name, base.elem(m).name);
    ASSERT_NE(work.edited(), nullptr);
    EXPECT_TRUE(work.edited()->empty());
  }
  work = original;
  EXPECT_EQ(rsn_text(work), rsn_text(original));
  EXPECT_EQ(work.num_elements(), original.num_elements());
  EXPECT_EQ(work.muxes(), original.muxes());
  const Rsn& same = work;
  work = same;  // self-assignment keeps the network
  EXPECT_EQ(rsn_text(work), rsn_text(original));
}

TEST(Rsn, EditRecordListsChangedInputLists) {
  SmallNet s;
  Rsn copy = s.net;
  ASSERT_NE(copy.edited(), nullptr);
  EXPECT_TRUE(copy.edited()->empty());  // a copy starts with an empty record
  copy.disconnect(s.r3, 0);
  copy.connect(s.r2, s.r3, 0);
  copy.add_mux_input(s.mux, s.net.scan_in());
  copy.remove_mux_input(s.mux, 0);
  ASSERT_NE(copy.edited(), nullptr);
  EXPECT_EQ(*copy.edited(), (std::vector<ElemId>{s.r3, s.mux}));
  // attach_to_scan_out records through the edits it makes: the new
  // collector mux is past the base's ids, scan-out is listed.
  ElemId m = copy.attach_to_scan_out(s.r1);
  ASSERT_NE(m, no_elem);
  EXPECT_EQ(*copy.edited(),
            (std::vector<ElemId>{s.r3, s.mux, m, copy.scan_out()}));

  // The record never travels with a copy, by construction or assignment.
  Rsn second = copy;
  ASSERT_NE(second.edited(), nullptr);
  EXPECT_TRUE(second.edited()->empty());
  second.disconnect(s.r2, 0);
  second = copy;
  EXPECT_TRUE(second.edited()->empty());

  // Past the bound the record reads "everything changed"; restore clears
  // it.
  Rsn wide = s.net;
  for (std::size_t i = 0; i <= Rsn::edit_record_bound; ++i) {
    ElemId mux = wide.add_mux("wide_mux", 2);
    wide.connect(s.r1, mux, 0);
  }
  EXPECT_EQ(wide.edited(), nullptr);
  wide.restore(s.net);
  ASSERT_NE(wide.edited(), nullptr);
  EXPECT_TRUE(wide.edited()->empty());
  EXPECT_EQ(rsn_text(wide), rsn_text(s.net));
}

/// One random structural edit of `net` — connect, disconnect,
/// add_mux_input, remove_mux_input, add_mux or attach_to_scan_out — on
/// random elements and ports. restore() must undo any mix of them, cycles
/// and dangling ports included.
void random_structural_edit(Rsn& net, Rng& rng) {
  const auto n = static_cast<std::uint32_t>(net.num_elements());
  const ElemId from = rng.below(n);
  const ElemId to = rng.below(n);
  const Element& t = net.elem(to);
  switch (rng.below(6)) {
    case 0:
      if (!t.inputs.empty())
        net.connect(from, to,
                    rng.below(static_cast<std::uint32_t>(t.inputs.size())));
      break;
    case 1:
      if (!t.inputs.empty())
        net.disconnect(
            to, rng.below(static_cast<std::uint32_t>(t.inputs.size())));
      break;
    case 2:
      if (t.kind == ElemKind::Mux) net.add_mux_input(to, from);
      break;
    case 3:
      if (t.kind == ElemKind::Mux && t.inputs.size() > 1)
        net.remove_mux_input(
            to, rng.below(static_cast<std::uint32_t>(t.inputs.size())));
      break;
    case 4: {
      ElemId m = net.add_mux("edit_mux", 2 + rng.below(2));
      net.connect(from, m, 0);
      break;
    }
    default:
      if (from != net.scan_out()) net.attach_to_scan_out(from);
      break;
  }
}

TEST(Rsn, RestoreUndoesRandomEditSequences) {
  std::size_t overflowed = 0, listed = 0;
  for (const benchgen::BenchmarkProfile& p : benchgen::bastion_profiles()) {
    Rng rng(p.registers * 17 + 3);
    RsnDocument doc = benchgen::generate_bastion(p, 0.05, rng);
    ASSERT_GE(doc.network.registers().size(), 2u) << p.name;
    // A second base that is itself an edited copy (non-empty record, some
    // selects on a mux's last input, which remove_mux_input clamps): a
    // copy of it must restore to it, not to the generated network.
    Rsn edited = doc.network;
    for (int i = 0; i < 5; ++i) random_structural_edit(edited, rng);
    for (ElemId m : edited.muxes())
      if (rng.chance(0.5))
        edited.set_mux_select(m, edited.elem(m).inputs.size() - 1);
    for (const Rsn* base : {&doc.network, &edited}) {
      const std::string text = rsn_text(*base);
      Rsn trial = *base;
      for (int round = 0; round < 8; ++round) {
        // Even rounds stay within the record; odd ones run past its
        // bound.
        const std::size_t len =
            round % 2 == 0 ? 1 + rng.below(8)
                           : 2 * Rsn::edit_record_bound + rng.below(64);
        for (std::size_t i = 0; i < len; ++i)
          random_structural_edit(trial, rng);
        ++(trial.edited() == nullptr ? overflowed : listed);
        trial.restore(*base);
        const std::string what = p.name + " round " + std::to_string(round);
        ASSERT_EQ(rsn_text(trial), text) << what;
        EXPECT_EQ(trial.num_elements(), base->num_elements()) << what;
        EXPECT_EQ(trial.muxes(), base->muxes()) << what;
        for (ElemId m : base->muxes())
          EXPECT_EQ(trial.mux_select(m), base->mux_select(m)) << what;
        ASSERT_NE(trial.edited(), nullptr) << what;
        EXPECT_TRUE(trial.edited()->empty()) << what;
        // The auto-mux counter: the next collector mux gets the same
        // name on the rolled-back copy as on the base.
        Rsn a = trial, b = *base;
        const ElemId r0 = base->registers().front();
        const ElemId r1 = base->registers().back();
        std::string names[2];
        Rsn* nets[2] = {&a, &b};
        for (int i = 0; i < 2; ++i) {
          nets[i]->connect(r1, nets[i]->scan_out(), 0);
          ElemId m = nets[i]->attach_to_scan_out(r0);
          ASSERT_NE(m, no_elem) << what;
          names[i] = nets[i]->elem(m).name;
        }
        EXPECT_EQ(names[0], names[1]) << what;
      }
    }
  }
  EXPECT_GT(overflowed, 0u);
  EXPECT_GT(listed, 0u);
}

/// Connects `a` into a new input of `b` the way the repairs do: a new
/// port on a mux, else a fresh 2:1 mux in front of `b`'s only port.
void connect_into_new_input(Rsn& net, ElemId a, ElemId b) {
  if (net.elem(b).kind == ElemKind::Mux) {
    net.add_mux_input(b, a);
    return;
  }
  ElemId old_driver = net.elem(b).inputs[0];
  ElemId m = net.add_mux("probe_mux", 2);
  if (old_driver != no_elem) net.connect(old_driver, m, 0);
  net.connect(a, m, 1);
  net.connect(m, b, 0);
}

TEST(Rsn, ReachesPredictsCycleOnEveryFamily) {
  // Adding a -> b to an acyclic network closes a cycle exactly when
  // a == b or b already reaches a.
  std::size_t closing = 0, open = 0;
  for (const benchgen::BenchmarkProfile& p : benchgen::bastion_profiles()) {
    Rng rng(p.registers * 31 + 5);
    RsnDocument doc = benchgen::generate_bastion(p, 0.05, rng);
    const Rsn& net = doc.network;
    ASSERT_TRUE(net.is_acyclic()) << p.name;
    const auto n = static_cast<std::uint32_t>(net.num_elements());
    for (int i = 0; i < 200; ++i) {
      ElemId b = rng.below(n);
      if (b == net.scan_in()) continue;  // has no input to add
      ElemId a = rng.below(n);
      // Every other pair takes `a` downstream of `b`, a cycle-closing
      // pair.
      if (i % 2 == 0) {
        std::vector<ElemId> down = net.reachable_from(b);
        if (!down.empty())
          a = down[rng.below(static_cast<std::uint32_t>(down.size()))];
      }
      const bool predicted = a == b || net.reaches(b, a);
      Rsn trial = net;
      connect_into_new_input(trial, a, b);
      EXPECT_EQ(predicted, !trial.is_acyclic())
          << p.name << ": " << net.elem(a).name << " -> "
          << net.elem(b).name;
      ++(predicted ? closing : open);
    }
  }
  EXPECT_GT(closing, 0u);
  EXPECT_GT(open, 0u);
}

}  // namespace
}  // namespace rsnsec::rsn
