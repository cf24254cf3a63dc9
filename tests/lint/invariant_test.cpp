// Post-transformation invariant checker (INV001-INV004), plus the
// acceptance property: the full pipeline with verify enabled
// passes the post-rewire invariant pass on all 13 BASTION families.

#include "lint/invariant.hpp"

#include <gtest/gtest.h>

#include "benchgen/circuit.hpp"
#include "benchgen/families.hpp"
#include "benchgen/specgen.hpp"
#include "core/tool.hpp"

namespace rsnsec::lint {
namespace {

std::size_t count_code(const std::vector<Diagnostic>& diags,
                       const std::string& code) {
  std::size_t n = 0;
  for (const Diagnostic& d : diags) n += d.code == code;
  return n;
}

rsn::Rsn small_network() {
  rsn::Rsn net("inv");
  rsn::ElemId a = net.add_register("a", 2);
  rsn::ElemId b = net.add_register("b", 1);
  net.connect(net.scan_in(), a, 0);
  net.connect(a, b, 0);
  net.connect(b, net.scan_out(), 0);
  return net;
}

TEST(InvariantChecker, SoundNetworkIsClean) {
  rsn::Rsn net = small_network();
  InvariantChecker checker(net);
  EXPECT_TRUE(checker.check(net).empty());
  EXPECT_NO_THROW(checker.require(net, "a no-op"));
}

TEST(InvariantChecker, Inv001CycleSuppressesDerivedChecks) {
  rsn::Rsn net = small_network();
  InvariantChecker checker(net);
  rsn::ElemId a = net.registers()[0];
  rsn::ElemId b = net.registers()[1];
  net.disconnect(a, 0);
  net.connect(b, a, 0);  // a <- b <- a
  std::vector<Diagnostic> diags = checker.check(net);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].code, "INV001");
}

TEST(InvariantChecker, Inv002LostRegister) {
  rsn::Rsn before = small_network();
  InvariantChecker checker(before);
  rsn::Rsn after("inv");  // register 'b' never re-created
  rsn::ElemId a = after.add_register("a", 2);
  after.connect(after.scan_in(), a, 0);
  after.connect(a, after.scan_out(), 0);
  std::vector<Diagnostic> diags = checker.check(after);
  EXPECT_EQ(count_code(diags, "INV002"), 1u);
  EXPECT_NE(diags[0].location.find("register 'b'"), std::string::npos);
}

TEST(InvariantChecker, Inv003InaccessibleRegister) {
  rsn::Rsn net = small_network();
  InvariantChecker checker(net);
  rsn::ElemId b = net.registers()[1];
  net.disconnect(net.scan_out(), 0);
  net.connect(net.registers()[0], net.scan_out(), 0);
  net.disconnect(b, 0);
  net.connect(net.scan_in(), b, 0);  // b now dead-ends before scan-out
  std::vector<Diagnostic> diags = checker.check(net);
  EXPECT_EQ(count_code(diags, "INV003"), 1u);
}

TEST(InvariantChecker, RequireThrowsWithContext) {
  rsn::Rsn before = small_network();
  InvariantChecker checker(before);
  rsn::Rsn after("inv");
  try {
    checker.require(after, "'test step'");
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("after 'test step'"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("INV002"), std::string::npos);
  }
}

/// Acceptance: the pipeline with verify enabled runs the
/// post-rewire invariant pass after every applied change on every BASTION
/// family without tripping it, and produces the same result as a plain
/// run.
class VerifiedPipeline : public ::testing::TestWithParam<std::string> {};

TEST_P(VerifiedPipeline, AllChangesPreserveInvariants) {
  const std::string bench = GetParam();
  double scale = (bench == "FlexScan") ? 0.015 : 0.05;
  Rng rng(17);
  rsn::RsnDocument doc =
      benchgen::generate_bastion(benchgen::bastion_profile(bench), scale,
                                 rng);
  netlist::Netlist circuit = benchgen::attach_random_circuit(doc, {}, rng);
  benchgen::SpecOptions sopt;
  sopt.restrict_prob = 0.4;
  security::SecuritySpec spec =
      benchgen::random_spec(doc.module_names.size(), sopt, rng);

  PipelineOptions opt;
  opt.verify = true;
  SecureFlowTool tool(circuit, doc.network, spec, opt);
  PipelineResult result;
  ASSERT_NO_THROW(result = tool.run());
  if (result.static_report.clean()) {
    EXPECT_TRUE(result.secured);
  }

  // And the final network independently satisfies the checker.
  InvariantChecker final_check(doc.network);
  EXPECT_TRUE(final_check.check(doc.network).empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, VerifiedPipeline,
    ::testing::Values("BasicSCB", "Mingle", "TreeFlat", "TreeFlatEx",
                      "TreeBalanced", "TreeUnbalanced", "q12710", "t512505",
                      "p22810", "a586710", "p34392", "p93791", "FlexScan"));

}  // namespace
}  // namespace rsnsec::lint
