// One fixture per lint diagnostic code (triggering) plus clean fixtures
// (zero diagnostics), driving the passes over in-memory models.

#include "lint/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "lint/passes.hpp"

namespace rsnsec::lint {
namespace {

std::size_t count_code(const std::vector<Diagnostic>& diags,
                       const std::string& code) {
  return static_cast<std::size_t>(
      std::count_if(diags.begin(), diags.end(),
                    [&](const Diagnostic& d) { return d.code == code; }));
}

std::vector<Diagnostic> run_default(const LintInput& in) {
  return Registry::with_default_passes().run(in);
}

/// The diagnostics of `code`, one "location: message (hint: ...)" line
/// each, in report order: the exact text a user sees.
std::string render_code(const std::vector<Diagnostic>& diags,
                        const std::string& code) {
  std::string out;
  for (const Diagnostic& d : diags)
    if (d.code == code)
      out += d.location + ": " + d.message + " (hint: " + d.fix_hint + ")\n";
  return out;
}

// ---------------------------------------------------------------- netlist

netlist::Netlist clean_circuit() {
  netlist::Netlist nl;
  netlist::NodeId a = nl.add_input("a");
  netlist::NodeId b = nl.add_input("b");
  netlist::NodeId g = nl.add_gate(netlist::GateType::And, {a, b}, "g");
  nl.add_ff("q", netlist::no_module, g);
  return nl;
}

TEST(NetlistPasses, CleanCircuitHasNoDiagnostics) {
  netlist::Netlist nl = clean_circuit();
  LintInput in;
  in.circuit = &nl;
  EXPECT_TRUE(run_default(in).empty());
}

TEST(NetlistPasses, Net001MultiDriverNet) {
  netlist::Netlist nl;
  netlist::NodeId a = nl.add_input("a");
  nl.add_gate(netlist::GateType::Not, {a}, "w");
  netlist::NodeId w2 = nl.add_gate(netlist::GateType::Buf, {a}, "w");
  nl.add_ff("q", netlist::no_module, w2);
  LintInput in;
  in.circuit = &nl;
  std::vector<Diagnostic> diags = run_default(in);
  EXPECT_EQ(count_code(diags, "NET001"), 1u);
  EXPECT_EQ(diags[0].severity, Severity::Error);
}

TEST(NetlistPasses, Net003DanglingFlipFlopInput) {
  netlist::Netlist nl = clean_circuit();
  nl.add_ff("floating");  // no data input
  LintInput in;
  in.circuit = &nl;
  EXPECT_EQ(count_code(run_default(in), "NET003"), 1u);
}

TEST(NetlistPasses, Net003NaryGateWithOneFanin) {
  // The reader accepts `and (o, a)`; lint flags it.
  netlist::Netlist nl;
  netlist::NodeId a = nl.add_input("a");
  netlist::NodeId g = nl.add_gate(netlist::GateType::And, {a}, "g");
  nl.add_ff("q", netlist::no_module, g);
  LintInput in;
  in.circuit = &nl;
  in.circuit_source = "thin.v";
  EXPECT_EQ(render_code(run_default(in), "NET003"),
            "thin.v: AND node 1 ('g'): wrong fanin count (1) for AND "
            "(hint: )\n");
}

TEST(NetlistPasses, Net004DeadLogicWarnsUnlessRooted) {
  netlist::Netlist nl = clean_circuit();
  netlist::NodeId dead =
      nl.add_gate(netlist::GateType::Or, {nl.inputs()[0], nl.inputs()[1]},
                  "dead");
  LintInput in;
  in.circuit = &nl;
  std::vector<Diagnostic> diags = run_default(in);
  ASSERT_EQ(count_code(diags, "NET004"), 1u);
  EXPECT_EQ(diags[0].severity, Severity::Warning);

  // A declared output or a capture-source root keeps the gate alive.
  in.circuit_outputs = {dead};
  EXPECT_TRUE(run_default(in).empty());
  in.circuit_outputs.clear();
  in.circuit_roots = {dead};
  EXPECT_TRUE(run_default(in).empty());
}

// -------------------------------------------------------------------- rsn

rsn::Rsn clean_network() {
  rsn::Rsn net("clean");
  rsn::ElemId a = net.add_register("a", 2);
  rsn::ElemId b = net.add_register("b", 3);
  rsn::ElemId m = net.add_mux("m", 2);
  net.connect(net.scan_in(), a, 0);
  net.connect(net.scan_in(), m, 0);
  net.connect(a, m, 1);
  net.connect(m, b, 0);
  net.connect(b, net.scan_out(), 0);
  return net;
}

TEST(RsnPasses, CleanNetworkHasNoDiagnostics) {
  rsn::Rsn net = clean_network();
  LintInput in;
  in.network = &net;
  EXPECT_TRUE(run_default(in).empty());
}

TEST(RsnPasses, Rsn001ScanPathCycle) {
  rsn::Rsn net("cyc");
  rsn::ElemId a = net.add_register("a", 1);
  rsn::ElemId b = net.add_register("b", 1);
  net.connect(a, b, 0);
  net.connect(b, a, 0);
  net.connect(net.scan_in(), net.scan_out(), 0);
  LintInput in;
  in.network = &net;
  std::vector<Diagnostic> diags = run_default(in);
  EXPECT_GE(count_code(diags, "RSN001"), 1u);
  // Cycle suppresses the derived reachability diagnostics.
  EXPECT_EQ(count_code(diags, "RSN003"), 0u);
  EXPECT_EQ(count_code(diags, "RSN004"), 0u);
}

TEST(RsnPasses, Rsn001RendersEachCycleFromTheDfsStack) {
  // a -> b -> c -> a, entered at a (the lowest id on the cycle): the
  // cycle text walks back from the re-entered register.
  rsn::Rsn net("cyc");
  rsn::ElemId a = net.add_register("a", 1);
  rsn::ElemId b = net.add_register("b", 1);
  rsn::ElemId c = net.add_register("c", 1);
  net.connect(a, b, 0);
  net.connect(b, c, 0);
  net.connect(c, a, 0);
  net.connect(net.scan_in(), net.scan_out(), 0);
  LintInput in;
  in.network = &net;
  in.network_source = "cyc.rsn";
  EXPECT_EQ(render_code(run_default(in), "RSN001"),
            "cyc.rsn: register 'a': scan-path cycle: register 'a' <- "
            "register 'b' <- register 'c' <- register 'a' (hint: cut one "
            "connection of the cycle)\n");

  // A self-loop on a register, and one through a mux port next to it:
  // one finding each.
  rsn::ElemId r = net.add_register("r", 1);
  net.connect(r, r, 0);
  rsn::ElemId m = net.add_mux("m", 2);
  net.connect(net.scan_in(), m, 0);
  net.connect(m, m, 1);
  EXPECT_EQ(render_code(run_default(in), "RSN001"),
            "cyc.rsn: register 'a': scan-path cycle: register 'a' <- "
            "register 'b' <- register 'c' <- register 'a' (hint: cut one "
            "connection of the cycle)\n"
            "cyc.rsn: register 'r': scan-path cycle: register 'r' <- "
            "register 'r' (hint: cut one connection of the cycle)\n"
            "cyc.rsn: mux 'm': scan-path cycle: mux 'm' <- mux 'm' (hint: "
            "cut one connection of the cycle)\n");
}

TEST(RsnPasses, Rsn002DanglingInputs) {
  rsn::Rsn net = clean_network();
  net.disconnect(net.scan_out(), 0);  // error: scan-out undriven
  LintInput in;
  in.network = &net;
  std::vector<Diagnostic> diags = run_default(in);
  EXPECT_EQ(count_code(diags, "RSN002"), 1u);

  rsn::Rsn net2 = clean_network();
  // Warning only: an extra mux input left unconnected.
  rsn::ElemId m = net2.muxes()[0];
  net2.add_mux_input(m, rsn::no_elem);
  in.network = &net2;
  diags = run_default(in);
  ASSERT_EQ(count_code(diags, "RSN002"), 1u);
  EXPECT_EQ(diags[0].severity, Severity::Warning);
}

TEST(RsnPasses, Rsn003UnreachableRegister) {
  rsn::Rsn net = clean_network();
  rsn::ElemId orphan = net.add_register("orphan", 1);
  net.attach_to_scan_out(orphan);  // reaches scan-out, but nothing feeds it
  LintInput in;
  in.network = &net;
  std::vector<Diagnostic> diags = run_default(in);
  EXPECT_EQ(count_code(diags, "RSN003"), 1u);
  // The undriven register input is independently a dangling-connection
  // error, but not an RSN004: RSN003 preempts planning.
  EXPECT_EQ(count_code(diags, "RSN004"), 0u);
}

TEST(RsnPasses, Rsn004InaccessibleRegister) {
  rsn::Rsn net = clean_network();
  // Reachable from scan-in, but its output goes nowhere: the planner
  // cannot complete a path to scan-out.
  rsn::ElemId sink_reg = net.add_register("dead_end", 2);
  net.connect(net.scan_in(), sink_reg, 0);
  LintInput in;
  in.network = &net;
  std::vector<Diagnostic> diags = run_default(in);
  EXPECT_EQ(count_code(diags, "RSN004"), 1u);
  EXPECT_EQ(count_code(diags, "RSN003"), 0u);
}

TEST(RsnPasses, Rsn005DeadAndDegenerateMuxes) {
  rsn::Rsn net = clean_network();
  rsn::ElemId dead = net.add_mux("dead", 2);
  net.connect(net.scan_in(), dead, 0);
  net.connect(net.scan_in(), dead, 1);  // drives nothing
  LintInput in;
  in.network = &net;
  std::vector<Diagnostic> diags = run_default(in);
  ASSERT_EQ(count_code(diags, "RSN005"), 1u);

  rsn::Rsn net2 = clean_network();
  rsn::ElemId m = net2.muxes()[0];
  net2.remove_mux_input(m, 0);  // reduced to a buffer
  in.network = &net2;
  diags = run_default(in);
  ASSERT_EQ(count_code(diags, "RSN005"), 1u);
  EXPECT_EQ(diags[0].severity, Severity::Note);
}

// ------------------------------------------------------------------- spec

TEST(SpecPasses, CleanSpecHasNoDiagnostics) {
  security::SecuritySpec spec(3, 4);
  spec.set_policy(0, 3, 0b1100);
  spec.set_policy(1, 0, 0b1111);
  LintInput in;
  in.spec = &spec;
  EXPECT_TRUE(run_default(in).empty());
}

TEST(SpecPasses, Spec001TrustOutOfRange) {
  security::SecuritySpec spec(2, 2);
  spec.set_policy(0, 5, 0b11);
  LintInput in;
  in.spec = &spec;
  EXPECT_EQ(count_code(run_default(in), "SPEC001"), 1u);
}

TEST(SpecPasses, Spec002EmptyAcceptedSet) {
  security::SecuritySpec spec(2, 2);
  spec.set_policy(1, 0, 0);
  LintInput in;
  in.spec = &spec;
  EXPECT_EQ(count_code(run_default(in), "SPEC002"), 1u);
}

TEST(SpecPasses, Spec003OwnCategoryRejected) {
  security::SecuritySpec spec(2, 2);
  spec.set_policy(1, 1, 0b01);  // accepts only category 0, but trust is 1
  LintInput in;
  in.spec = &spec;
  EXPECT_EQ(count_code(run_default(in), "SPEC003"), 1u);
}

TEST(SpecPasses, Spec004UnknownModuleReference) {
  security::SecuritySpec spec(5, 2);
  spec.set_policy(4, 1, 0b10);
  std::vector<std::string> names{"m0", "m1", "m2"};  // only 3 known
  LintInput in;
  in.spec = &spec;
  in.module_names = &names;
  std::vector<Diagnostic> diags = run_default(in);
  EXPECT_EQ(count_code(diags, "SPEC004"), 2u);
  EXPECT_EQ(diags[0].severity, Severity::Warning);
}

// ------------------------------------------------------------ infrastructure

TEST(Registry, PassesAreApplicableByInputKind) {
  Registry reg = Registry::with_default_passes();
  EXPECT_EQ(reg.passes().size(), 9u);
  LintInput empty;
  for (const auto& pass : reg.passes())
    EXPECT_FALSE(pass->applicable(empty)) << pass->name();
  EXPECT_TRUE(reg.run(empty).empty());
}

TEST(Diagnostics, RenderersAndCounts) {
  std::vector<Diagnostic> diags{
      {"RSN001", Severity::Error, "f.rsn: register 'a'", "cycle", "cut it"},
      {"NET004", Severity::Warning, "c.v: AND node 3", "dead \"logic\"", ""},
  };
  EXPECT_EQ(count_at_least(diags, Severity::Error), 1u);
  EXPECT_EQ(count_at_least(diags, Severity::Note), 2u);

  std::ostringstream text;
  render_text(text, diags);
  EXPECT_NE(text.str().find("error RSN001 at f.rsn: register 'a': cycle"),
            std::string::npos);
  EXPECT_NE(text.str().find("1 error(s), 1 warning(s), 0 note(s)"),
            std::string::npos);

  std::ostringstream json;
  render_json(json, diags);
  EXPECT_NE(json.str().find("\"code\": \"NET004\""), std::string::npos);
  EXPECT_NE(json.str().find("dead \\\"logic\\\""), std::string::npos);
  EXPECT_NE(json.str().find("\"errors\": 1"), std::string::npos);

  std::ostringstream none;
  render_text(none, {});
  EXPECT_NE(none.str().find("no issues found"), std::string::npos);
}

}  // namespace
}  // namespace rsnsec::lint
