#include "netlist/verilog.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>

#include "benchgen/circuit.hpp"
#include "benchgen/families.hpp"
#include "netlist/sim.hpp"
#include "store/codec.hpp"

namespace rsnsec::netlist::verilog {
namespace {

const char* kSample = R"(
// Sample structural netlist.
module crypto_core(input clk_gate, key_in, output leak);
  wire round, mixed;
  (* instrument = "aes" *)
  dff key(key_q, key_in);
  xor (round, key_q, clk_gate);
  /* reconvergent cancellation */
  xor dead(cancel, key_q, key_q);
  or  (mixed, cancel, round);
  (* instrument = "aes" *)
  dff state(state_q, mixed);
  buf (leak, state_q);
endmodule
)";

TEST(VerilogParse, BuildsExpectedStructure) {
  std::istringstream is(kSample);
  ParsedCircuit c = parse(is);
  EXPECT_EQ(c.module_name, "crypto_core");
  EXPECT_EQ(c.netlist.ffs().size(), 2u);
  EXPECT_EQ(c.netlist.inputs().size(), 2u);
  EXPECT_EQ(c.outputs, std::vector<std::string>{"leak"});
  ASSERT_TRUE(c.nets.count("state_q"));
  EXPECT_TRUE(c.netlist.is_ff(c.nets.at("state_q")));
  // Instrument attribute applied.
  EXPECT_EQ(c.netlist.num_modules(), 1u);
  EXPECT_EQ(c.netlist.module_name(0), "aes");
  EXPECT_EQ(c.netlist.node(c.nets.at("key_q")).module, 0);
  std::string err;
  EXPECT_TRUE(c.netlist.validate(&err)) << err;
}

TEST(VerilogParse, OutOfOrderDefinitionsResolve) {
  std::istringstream is(R"(
module m(input a);
  and (x, y, a);     // y defined later
  not (y, a);
  dff (q, x);
endmodule
)");
  ParsedCircuit c = parse(is);
  EXPECT_EQ(c.netlist.ffs().size(), 1u);
}

TEST(VerilogParse, ConstantsAllowed) {
  std::istringstream is(R"(
module m(input a);
  and (x, a, 1'b1);
  or (y, x, 1'b0);
  dff (q, y);
endmodule
)");
  ParsedCircuit c = parse(is);
  Simulator sim(c.netlist);
  sim.set_value(c.nets.at("a"), 0b10);
  sim.eval_comb();
  EXPECT_EQ(sim.value(c.nets.at("y")) & 0b11, 0b10u);
}

TEST(VerilogParse, RejectsCombinationalLoop) {
  std::istringstream is(R"(
module m(input a);
  and (x, y, a);
  or (y, x, a);
endmodule
)");
  EXPECT_THROW(parse(is), std::runtime_error);
}

TEST(VerilogParse, RejectsRedefinedNet) {
  std::istringstream is(R"(
module m(input a);
  not (x, a);
  buf (x, a);
endmodule
)");
  EXPECT_THROW(parse(is), std::runtime_error);
}

TEST(VerilogParse, RejectsUnknownPrimitive) {
  std::istringstream is("module m(input a);\n  latch (x, a);\nendmodule\n");
  EXPECT_THROW(parse(is), std::runtime_error);
}

TEST(VerilogParse, ErrorsCarryLineNumbers) {
  std::istringstream is("module m(input a);\n\n  latch (x, a);\nendmodule");
  try {
    parse(is);
    FAIL();
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

/// The message of the parse error `text` raises ("" if it parses).
std::string parse_error(const std::string& text) {
  std::istringstream is(text);
  try {
    parse(is);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(VerilogParse, TruncatedInputStopsWithLineNumber) {
  // Every loop ends at end of input: a file cut off inside the port list,
  // a declaration or an argument list is a line-numbered error.
  for (const auto& [text, line] :
       std::vector<std::pair<std::string, std::string>>{
           {"module m(input a, b", "line 1"},
           {"module m(input a,\n", "line 2"},
           {"module m(input a);\n  and g(x, a", "line 2"},
           {"module m(input a);\n  and g(x, a,", "line 2"},
           {"module m(input a);\n  wire w,", "line 2"},
           {"module m(input a);\n  (* instrument = \"i\"", "line 2"},
           {"module m(input a);\n  dff (q, a);\n", "line 3"}}) {
    EXPECT_NE(parse_error(text).find("verilog parse error at " + line),
              std::string::npos)
        << text << " -> " << parse_error(text);
  }
}

TEST(VerilogParse, RejectsWhatTheGrammarDoesNotAllow) {
  for (const char* text : {
           "module m(input a);\n  buf (5, a);\nendmodule\n",
           "module m(input a);\n  and (x, =, a);\nendmodule\n",
           "module m(input a);\n  buf (x, 4'b0000);\nendmodule\n",
           "module m(input a);\n  and (x a);\nendmodule\n",
           "module m(input a b);\nendmodule\n",
           "module m(input a);\n  wire [3:0] w;\nendmodule\n",
           "module m(input a);\nendmodule\nmodule n(input b);\nendmodule\n",
       }) {
    EXPECT_NE(parse_error(text).find("verilog parse error at line"),
              std::string::npos)
        << text;
  }
}

TEST(VerilogParse, EscapedIdentifiersAndMultiLineStrings) {
  std::istringstream is(
      "module m(input \\a[0] , output y);\n"
      "  (* instrument = \"two\nlines\" *)\n"
      "  dff (\\q.r , \\a[0] );\n"
      "  buf (y, \\q.r );\n"
      "endmodule\n");
  ParsedCircuit c = parse(is);
  ASSERT_TRUE(c.nets.count("a[0]"));
  ASSERT_TRUE(c.nets.count("q.r"));
  EXPECT_EQ(c.netlist.module_name(0), "two\nlines");
  // Newlines inside strings count: the error is reported on line 4.
  EXPECT_NE(parse_error("module m(input a);\n"
                        "  (* instrument = \"x\ny\" *)\n"
                        "  latch (q, a);\nendmodule\n")
                .find("line 4"),
            std::string::npos);
}

TEST(VerilogParse, GatesAreBuiltAsSoonAsTheirFaninsExist) {
  // Inputs, then flip-flops, then gates in file order, each as soon as
  // its fanins exist; a waiting gate creates no constant nodes.
  std::istringstream is(R"(
module m(input a);
  and (x, 1'b1, y);  // waits for y
  not (y, a);
  dff (q, x);
endmodule
)");
  ParsedCircuit c = parse(is);
  EXPECT_EQ(c.nets.at("a"), 0);
  EXPECT_EQ(c.nets.at("q"), 1);
  EXPECT_EQ(c.nets.at("y"), 2);
  EXPECT_EQ(c.netlist.node(3).type, GateType::Const1);
  EXPECT_EQ(c.nets.at("x"), 4);
  EXPECT_EQ(c.netlist.num_nodes(), 5u);
}

TEST(VerilogParse, SequentialLoopAccepted) {
  std::istringstream is(R"(
module m(input a);
  dff (q, d);
  not (d, q);
endmodule
)");
  ParsedCircuit c = parse(is);
  EXPECT_TRUE(c.netlist.validate());
}

TEST(VerilogParse, HeaderDirections) {
  std::istringstream is(
      "module m(input a, b, output y);\n  and (y, a, b);\nendmodule\n");
  ParsedCircuit c = parse(is);
  EXPECT_EQ(c.netlist.inputs().size(), 2u);
  EXPECT_EQ(c.outputs, std::vector<std::string>{"y"});
}

TEST(VerilogRoundTrip, GeneratedCircuitSimulatesIdentically) {
  // Generate a random circuit, write it as Verilog, parse it back, and
  // co-simulate: both netlists must agree on every FF next-state.
  Rng rng(31);
  benchgen::BenchmarkProfile p = benchgen::bastion_profile("BasicSCB");
  rsn::RsnDocument doc = benchgen::generate_bastion(p, 0.4, rng);
  Netlist original = benchgen::attach_random_circuit(doc, {}, rng);

  std::ostringstream os;
  write(os, original, "roundtrip");
  std::istringstream is(os.str());
  ParsedCircuit back = parse(is);

  ASSERT_EQ(back.netlist.ffs().size(), original.ffs().size());
  ASSERT_EQ(back.netlist.inputs().size(), original.inputs().size());
  EXPECT_EQ(back.netlist.num_modules(), original.num_modules());

  Simulator sim_a(original);
  Simulator sim_b(back.netlist);
  Rng stim(77);
  for (int round = 0; round < 4; ++round) {
    // Identical stimuli by name.
    for (NodeId in : original.inputs()) {
      std::uint64_t v = stim.next_u64();
      sim_a.set_value(in, v);
      sim_b.set_value(back.nets.at(original.node(in).name), v);
    }
    for (NodeId ff : original.ffs()) {
      std::uint64_t v = stim.next_u64();
      sim_a.set_value(ff, v);
      sim_b.set_value(back.nets.at(original.node(ff).name), v);
    }
    sim_a.step();
    sim_b.step();
    for (NodeId ff : original.ffs()) {
      EXPECT_EQ(sim_a.value(ff),
                sim_b.value(back.nets.at(original.node(ff).name)))
          << original.node(ff).name;
    }
  }
}

/// The generated circuit of a BASTION family (small scale) or of an
/// MBIST_n_m_o network, with a fixed seed.
Netlist generated_circuit(const std::string& name) {
  Rng rng(5);
  rsn::RsnDocument doc =
      name == "MBIST_2_4_4"
          ? benchgen::generate_mbist(2, 4, 4, 1.0)
          : benchgen::generate_bastion(benchgen::bastion_profile(name),
                                       name == "FlexScan" ? 0.015 : 0.05,
                                       rng);
  return benchgen::attach_random_circuit(doc, {}, rng);
}

std::uint64_t digest(const Netlist& nl) {
  store::ByteWriter w;
  store::encode_netlist(w, nl);
  return store::fnv1a64(w.bytes());
}

TEST(VerilogRoundTrip, ParseOfWriteMatchesPinnedDigests) {
  // parse(write(circuit)) node for node: ids, types, fanins, names,
  // module ids and the module table, pinned for every generator family.
  // write() emits every gate after its fanins, so these files take the
  // parser's in-order path.
  struct Pinned {
    const char* name;
    std::uint64_t digest;
  };
  const Pinned pinned[] = {
      {"BasicSCB", 0x513bcd7caff110ccull},
      {"Mingle", 0x5300345db5032ebaull},
      {"TreeFlat", 0x7a670beaaf198a34ull},
      {"TreeFlatEx", 0xa0bc4970c8e86011ull},
      {"TreeBalanced", 0x163786c529c4e87dull},
      {"TreeUnbalanced", 0x3a1413ab9a14eb5aull},
      {"q12710", 0xdedc14a53836afefull},
      {"t512505", 0xcb49e9adb9301b4aull},
      {"p22810", 0x89dcf397e1168220ull},
      {"a586710", 0xd151cc7e111ecb0eull},
      {"p34392", 0x700b1ef1d079458bull},
      {"p93791", 0x70cb8f0cb83e73f0ull},
      {"FlexScan", 0xe73ba83463ef1fa5ull},
      {"MBIST_2_4_4", 0xb110784c1505084bull},
  };
  ASSERT_EQ(std::size(pinned), benchgen::bastion_profiles().size() + 1);
  for (const Pinned& p : pinned) {
    std::ostringstream os;
    write(os, generated_circuit(p.name), "top");
    std::istringstream is(os.str());
    const std::uint64_t got = digest(parse(is).netlist);
    EXPECT_EQ(got, p.digest) << p.name << " digest 0x" << std::hex << got;
  }
}

/// The lines of `text` with the gate and flip-flop statements (each with
/// its instrument attribute) shuffled among themselves.
std::string shuffle_gate_lines(const std::string& text, std::uint64_t seed) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  auto is_stmt = [](const std::string& l) {
    return l.rfind("  wire ", 0) != 0 && l.rfind("  input ", 0) != 0 &&
           l.rfind("  ", 0) == 0;
  };
  std::vector<std::string> stmts;  // attribute + primitive, joined
  std::vector<std::string> out;
  std::size_t first_stmt = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (!is_stmt(lines[i])) {
      if (stmts.empty()) first_stmt = out.size() + 1;
      out.push_back(lines[i]);
      continue;
    }
    std::string s = lines[i];
    if (s.rfind("  (*", 0) == 0) s += "\n" + lines[++i];
    stmts.push_back(s);
  }
  Rng rng(seed);
  for (std::size_t i = stmts.size(); i > 1; --i)
    std::swap(stmts[i - 1], stmts[rng.next_u64() % i]);
  out.insert(out.begin() + static_cast<std::ptrdiff_t>(first_stmt),
             stmts.begin(), stmts.end());
  std::string joined;
  for (const std::string& l : out) joined += l + "\n";
  return joined;
}

TEST(VerilogRoundTrip, ShuffledGateOrderParsesIsomorphically) {
  // Any gate order yields the same circuit up to node numbering: same
  // named nets, node types, fanin names and instruments, and the same
  // next-state function.
  Netlist original = generated_circuit("TreeFlatEx");
  std::ostringstream os;
  write(os, original, "top");
  std::istringstream in_order(os.str());
  ParsedCircuit a = parse(in_order);
  std::istringstream shuffled(shuffle_gate_lines(os.str(), 3));
  ParsedCircuit b = parse(shuffled);

  auto fanin_label = [](const Netlist& nl, NodeId f) {
    const Node& n = nl.node(f);
    return n.name.empty() ? "<" + std::to_string(static_cast<int>(n.type)) +
                                ">"
                          : n.name;
  };
  auto instrument = [](const Netlist& nl, NodeId id) {
    ModuleId m = nl.node(id).module;
    return m == no_module ? std::string() : nl.module_name(m);
  };
  ASSERT_EQ(a.nets.size(), b.nets.size());
  EXPECT_EQ(a.outputs, b.outputs);
  for (const auto& [name, id_a] : a.nets) {
    ASSERT_TRUE(b.nets.count(name)) << name;
    NodeId id_b = b.nets.at(name);
    const Node& na = a.netlist.node(id_a);
    const Node& nb = b.netlist.node(id_b);
    EXPECT_EQ(na.type, nb.type) << name;
    EXPECT_EQ(instrument(a.netlist, id_a), instrument(b.netlist, id_b))
        << name;
    ASSERT_EQ(na.fanins.size(), nb.fanins.size()) << name;
    for (std::size_t k = 0; k < na.fanins.size(); ++k)
      EXPECT_EQ(fanin_label(a.netlist, na.fanins[k]),
                fanin_label(b.netlist, nb.fanins[k]))
          << name << " fanin " << k;
  }

  Simulator sim_a(a.netlist);
  Simulator sim_b(b.netlist);
  Rng stim(41);
  for (int round = 0; round < 4; ++round) {
    for (NodeId in : a.netlist.inputs()) {
      std::uint64_t v = stim.next_u64();
      sim_a.set_value(in, v);
      sim_b.set_value(b.nets.at(a.netlist.node(in).name), v);
    }
    for (NodeId ff : a.netlist.ffs()) {
      std::uint64_t v = stim.next_u64();
      sim_a.set_value(ff, v);
      sim_b.set_value(b.nets.at(a.netlist.node(ff).name), v);
    }
    sim_a.step();
    sim_b.step();
    for (NodeId ff : a.netlist.ffs())
      EXPECT_EQ(sim_a.value(ff),
                sim_b.value(b.nets.at(a.netlist.node(ff).name)))
          << a.netlist.node(ff).name;
  }
}

}  // namespace
}  // namespace rsnsec::netlist::verilog
