#include "netlist/verilog.hpp"

#include <algorithm>
#include <ostream>
#include <unordered_map>

#include "obs/trace.hpp"
#include "util/lexer.hpp"
#include "util/strings.hpp"

namespace rsnsec::netlist::verilog {

namespace {

/// Text bytes per net that size the name table: a net write() emits
/// takes a wire declaration and a driving statement, 30 bytes or more,
/// so interning a written file never rehashes.
constexpr std::size_t kBytesPerNet = 32;

/// Gate inputs 1'b0 and 1'b1 (net indices stay below these).
constexpr std::uint32_t kConst0 = 0xfffffffeu;
constexpr std::uint32_t kConst1 = 0xffffffffu;

/// The primitives, read and written with these keywords.
constexpr std::pair<std::string_view, GateType> kPrimitives[] = {
    {"and", GateType::And}, {"or", GateType::Or},   {"nand", GateType::Nand},
    {"nor", GateType::Nor}, {"xor", GateType::Xor}, {"xnor", GateType::Xnor},
    {"not", GateType::Not}, {"buf", GateType::Buf}, {"mux", GateType::Mux},
    {"dff", GateType::FF}};

/// One interned net name.
struct Net {
  std::string_view name;
  NodeId node = no_node;
  bool driven = false;  ///< claimed by an input, flip-flop or gate output
};

/// A gate or flip-flop statement awaiting its node.
struct Prim {
  GateType type = GateType::Buf;
  std::uint32_t out = 0;                       ///< output net
  std::uint32_t args_begin = 0, args_end = 0;  ///< fanins in Reader::args_
  std::string_view instrument;  ///< empty: none
  int line = 0;
  std::uint32_t missing = 0;  ///< fanin nets without a node yet
};

std::string quoted(const Token& t) {
  return std::string("'").append(t.text).append("'");
}

bool is_direction(const Token& t) {
  return t.is("input") || t.is("output") || t.is("wire");
}

/// Parses the statements, interning every net name once, then builds the
/// netlist in time linear in gates plus fanins, whatever the gate order.
class Reader {
 public:
  explicit Reader(std::string_view text) : lex_(text, "verilog") {
    net_ids_.reserve(text.size() / kBytesPerNet);
    nets_.reserve(text.size() / kBytesPerNet);
  }

  ParsedCircuit run() {
    expect("module");
    out_.module_name = ident("module name").text;
    expect("(");
    std::string_view dir;  // header ports may carry their direction
    if (lex_.peek().is(")")) lex_.next();
    else
      do {
        if (is_direction(lex_.peek())) dir = lex_.next().text;
        declare(dir, ident("port name"));
      } while (more(")"));
    expect(";");

    std::string_view instrument;  // set by (* instrument = "name" *)
    Token t;
    for (t = lex_.next(); !t.is("endmodule"); t = lex_.next()) {
      if (t.kind == TokKind::End) fail(t.line, "missing 'endmodule'");
      if (t.is("(*")) {
        Token key = lex_.next();
        if (!key.is("instrument"))
          fail(key.line, "unsupported attribute " + quoted(key));
        expect("=");
        Token v = lex_.next();
        if (v.kind != TokKind::String && v.kind != TokKind::Ident)
          fail(v.line, "expected instrument name, got " + quoted(v));
        expect("*)");
        instrument = v.text;
      } else if (is_direction(t)) {
        do declare(t.text, ident("net name"));
        while (more(";"));
      } else {
        primitive(t, instrument);
        instrument = {};
      }
    }
    t = lex_.next();
    if (t.kind != TokKind::End)
      fail(t.line, "unexpected " + quoted(t) + " after 'endmodule'");
    build();
    return std::move(out_);
  }

 private:
  Lexer lex_;
  ParsedCircuit out_;
  std::unordered_map<std::string_view, std::uint32_t> net_ids_;
  std::vector<Net> nets_;
  std::vector<std::uint32_t> inputs_;
  std::vector<std::uint32_t> args_;
  std::vector<Prim> prims_;  ///< gates and flip-flops, in file order
  std::unordered_map<std::string_view, ModuleId> modules_;  ///< instruments
  std::string_view last_instrument_;  ///< module_of's last answer
  ModuleId last_module_ = no_module;

  [[noreturn]] void fail(int line, const std::string& m) const {
    lex_.fail(line, m);
  }
  void expect(std::string_view p) {
    Token t = lex_.next();
    if (!t.is(p))
      fail(t.line, "expected '" + std::string(p) + "', got " + quoted(t));
  }
  Token ident(const char* what) {
    Token t = lex_.next();
    if (t.kind != TokKind::Ident)
      fail(t.line, std::string("expected ") + what + ", got " + quoted(t));
    return t;
  }
  /// After a list item: true on ',', false on `close`.
  bool more(std::string_view close) {
    Token t = lex_.next();
    if (t.is(close)) return false;
    if (!t.is(","))
      fail(t.line, "expected ',' or '" + std::string(close) + "', got " +
                       quoted(t));
    return true;
  }

  std::uint32_t intern(std::string_view name) {
    auto [it, added] = net_ids_.try_emplace(
        name, static_cast<std::uint32_t>(nets_.size()));
    if (added) nets_.push_back({name});
    return it->second;
  }

  /// Claims net `n` for its one driver.
  void drive(std::uint32_t n, int line) {
    if (nets_[n].driven)
      fail(line, "net '" + std::string(nets_[n].name) + "' redefined");
    nets_[n].driven = true;
  }

  /// Undirected and wire declarations only name nets.
  void declare(std::string_view dir, const Token& name) {
    if (dir == "input") {
      inputs_.push_back(intern(name.text));
      drive(inputs_.back(), name.line);
    } else if (dir == "output") {
      out_.outputs.emplace_back(name.text);
    }
  }

  void primitive(const Token& t, std::string_view instrument) {
    auto kw = std::find_if(std::begin(kPrimitives), std::end(kPrimitives),
                           [&](const auto& p) { return t.is(p.first); });
    if (kw == std::end(kPrimitives))
      fail(t.line, "unknown primitive " + quoted(t));
    Prim g;
    g.type = kw->second;
    g.line = t.line;
    g.instrument = instrument;
    if (lex_.peek().kind == TokKind::Ident) lex_.next();  // instance name
    expect("(");
    g.out = intern(ident("net name").text);
    g.args_begin = static_cast<std::uint32_t>(args_.size());
    while (more(")")) {
      Token a = lex_.next();
      if (a.kind == TokKind::Ident)
        args_.push_back(intern(a.text));
      else if (a.kind == TokKind::Number && a.text == "1'b0")
        args_.push_back(kConst0);
      else if (a.kind == TokKind::Number && a.text == "1'b1")
        args_.push_back(kConst1);
      else
        fail(a.line, "expected net name, 1'b0 or 1'b1, got " + quoted(a));
    }
    expect(";");
    g.args_end = static_cast<std::uint32_t>(args_.size());
    const std::size_t n = g.args_end - g.args_begin + 1;  // with the output
    if (n < 2) fail(g.line, "primitive needs an output and >= 1 input");
    if (g.type == GateType::Mux && n != 4)
      fail(g.line, "mux needs (out, sel, in0, in1)");
    if (g.type == GateType::FF && n != 2) fail(g.line, "dff needs (q, d)");
    if ((g.type == GateType::Not || g.type == GateType::Buf) && n != 2)
      fail(g.line, "not/buf need (out, in)");
    drive(g.out, g.line);
    prims_.push_back(g);
  }

  /// The instrument's module, created when its first node is. write()
  /// tags every node, so runs of nodes name the same instrument: the
  /// table is consulted once per run.
  ModuleId module_of(std::string_view instrument) {
    if (instrument.empty()) return no_module;
    if (instrument != last_instrument_) {
      auto [it, added] = modules_.try_emplace(instrument, no_module);
      if (added) it->second = out_.netlist.add_module(std::string(instrument));
      last_instrument_ = instrument;
      last_module_ = it->second;
    }
    return last_module_;
  }

  /// True if `arg` is a net without a node yet.
  bool absent(std::uint32_t arg) const {
    return arg < kConst0 && nets_[arg].node == no_node;
  }
  /// The node feeding a gate input; each constant use gets its own node.
  NodeId fanin(std::uint32_t arg) {
    if (arg == kConst0) return out_.netlist.add_const(false);
    if (arg == kConst1) return out_.netlist.add_const(true);
    return nets_[arg].node;
  }

  /// Node order: inputs, flip-flops, then gates in file order, each as
  /// soon as its fanins exist. A gate with missing fanins waits on their
  /// nets and is built when the last one appears, so a file whose gates
  /// follow their fanins is built in file order and any other order costs
  /// no extra passes.
  void build() {
    Netlist& nl = out_.netlist;
    for (std::uint32_t n : inputs_)
      nets_[n].node = nl.add_input(std::string(nets_[n].name));
    for (const Prim& g : prims_)
      if (g.type == GateType::FF)
        nets_[g.out].node =
            nl.add_ff(std::string(nets_[g.out].name), module_of(g.instrument));

    std::vector<std::vector<std::uint32_t>> waiting(nets_.size());
    std::vector<std::uint32_t> ready;
    for (std::uint32_t i = 0; i < prims_.size(); ++i) {
      if (prims_[i].type == GateType::FF) continue;
      for (std::uint32_t a = prims_[i].args_begin; a < prims_[i].args_end; ++a)
        if (absent(args_[a])) {
          ++prims_[i].missing;
          waiting[args_[a]].push_back(i);
        }
      if (prims_[i].missing != 0) continue;
      ready.assign(1, i);
      for (std::size_t r = 0; r < ready.size(); ++r) {
        const Prim& g = prims_[ready[r]];
        std::vector<NodeId> fanins;
        fanins.reserve(g.args_end - g.args_begin);
        for (std::uint32_t a = g.args_begin; a < g.args_end; ++a)
          fanins.push_back(fanin(args_[a]));
        nets_[g.out].node = nl.add_gate(g.type, std::move(fanins),
                                        std::string(nets_[g.out].name),
                                        module_of(g.instrument));
        for (std::uint32_t w : waiting[g.out])
          if (--prims_[w].missing == 0) ready.push_back(w);
      }
    }
    for (const Prim& g : prims_)
      if (nets_[g.out].node == no_node)
        fail(g.line,
             "unresolvable nets (combinational loop or undriven wire "
             "feeding '" + std::string(nets_[g.out].name) + "')");

    for (const Prim& g : prims_) {
      if (g.type != GateType::FF) continue;
      const std::uint32_t d = args_[g.args_begin];
      if (absent(d))
        fail(g.line, "dff '" + std::string(nets_[g.out].name) +
                         "': undriven data net '" +
                         std::string(nets_[d].name) + "'");
      nl.set_ff_input(nets_[g.out].node, fanin(d));
    }

    out_.nets.reserve(nets_.size());
    for (const Net& n : nets_)
      if (n.node != no_node) out_.nets.emplace(n.name, n.node);
  }
};

}  // namespace

ParsedCircuit parse(std::string_view text) {
  obs::Span span(obs::TraceSession::active(), "parse.verilog");
  return Reader(text).run();
}

ParsedCircuit parse(std::istream& is) { return parse(read_all(is)); }

void write(std::ostream& os, const Netlist& nl, const std::string& name) {
  auto net_name = [&](NodeId id) {
    const Node& n = nl.node(id);
    return n.name.empty() ? std::string("n").append(std::to_string(id))
                          : n.name;
  };
  auto net_list = [&](const std::vector<NodeId>& ids) {
    for (std::size_t i = 0; i < ids.size(); ++i)
      os << (i == 0 ? "" : ", ") << net_name(ids[i]);
  };

  os << "module " << name << "(";
  net_list(nl.inputs());
  os << ");\n";
  if (!nl.inputs().empty()) {
    os << "  input ";
    net_list(nl.inputs());
    os << ";\n";
  }
  // Declare wires for gate outputs.
  for (NodeId id = 0; id < nl.num_nodes(); ++id)
    if (nl.node(id).type != GateType::Input)
      os << "  wire " << net_name(id) << ";\n";
  // Constants.
  for (NodeId id = 0; id < nl.num_nodes(); ++id) {
    const GateType t = nl.node(id).type;
    if (t == GateType::Const0)
      os << "  buf (" << net_name(id) << ", 1'b0);\n";
    else if (t == GateType::Const1)
      os << "  buf (" << net_name(id) << ", 1'b1);\n";
  }
  // Gates and flip-flops in node order: every gate follows its fanins.
  for (NodeId id = 0; id < nl.num_nodes(); ++id) {
    const Node& n = nl.node(id);
    auto kw = std::find_if(std::begin(kPrimitives), std::end(kPrimitives),
                           [&](const auto& p) { return p.second == n.type; });
    if (kw == std::end(kPrimitives)) continue;  // input or constant
    if (n.module != no_module)
      os << "  (* instrument = \"" << nl.module_name(n.module) << "\" *)\n";
    os << "  " << kw->first << " (" << net_name(id);
    for (NodeId f : n.fanins) os << ", " << net_name(f);
    os << ");\n";
  }
  os << "endmodule\n";
}

}  // namespace rsnsec::netlist::verilog
