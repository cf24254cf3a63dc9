// Netlist well-formedness passes (NET001, NET003, NET004). A Netlist
// cannot hold a combinational loop or a dangling fanin id (every fanin
// exists before the gate that reads it), so NET002 comes only from the
// Verilog reader, through the file driver.

#include <map>
#include <string>
#include <vector>

#include "lint/passes.hpp"

namespace rsnsec::lint {

namespace {

using netlist::GateType;
using netlist::Netlist;
using netlist::NodeId;

std::string node_label(const Netlist& nl, NodeId id) {
  const netlist::Node& n = nl.node(id);
  std::string label = std::string(gate_type_name(n.type)) + " node " +
                      std::to_string(id);
  if (!n.name.empty()) label += " ('" + n.name + "')";
  return label;
}

class NetlistPass : public Pass {
 public:
  bool applicable(const LintInput& in) const override {
    return in.circuit != nullptr;
  }
};

/// NET001: two nodes producing the same (non-empty) net name. The netlist
/// model has single-output nodes, so a "net" exists only through names —
/// but names are exactly what the Verilog writer emits and downstream
/// tools consume, so a duplicate name is a multi-driven net after any
/// round trip.
class MultiDriverPass final : public NetlistPass {
 public:
  const char* name() const override { return "netlist-multi-driver"; }
  void run(const LintInput& in, Sink& sink) const override {
    const Netlist& nl = *in.circuit;
    std::map<std::string, NodeId> first;
    for (NodeId id = 0; id < nl.num_nodes(); ++id) {
      const std::string& nm = nl.node(id).name;
      if (nm.empty()) continue;
      auto [it, inserted] = first.emplace(nm, id);
      if (!inserted) {
        sink.add("NET001", Severity::Error, in.circuit_source,
                 node_label(nl, id),
                 "net '" + nm + "' is also driven by " +
                     node_label(nl, it->second),
                 "rename one of the nodes or merge the drivers");
      }
    }
  }
};

/// NET003: input problems the netlist builder accepts: a flip-flop
/// without a data input, and an n-ary gate with fewer than two fanins
/// (the reader accepts `and (o, a)`). Netlist::add_gate already rejects
/// missing fanins and a wrong BUF/NOT/MUX fanin count.
class DanglingInputPass final : public NetlistPass {
 public:
  const char* name() const override { return "netlist-dangling-input"; }
  void run(const LintInput& in, Sink& sink) const override {
    const Netlist& nl = *in.circuit;
    for (NodeId id = 0; id < nl.num_nodes(); ++id) {
      const netlist::Node& n = nl.node(id);
      switch (n.type) {
        case GateType::FF:
          if (n.fanins.empty())
            sink.add("NET003", Severity::Error, in.circuit_source,
                     node_label(nl, id), "flip-flop has no data input",
                     "call set_ff_input or connect the dff data pin");
          break;
        case GateType::And:
        case GateType::Nand:
        case GateType::Or:
        case GateType::Nor:
        case GateType::Xor:
        case GateType::Xnor:
          if (n.fanins.size() < 2)
            sink.add("NET003", Severity::Error, in.circuit_source,
                     node_label(nl, id),
                     "wrong fanin count (" + std::to_string(n.fanins.size()) +
                         ") for " + gate_type_name(n.type));
          break;
        default:
          break;
      }
    }
  }
};

/// NET004: combinational gates whose output nothing consumes. Declared
/// circuit outputs and capture sources of the scan network (passed via
/// circuit_roots) keep logic alive: a net can be observed without being a
/// gate fanin.
class DeadLogicPass final : public NetlistPass {
 public:
  const char* name() const override { return "netlist-dead-logic"; }
  void run(const LintInput& in, Sink& sink) const override {
    const Netlist& nl = *in.circuit;
    std::vector<bool> live(nl.num_nodes(), false);
    for (NodeId id = 0; id < nl.num_nodes(); ++id)
      for (NodeId f : nl.node(id).fanins) live[f] = true;
    for (NodeId id : in.circuit_outputs)
      if (id < nl.num_nodes()) live[id] = true;
    for (NodeId id : in.circuit_roots)
      if (id < nl.num_nodes()) live[id] = true;
    for (NodeId id = 0; id < nl.num_nodes(); ++id) {
      if (is_comb_leaf(nl.node(id).type))
        continue;  // state and ports are sinks/sources, not dead logic
      if (!live[id]) {
        sink.add("NET004", Severity::Warning, in.circuit_source,
                 node_label(nl, id),
                 "gate output is never used (dead logic)",
                 "remove the gate or connect it to an output");
      }
    }
  }
};

}  // namespace

std::unique_ptr<Pass> make_netlist_multi_driver_pass() {
  return std::make_unique<MultiDriverPass>();
}
std::unique_ptr<Pass> make_netlist_dangling_input_pass() {
  return std::make_unique<DanglingInputPass>();
}
std::unique_ptr<Pass> make_netlist_dead_logic_pass() {
  return std::make_unique<DeadLogicPass>();
}

}  // namespace rsnsec::lint
