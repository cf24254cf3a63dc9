// Netlist well-formedness passes (NET001-NET004). Every pass tolerates
// arbitrarily malformed netlists — out-of-range fanins are skipped here
// and reported by the dangling-input pass.

#include <map>
#include <string>
#include <vector>

#include "lint/passes.hpp"
#include "util/cycle_search.hpp"

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

bool valid_fanin(const Netlist& nl, NodeId f) {
  return f != netlist::no_node && f < nl.num_nodes();
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

/// NET002: combinational cycle (DFS over combinational fanin edges; FF
/// and input/constant fanins break the path).
class CombLoopPass final : public NetlistPass {
 public:
  const char* name() const override { return "netlist-comb-loop"; }
  void run(const LintInput& in, Sink& sink) const override {
    const Netlist& nl = *in.circuit;
    auto sequential = [&](NodeId id) {
      GateType t = nl.node(id).type;
      return t == GateType::FF || t == GateType::Input ||
             t == GateType::Const0 || t == GateType::Const1;
    };
    search_cycles<NodeId>(
        nl.num_nodes(),
        [&nl](NodeId id) -> const auto& { return nl.node(id).fanins; },
        [&](NodeId id) { return !valid_fanin(nl, id) || sequential(id); },
        [&](NodeId from, NodeId to, const auto&) {
          // Report the cycle once, anchored at the re-entered node.
          sink.add("NET002", Severity::Error, in.circuit_source,
                   node_label(nl, to),
                   "combinational loop through '" + node_label(nl, to) +
                       "' (reached again from " + node_label(nl, from) + ")",
                   "break the loop with a flip-flop");
          return true;
        });
  }
};

/// NET003: structural input problems — out-of-range fanin ids, flip-flops
/// without a data input, and fixed-arity gates with the wrong fanin count.
class DanglingInputPass final : public NetlistPass {
 public:
  const char* name() const override { return "netlist-dangling-input"; }
  void run(const LintInput& in, Sink& sink) const override {
    const Netlist& nl = *in.circuit;
    for (NodeId id = 0; id < nl.num_nodes(); ++id) {
      const netlist::Node& n = nl.node(id);
      for (std::size_t p = 0; p < n.fanins.size(); ++p) {
        if (!valid_fanin(nl, n.fanins[p])) {
          sink.add("NET003", Severity::Error, in.circuit_source,
                   node_label(nl, id),
                   "fanin " + std::to_string(p) + " is dangling",
                   "connect the input or remove the node");
        }
      }
      std::size_t arity = n.fanins.size();
      bool bad_arity = false;
      switch (n.type) {
        case GateType::FF:
          if (arity == 0) {
            sink.add("NET003", Severity::Error, in.circuit_source,
                     node_label(nl, id), "flip-flop has no data input",
                     "call set_ff_input or connect the dff data pin");
          }
          break;
        case GateType::Buf:
        case GateType::Not:
          bad_arity = arity != 1;
          break;
        case GateType::Mux:
          bad_arity = arity != 3;
          break;
        case GateType::And:
        case GateType::Nand:
        case GateType::Or:
        case GateType::Nor:
        case GateType::Xor:
        case GateType::Xnor:
          bad_arity = arity < 2;
          break;
        case GateType::Input:
        case GateType::Const0:
        case GateType::Const1:
          bad_arity = arity != 0;
          break;
      }
      if (bad_arity) {
        sink.add("NET003", Severity::Error, in.circuit_source,
                 node_label(nl, id),
                 "wrong fanin count (" + std::to_string(arity) + ") for " +
                     gate_type_name(n.type));
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
    for (NodeId id = 0; id < nl.num_nodes(); ++id) {
      for (NodeId f : nl.node(id).fanins)
        if (valid_fanin(nl, f)) live[f] = true;
    }
    for (NodeId id : in.circuit_outputs)
      if (id < nl.num_nodes()) live[id] = true;
    for (NodeId id : in.circuit_roots)
      if (id < nl.num_nodes()) live[id] = true;
    for (NodeId id = 0; id < nl.num_nodes(); ++id) {
      GateType t = nl.node(id).type;
      if (t == GateType::FF || t == GateType::Input ||
          t == GateType::Const0 || t == GateType::Const1)
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
std::unique_ptr<Pass> make_netlist_comb_loop_pass() {
  return std::make_unique<CombLoopPass>();
}
std::unique_ptr<Pass> make_netlist_dangling_input_pass() {
  return std::make_unique<DanglingInputPass>();
}
std::unique_ptr<Pass> make_netlist_dead_logic_pass() {
  return std::make_unique<DeadLogicPass>();
}

}  // namespace rsnsec::lint
