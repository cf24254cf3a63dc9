#include "netlist/netlist.hpp"

#include <cassert>
#include <stdexcept>

#include "netlist/cone_workspace.hpp"

namespace rsnsec::netlist {

const char* gate_type_name(GateType t) {
  switch (t) {
    case GateType::Input: return "INPUT";
    case GateType::Const0: return "CONST0";
    case GateType::Const1: return "CONST1";
    case GateType::Buf: return "BUF";
    case GateType::Not: return "NOT";
    case GateType::And: return "AND";
    case GateType::Nand: return "NAND";
    case GateType::Or: return "OR";
    case GateType::Nor: return "NOR";
    case GateType::Xor: return "XOR";
    case GateType::Xnor: return "XNOR";
    case GateType::Mux: return "MUX";
    case GateType::FF: return "FF";
  }
  return "?";
}

namespace {

/// Throws unless `f` is a node of a netlist with `num_nodes` nodes.
void require_node(NodeId f, std::size_t num_nodes, const char* what) {
  if (f >= num_nodes)
    throw std::invalid_argument(std::string(what) + " " + std::to_string(f) +
                                " is not an existing node");
}

}  // namespace

ModuleId Netlist::add_module(std::string name) {
  module_names_.push_back(std::move(name));
  return static_cast<ModuleId>(module_names_.size() - 1);
}

NodeId Netlist::add_input(std::string name, ModuleId module) {
  auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back({GateType::Input, {}, std::move(name), module});
  inputs_.push_back(id);
  return id;
}

NodeId Netlist::add_const(bool value) {
  auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(
      {value ? GateType::Const1 : GateType::Const0, {}, {}, no_module});
  return id;
}

NodeId Netlist::add_gate(GateType type, std::vector<NodeId> fanins,
                         std::string name, ModuleId module) {
  assert(type != GateType::Input && type != GateType::FF);
  if (type == GateType::Mux && fanins.size() != 3)
    throw std::invalid_argument("MUX requires exactly 3 fanins");
  if ((type == GateType::Buf || type == GateType::Not) && fanins.size() != 1)
    throw std::invalid_argument("BUF/NOT require exactly 1 fanin");
  for (NodeId f : fanins) require_node(f, nodes_.size(), "gate fanin");
  auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back({type, std::move(fanins), std::move(name), module});
  return id;
}

NodeId Netlist::add_ff(std::string name, ModuleId module, NodeId d) {
  auto id = static_cast<NodeId>(nodes_.size());
  std::vector<NodeId> fanins;
  if (d != no_node) {
    require_node(d, nodes_.size(), "flip-flop data input");
    fanins.push_back(d);
  }
  nodes_.push_back({GateType::FF, std::move(fanins), std::move(name), module});
  ffs_.push_back(id);
  return id;
}

void Netlist::set_ff_input(NodeId ff, NodeId d) {
  Node& n = nodes_[static_cast<std::size_t>(ff)];
  assert(n.type == GateType::FF);
  require_node(d, nodes_.size(), "flip-flop data input");
  n.fanins.assign(1, d);
}

Cone Netlist::extract_next_state_cone(NodeId ff) const {
  Cone cone;
  ConeWorkspace(*this).extract_next_state_cone(ff, cone);
  return cone;
}

Cone Netlist::extract_signal_cone(NodeId net) const {
  Cone cone;
  ConeWorkspace(*this).extract_signal_cone(net, cone);
  return cone;
}

bool Netlist::validate(std::string* error) const {
  for (NodeId ff : ffs_) {
    const Node& n = node(ff);
    if (n.fanins.empty()) {
      if (error)
        *error = "flip-flop " + std::to_string(ff) + " ('" + n.name +
                 "') has no data input";
      return false;
    }
  }
  return true;
}

std::uint64_t eval_gate(GateType type, const std::uint64_t* v,
                        std::size_t n) {
  switch (type) {
    case GateType::Const0: return 0;
    case GateType::Const1: return ~0ULL;
    case GateType::Buf: return v[0];
    case GateType::Not: return ~v[0];
    case GateType::And: {
      std::uint64_t r = ~0ULL;
      for (std::size_t i = 0; i < n; ++i) r &= v[i];
      return r;
    }
    case GateType::Nand: {
      std::uint64_t r = ~0ULL;
      for (std::size_t i = 0; i < n; ++i) r &= v[i];
      return ~r;
    }
    case GateType::Or: {
      std::uint64_t r = 0;
      for (std::size_t i = 0; i < n; ++i) r |= v[i];
      return r;
    }
    case GateType::Nor: {
      std::uint64_t r = 0;
      for (std::size_t i = 0; i < n; ++i) r |= v[i];
      return ~r;
    }
    case GateType::Xor: {
      std::uint64_t r = 0;
      for (std::size_t i = 0; i < n; ++i) r ^= v[i];
      return r;
    }
    case GateType::Xnor: {
      std::uint64_t r = 0;
      for (std::size_t i = 0; i < n; ++i) r ^= v[i];
      return ~r;
    }
    case GateType::Mux:
      return (v[0] & v[2]) | (~v[0] & v[1]);
    case GateType::Input:
    case GateType::FF:
      break;  // sequential/primary nodes have no combinational function
  }
  assert(false && "eval_gate on non-combinational node");
  return 0;
}

}  // namespace rsnsec::netlist
