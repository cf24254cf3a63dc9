#include "netlist/cone_workspace.hpp"

#include <cassert>

namespace rsnsec::netlist {

void ConeWorkspace::extract_next_state_cone(NodeId ff, Cone& out) {
  const Node& n = nl_.node(ff);
  assert(n.type == GateType::FF);
  if (n.fanins.empty()) {  // unconnected FF: empty cone
    out.root = no_node;
    out.gates.clear();
    out.leaves.clear();
    return;
  }
  extract_signal_cone(n.fanins[0], out);
}

void ConeWorkspace::extract_signal_cone(NodeId net, Cone& out) {
  out.root = net;
  out.gates.clear();
  out.leaves.clear();
  auto is_leaf = [this](NodeId id) {
    return is_comb_leaf(nl_.node(id).type);
  };
  if (is_leaf(net)) {
    out.leaves.push_back(net);
    return;
  }

  // Iterative post-order DFS producing a topological (leaves-first)
  // order; every node is expanded at most once.
  marks_.reset(nl_.num_nodes());
  stack_.clear();
  stack_.emplace_back(net, 0);
  marks_.insert(net);
  while (!stack_.empty()) {
    auto& [id, next] = stack_.back();
    const Node& n = nl_.node(id);
    if (next < n.fanins.size()) {
      NodeId f = n.fanins[next++];
      if (marks_.contains(f)) continue;
      marks_.insert(f);
      if (is_leaf(f)) {
        out.leaves.push_back(f);
      } else {
        stack_.emplace_back(f, 0);
      }
    } else {
      out.gates.push_back(id);
      stack_.pop_back();
    }
  }
}

}  // namespace rsnsec::netlist
