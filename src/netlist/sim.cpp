#include "netlist/sim.hpp"

#include <cassert>

namespace rsnsec::netlist {

Simulator::Simulator(const Netlist& nl)
    : nl_(nl), values_(nl.num_nodes(), 0) {
  // Constants are fixed once; every value starts at 0.
  for (NodeId id = 0; id < nl_.num_nodes(); ++id)
    if (nl_.node(id).type == GateType::Const1) values_[id] = ~0ULL;
}

void Simulator::randomize_state(Rng& rng) {
  for (NodeId id : nl_.inputs()) values_[id] = rng.next_u64();
  for (NodeId id : nl_.ffs()) values_[id] = rng.next_u64();
}

void Simulator::eval_comb() {
  std::vector<std::uint64_t> fanin_vals;
  for (NodeId id = 0; id < nl_.num_nodes(); ++id) {
    const Node& n = nl_.node(id);
    if (is_comb_leaf(n.type)) continue;
    fanin_vals.clear();
    for (NodeId f : n.fanins) fanin_vals.push_back(values_[f]);
    values_[id] = eval_gate(n.type, fanin_vals.data(), fanin_vals.size());
  }
}

void Simulator::step() {
  eval_comb();
  std::vector<std::uint64_t> next(nl_.ffs().size());
  for (std::size_t i = 0; i < nl_.ffs().size(); ++i) {
    const Node& ff = nl_.node(nl_.ffs()[i]);
    assert(!ff.fanins.empty());
    next[i] = values_[ff.fanins[0]];
  }
  for (std::size_t i = 0; i < nl_.ffs().size(); ++i)
    values_[nl_.ffs()[i]] = next[i];
}

std::uint64_t eval_cone(const Netlist& nl, const Cone& cone,
                        const std::vector<std::uint64_t>& leaf_values,
                        std::vector<std::uint64_t>& scratch) {
  assert(leaf_values.size() == cone.leaves.size());
  scratch.resize(nl.num_nodes());
  for (std::size_t i = 0; i < cone.leaves.size(); ++i)
    scratch[cone.leaves[i]] = leaf_values[i];
  std::uint64_t fanin_vals[64];
  for (NodeId id : cone.gates) {
    const Node& n = nl.node(id);
    std::size_t k = n.fanins.size();
    if (k <= 64) {
      for (std::size_t i = 0; i < k; ++i)
        fanin_vals[i] = scratch[n.fanins[i]];
      scratch[id] = eval_gate(n.type, fanin_vals, k);
    } else {
      std::vector<std::uint64_t> big(k);
      for (std::size_t i = 0; i < k; ++i) big[i] = scratch[n.fanins[i]];
      scratch[id] = eval_gate(n.type, big.data(), k);
    }
  }
  return scratch[cone.root];
}

Word256 eval_cone(const Netlist& nl, const Cone& cone,
                  const std::vector<Word256>& leaf_values,
                  std::vector<Word256>& scratch) {
  assert(leaf_values.size() == cone.leaves.size());
  scratch.resize(nl.num_nodes());
  for (std::size_t i = 0; i < cone.leaves.size(); ++i)
    scratch[cone.leaves[i]] = leaf_values[i];
  std::uint64_t fanin_vals[64];
  for (NodeId id : cone.gates) {
    const Node& n = nl.node(id);
    std::size_t k = n.fanins.size();
    if (k <= 64) {
      for (std::size_t lane = 0; lane < 4; ++lane) {
        for (std::size_t i = 0; i < k; ++i)
          fanin_vals[i] = scratch[n.fanins[i]].lane[lane];
        scratch[id].lane[lane] = eval_gate(n.type, fanin_vals, k);
      }
    } else {
      std::vector<std::uint64_t> big(k);
      for (std::size_t lane = 0; lane < 4; ++lane) {
        for (std::size_t i = 0; i < k; ++i)
          big[i] = scratch[n.fanins[i]].lane[lane];
        scratch[id].lane[lane] = eval_gate(n.type, big.data(), k);
      }
    }
  }
  return scratch[cone.root];
}

}  // namespace rsnsec::netlist
