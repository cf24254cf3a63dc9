#include "flow/ternary.hpp"

#include <algorithm>

namespace rsnsec::flow {

using netlist::Cone;
using netlist::GateType;
using netlist::Netlist;
using netlist::NodeId;

namespace {

/// Image of the pair sets `a` and `b` under a binary boolean function,
/// assuming independence (full product of the two sets). Sound: the true
/// correlated pair set is a subset of the product.
template <typename F>
PairSet combine(PairSet a, PairSet b, F op) {
  PairSet r = 0;
  for (int i = 0; i < 4; ++i) {
    if (((a >> i) & 1) == 0) continue;
    for (int j = 0; j < 4; ++j) {
      if (((b >> j) & 1) == 0) continue;
      const int v0 = op((i >> 1) & 1, (j >> 1) & 1);
      const int v1 = op(i & 1, j & 1);
      r |= static_cast<PairSet>(1u << (v0 * 2 + v1));
    }
  }
  return r;
}

/// Complement of every pair in the set: (v0, v1) -> (!v0, !v1), i.e. the
/// 4-bit mask reversed.
PairSet invert(PairSet v) {
  return static_cast<PairSet>(((v & 0b0001) << 3) | ((v & 0b0010) << 1) |
                              ((v & 0b0100) >> 1) | ((v & 0b1000) >> 3));
}

int op_and(int a, int b) { return a & b; }
int op_or(int a, int b) { return a | b; }
int op_xor(int a, int b) { return a ^ b; }

}  // namespace

TernaryEvaluator::TernaryEvaluator(const Netlist& nl)
    : nl_(nl), val_(nl.num_nodes(), pair_top) {}

PairSet TernaryEvaluator::eval_gate(NodeId gate) {
  const netlist::Node& n = nl_.node(gate);
  const std::vector<NodeId>& fanins = n.fanins;
  switch (n.type) {
    case GateType::Buf:
      return fanins.empty() ? pair_top : val_[fanins[0]];
    case GateType::Not:
      return fanins.empty() ? pair_top : invert(val_[fanins[0]]);
    case GateType::And:
    case GateType::Nand:
    case GateType::Or:
    case GateType::Nor: {
      if (fanins.empty()) return pair_top;
      // Idempotence: a fanin wired in twice contributes once; folding it
      // twice under the independence assumption would lose exactly the
      // correlation that makes AND(x, x) = x.
      dedup_.clear();
      for (NodeId f : fanins) {
        if (std::find(dedup_.begin(), dedup_.end(), f) == dedup_.end())
          dedup_.push_back(f);
      }
      const bool is_and = n.type == GateType::And || n.type == GateType::Nand;
      PairSet acc = val_[dedup_[0]];
      for (std::size_t i = 1; i < dedup_.size(); ++i)
        acc = combine(acc, val_[dedup_[i]], is_and ? op_and : op_or);
      const bool negate = n.type == GateType::Nand || n.type == GateType::Nor;
      return negate ? invert(acc) : acc;
    }
    case GateType::Xor:
    case GateType::Xnor: {
      // Parity cancellation: a fanin wired in an even number of times
      // contributes nothing (XOR(x, x) = 0) — this is the Fig. 5 XOR
      // reconvergence the structural analysis cannot see through.
      dedup_.clear();
      for (NodeId f : fanins) {
        auto it = std::find(dedup_.begin(), dedup_.end(), f);
        if (it == dedup_.end())
          dedup_.push_back(f);
        else
          dedup_.erase(it);
      }
      PairSet acc = pair_00;  // XOR of zero operands
      for (NodeId f : dedup_) acc = combine(acc, val_[f], op_xor);
      return n.type == GateType::Xnor ? invert(acc) : acc;
    }
    case GateType::Mux: {
      const PairSet s = val_[fanins[0]];
      // Both data inputs on the same node: the select cannot matter —
      // the output *is* that node, whatever the (possibly differing)
      // select evaluates to. Enumerating the product instead would pick
      // in0 and in1 independently and manufacture a spurious difference.
      if (fanins[1] == fanins[2]) return val_[fanins[1]];
      const PairSet a = val_[fanins[1]];
      const PairSet b = val_[fanins[2]];
      PairSet r = 0;
      for (int i = 0; i < 4; ++i) {
        if (((s >> i) & 1) == 0) continue;
        for (int j = 0; j < 4; ++j) {
          if (((a >> j) & 1) == 0) continue;
          for (int k = 0; k < 4; ++k) {
            if (((b >> k) & 1) == 0) continue;
            const int v0 = ((i >> 1) & 1) ? ((k >> 1) & 1) : ((j >> 1) & 1);
            const int v1 = (i & 1) ? (k & 1) : (j & 1);
            r |= static_cast<PairSet>(1u << (v0 * 2 + v1));
          }
        }
      }
      return r;
    }
    default:
      // Leaves (Input/Const/FF) never appear in Cone::gates; anything
      // unexpected degrades to "no information", which is sound.
      return pair_top;
  }
}

bool TernaryEvaluator::proves_independent(const Cone& cone,
                                          std::size_t leaf_idx) {
  for (NodeId leaf : cone.leaves) {
    const GateType t = nl_.node(leaf).type;
    if (t == GateType::Const0)
      val_[leaf] = pair_00;
    else if (t == GateType::Const1)
      val_[leaf] = pair_11;
    else
      val_[leaf] = pair_equal;
  }
  val_[cone.leaves[leaf_idx]] = pair_diff;
  for (NodeId g : cone.gates) val_[g] = eval_gate(g);
  // A degenerate cone (root is itself the tested leaf) keeps pair_diff
  // at the root and is correctly reported as not-proven.
  return pair_proves_equal(val_[cone.root]);
}

}  // namespace rsnsec::flow
