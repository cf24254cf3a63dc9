#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "netlist/netlist.hpp"
#include "sat/solver.hpp"
#include "util/epoch_map.hpp"
#include "util/word256.hpp"

namespace rsnsec::netlist {

/// Scratch state for extracting and classifying the cones of one netlist,
/// reused from cone to cone so that a cone costs its own size, not the
/// netlist's. The NodeId-indexed buffers are epoch-stamped (EpochSet,
/// EpochMap), so starting a pass over them is O(1), and the solver
/// resets in place, keeping its capacity. Buffers are sized on first use.
///
/// A workspace serves one cone at a time, and every pass resets or
/// overwrites what it reads first, so results never depend on what the
/// workspace did before. Not thread-safe: concurrent callers hold one
/// workspace each (dep::DependencyAnalyzer holds one for the one-cycle
/// phase of a run()).
class ConeWorkspace {
 public:
  explicit ConeWorkspace(const Netlist& nl) : nl_(nl) {}
  ConeWorkspace(const ConeWorkspace&) = delete;
  ConeWorkspace& operator=(const ConeWorkspace&) = delete;

  const Netlist& netlist() const { return nl_; }

  /// Writes the combinational cone of the signal at `net` into `out`,
  /// reusing out's buffers: all gates between `net` and the nearest
  /// flip-flop, input or constant leaves, in topological (leaves-first)
  /// order. If `net` is itself such a leaf, the cone is degenerate: no
  /// gates, leaves == {net}. This is the one extraction implementation;
  /// Netlist::extract_signal_cone delegates to it.
  void extract_signal_cone(NodeId net, Cone& out);

  /// Writes the next-state cone of flip-flop `ff` (the cone of its data
  /// input) into `out`; an unconnected flip-flop yields an empty cone.
  void extract_next_state_cone(NodeId ff, Cone& out);

  // Buffers lent to one cone pass at a time.

  /// NodeId -> cone-local code (the dependency engine's cone signatures).
  EpochMap<std::uint32_t> node_code;
  /// 256-pattern simulation: the prefilter's per-leaf patterns, and the
  /// NodeId-indexed values (eval_cone's scratch) that the prefilter and
  /// ConeDependenceChecker's model rotation share.
  std::vector<Word256> leaf_values;
  std::vector<Word256> node_values;
  /// NodeId -> literal of the two copies of ConeDependenceChecker's CNF.
  EpochMap<sat::Lit> lit_a;
  EpochMap<sat::Lit> lit_b;
  /// Solver of the cone's CNF; its user reset()s it first.
  sat::Solver solver;

 private:
  const Netlist& nl_;
  EpochSet<> marks_;                                   ///< visited nodes
  std::vector<std::pair<NodeId, std::size_t>> stack_;  ///< node, next fanin
};

}  // namespace rsnsec::netlist
