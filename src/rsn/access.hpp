#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "rsn/pathfind.hpp"
#include "rsn/rsn.hpp"

namespace rsnsec::rsn {

/// Materialized fanout adjacency of an RSN: for every element, the
/// (consumer, port) pairs it drives. Rsn::fanouts(id) scans all elements
/// per call, which is fine for one-off queries but quadratic when a
/// traversal needs the fanout of many elements (chain enumeration in the
/// security analysis, the violation index's delta maintenance). The index
/// is a snapshot — rebuild it after structural edits.
///
/// Entries are ordered by (consumer id ascending, port ascending); code
/// that derives deterministic structures from fanout order (the per-
/// register chain DFS of the hybrid analyzer) relies on this.
class FanoutIndex {
 public:
  FanoutIndex() = default;
  explicit FanoutIndex(const Rsn& network) { rebuild(network); }

  /// Re-indexes `network`, reusing the per-element lists' storage.
  void rebuild(const Rsn& network);

  const std::vector<std::pair<ElemId, std::size_t>>& of(ElemId id) const {
    return fanout_[static_cast<std::size_t>(id)];
  }

 private:
  std::vector<std::vector<std::pair<ElemId, std::size_t>>> fanout_;
};

/// One committed network together with what resolution trials read from
/// it: its fanout index and a topological rank. Each violation index
/// keeps one for its lifetime and reset()s it after every applied change,
/// and the rewirer's trials walk it for their pre-cut fanout counts and
/// predecessor/successor sets instead of scanning the edited copy.
class CommittedView {
 public:
  /// Snapshots `network` (a copy: later edits of `network` do not show).
  explicit CommittedView(const Rsn& network) : net_(network) { reindex(); }

  /// Snapshots `network` in place: copy-assigns it and re-indexes its
  /// fanout and rank in the buffers of the previous snapshot, then bumps
  /// generation().
  void reset(const Rsn& network);

  /// Counts the snapshots this view has taken (1 after construction).
  /// Working copies of network() record it to notice that they are stale.
  std::uint64_t generation() const { return generation_; }

  const Rsn& network() const { return net_; }
  const FanoutIndex& fanout() const { return fanout_; }

  /// False if the network has a cycle; then rank() must not be called.
  bool ranked() const { return !rank_.empty(); }

  /// Position of `id` in one topological order of the network: every
  /// driver ranks below its consumers, scan-in ranks first and scan-out
  /// (when it drives nothing) last. Distinct elements rank differently.
  std::uint32_t rank(ElemId id) const {
    return rank_[static_cast<std::size_t>(id)];
  }

 private:
  Rsn net_;
  FanoutIndex fanout_;
  std::vector<std::uint32_t> rank_;
  std::uint64_t generation_ = 0;
  /// Kahn's algorithm's buffers, kept for the next reset().
  std::vector<std::uint32_t> pending_;
  std::vector<ElemId> ready_;

  /// Indexes net_'s fanout and rank and bumps the generation.
  void reindex();
};

/// Plans scan access to one register: find_path_through with the
/// register as the only waypoint, over a fanout index built once. Whether
/// every register is accessible is Rsn::scan_access, one linear sweep for
/// the whole network. Only the benchmark harness's replica of `rsnsec
/// info` (perfbench/harness.cpp) still calls plan(), once per register;
/// the benchmark change that aligns that replica with Rsn::scan_access
/// deletes this class.
class AccessPlanner {
 public:
  /// Snapshots the topology of `network`, which must outlive the planner.
  explicit AccessPlanner(const Rsn& network)
      : net_(network), fanout_(network) {}

  /// The plan that puts `target` on a complete scan path, or nullopt if
  /// `target` is not a register or no mux configuration does.
  std::optional<PathPlan> plan(ElemId target) const;

 private:
  const Rsn& net_;
  FanoutIndex fanout_;
};

}  // namespace rsnsec::rsn
