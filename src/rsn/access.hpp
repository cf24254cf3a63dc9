#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "rsn/rsn.hpp"

namespace rsnsec::rsn {

/// A concrete plan to access one scan register: the mux configuration
/// that puts it on the active scan path, and the shift offsets needed to
/// read its captured contents at the scan-out port or to position
/// scan-in data into it before an update.
struct AccessPlan {
  ElemId target = no_elem;
  /// Mux settings establishing the path (muxes not listed are don't-care).
  std::vector<std::pair<ElemId, std::size_t>> mux_settings;
  /// The resulting active path (scan-in ... scan-out).
  std::vector<ElemId> path;
  /// Total scan flip-flops on the active path.
  std::size_t chain_length = 0;
  /// Position (0-based, from scan-in) of the target's first flip-flop in
  /// the active chain.
  std::size_t position = 0;
  /// Width of the target register.
  std::size_t width = 0;

  /// Shift cycles after capture until the target's flip-flop `i` appears
  /// at the scan-out port.
  std::size_t read_shifts(std::size_t i = 0) const {
    return chain_length - position - i;
  }
  /// Shift cycles needed to move a bit inserted at scan-in into the
  /// target's flip-flop `i` (insert the bit, then shift the remainder).
  std::size_t write_shifts(std::size_t i = 0) const {
    return position + i + 1;
  }
};

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

/// Plans scan access to registers of an RSN (the pattern-retargeting
/// core of tools like eda1687 [20], reduced to path planning).
///
/// The paper's method guarantees that the transformed, secure network
/// still contains every scan register, each one accessible. Checking that
/// guarantee needs no plans: Rsn::scan_access answers it for all
/// registers in one linear sweep. plan() is for callers that need the
/// concrete mux configuration and shift offsets of one register.
class AccessPlanner {
 public:
  explicit AccessPlanner(const Rsn& network) : net_(network) {}

  /// Computes an access plan for `target`, or nullopt if no mux
  /// configuration puts it on a complete scan path. Does not modify the
  /// network.
  std::optional<AccessPlan> plan(ElemId target) const;

  /// Applies the plan's mux settings to `network` (which must have the
  /// same topology this planner was built over).
  static void apply(const AccessPlan& plan, Rsn& network);

  /// True if every register of the network is accessible
  /// (Rsn::scan_access).
  bool all_registers_accessible() const;

 private:
  const Rsn& net_;

  /// Backward chain of elements from `to` to `from` following input
  /// edges, or empty if none exists. The result is ordered from `from`
  /// to `to` (inclusive).
  std::vector<ElemId> find_chain(ElemId from, ElemId to) const;
};

}  // namespace rsnsec::rsn
