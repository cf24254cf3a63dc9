#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "rsn/access.hpp"
#include "rsn/rsn.hpp"
#include "security/hybrid.hpp"
#include "security/pure.hpp"
#include "security/spec.hpp"

namespace rsnsec::security {

/// Incremental violation state of the hybrid analyzer over one evolving
/// network (the resolution loop's delta engine).
///
/// The index materializes, once, everything HybridAnalyzer recomputes
/// from scratch per query: the inter-segment chains of every register,
/// the node-level RSN edges they induce, the token-propagation fixpoint,
/// and the per-node violating-pair counts. Structural edits then only
/// invalidate the chains of *dirty* registers (those whose mux-fanout
/// region a changed connection touches) and the fixpoint values of a
/// small re-solve *region*: the forward closure, in the edited graph, of
/// the removed inter-segment edges' heads, pruned at nodes whose
/// committed value is disjoint from everything a removed edge carried
/// (such nodes can only gain tokens, never lose them — and any support
/// path of a lost token consists of nodes all carrying it, so every node
/// that can actually lose one is inside the region). Region nodes are
/// reset and re-solved against committed boundary values; token *gains*
/// (from added edges or grown region values) propagate monotonically
/// beyond the region, lazily pulling grown nodes into the overlay.
/// Because the start assignment is pointwise below the edited network's
/// least fixpoint and every retained committed token keeps an untouched
/// support path, the chaotic iteration converges exactly to that least
/// fixpoint — bit-identical to a from-scratch propagation, for any
/// evaluation order. This is what makes resolution produce the same
/// change logs, stats and networks as recomputing every query from
/// scratch (the oracle in tests/oracle).
///
/// eval_trial is const and touches only caller-owned scratch, so
/// independent candidate cuts are evaluated concurrently (one scratch
/// per thread/chunk); commit folds an applied change into the committed
/// state.
class HybridViolationIndex {
 public:
  /// Builds the full index for `network` (one "index rebuild").
  HybridViolationIndex(const HybridAnalyzer& analyzer,
                       const rsn::Rsn& network);

  /// Committed violating-pair count (== analyzer.count_violating_pairs
  /// of the committed network).
  std::size_t pairs() const { return pairs_; }

  /// Committed violating-register count (== count_violating_registers).
  std::size_t violating_registers() const;

  /// Reusable buffers of one trial evaluation. Sized lazily; reuse one
  /// instance across many eval_trial calls on the same thread to avoid
  /// per-trial allocation. Never share an instance between threads.
  struct Scratch {
    std::vector<TokenSet> state;
    std::vector<std::uint32_t> affected_mark;
    std::vector<std::uint32_t> queued_mark;
    std::vector<std::uint32_t> dirty_from_mark;
    /// Nodes whose committed value intersects the trial's possibly-lost
    /// token set (the only nodes whose values can shrink, and the only
    /// boundary predecessors worth pulling at region re-init).
    std::vector<std::uint32_t> holds_lost_mark;
    /// Element-level marks (the node-level marks above are indexed by
    /// propagation node): changed consumers, and the visited sets of the
    /// backward chain walks under the committed / trial structure.
    std::vector<std::uint32_t> changed_mark;
    std::vector<std::uint32_t> vis_old_mark;
    std::vector<std::uint32_t> vis_new_mark;
    std::uint32_t epoch = 0;
    std::vector<std::size_t> affected;
    std::vector<std::size_t> worklist;
    std::vector<rsn::ElemId> endpoints;
    std::vector<rsn::ElemId> chain_stack;
    /// Trial-only fanout entries, (source, (consumer, port)) sorted by
    /// source then FanoutIndex order; patched over the committed fanout.
    std::vector<std::pair<rsn::ElemId, std::pair<rsn::ElemId, std::size_t>>>
        fanout_adds;
    std::vector<std::pair<rsn::ElemId, std::size_t>> fanout_buf;
    std::vector<rsn::ElemId> dirty_regs;
    std::vector<std::vector<HybridAnalyzer::RsnEdge>> dirty_chains;
    /// Node-level (from, to) inter-segment edges of the dirty registers:
    /// committed on the left, trial on the right.
    std::vector<std::pair<std::size_t, std::size_t>> old_edges;
    std::vector<std::pair<std::size_t, std::size_t>> new_edges;
    std::vector<std::pair<std::size_t, std::size_t>> sorted_old;
    std::vector<std::pair<std::size_t, std::size_t>> sorted_new;
    std::vector<std::pair<std::size_t, std::size_t>> edge_removed;
    std::vector<std::pair<std::size_t, std::size_t>> edge_added;
  };

  /// Violating-pair count of `trial`, a network derived from the
  /// committed one by Rewirer edits, computed as a delta query against
  /// the committed state. Thread-safe (const; all mutation in `scratch`).
  std::size_t eval_trial(const rsn::Rsn& trial, Scratch& scratch) const;

  /// Folds the applied change into the committed state: `network` is the
  /// committed network after Rewirer edits. Incremental (same delta
  /// machinery as eval_trial, then written back).
  void commit(const rsn::Rsn& network);

  /// HybridAnalyzer::find_violation of the committed network, answered
  /// from the committed fixpoint instead of a fresh propagation. The
  /// witnessing path and cut candidates are bit-identical to the from-
  /// scratch result (same predecessor construction order, same state).
  std::optional<HybridAnalyzer::Violation> find_violation() const;

 private:
  const HybridAnalyzer& a_;
  rsn::Rsn net_;  ///< committed snapshot (trial diffs run against it)
  std::vector<TokenSet> state_;          ///< committed fixpoint, per node
  std::vector<std::size_t> node_pairs_;  ///< violating pairs per node
  std::size_t pairs_ = 0;
  /// Inter-segment chains per source register (indexed by ElemId; empty
  /// for non-registers). Concatenated in registers() order these equal
  /// HybridAnalyzer::build_rsn_edges of the committed network.
  std::vector<std::vector<HybridAnalyzer::RsnEdge>> reg_chains_;
  /// Node-level RSN adjacency induced by the chains (duplicates kept —
  /// two chains between the same register pair yield two entries; merges
  /// are idempotent so only multiplicity bookkeeping cares).
  std::vector<std::vector<std::size_t>> rsn_succ_;
  std::vector<std::vector<std::size_t>> rsn_pred_;
  /// Static + circuit successors per node, flattened to CSR form (fixed
  /// across rewirings; node n's successors are
  /// fixed_succ_[fixed_succ_off_[n] .. fixed_succ_off_[n+1]]).
  std::vector<std::uint32_t> fixed_succ_off_;
  std::vector<std::uint32_t> fixed_succ_;
  /// Element-level fanout of the committed network; trial fanout is this
  /// plus the patch derived from the trial's changed consumers.
  rsn::FanoutIndex fanout_;
  Scratch commit_scratch_;

  std::size_t node_pair_count(std::size_t node, const TokenSet& st) const;
  std::size_t from_node(rsn::ElemId reg) const;
  /// Merged trial fanout of `x` into s.fanout_buf: committed entries of
  /// unchanged consumers + the trial-only patch, in FanoutIndex order.
  const std::vector<std::pair<rsn::ElemId, std::size_t>>& trial_fanout_of(
      rsn::ElemId x, Scratch& s) const;
  /// Runs the delta analysis of `trial` against the committed state into
  /// `s`: dirty registers, rebuilt chains, affected set (s.affected,
  /// valid s.state entries) and the resulting pair-count delta (returned
  /// added to pairs_).
  std::size_t delta_analysis(const rsn::Rsn& trial, Scratch& s) const;
};

/// Incremental violation state of the pure-path analyzer: the committed
/// element-granular token propagation plus per-register violating-pair
/// contributions, maintained under structural deltas. An edit invalidates
/// exactly the elements whose input lists changed and their forward
/// closure; everything upstream keeps its committed attribute set (the
/// propagation is a function over a DAG, so the restriction argument is
/// immediate). Same determinism contract as HybridViolationIndex.
class PureViolationIndex {
 public:
  PureViolationIndex(const PureScanAnalyzer& analyzer,
                     const rsn::Rsn& network);

  std::size_t pairs() const { return pairs_; }
  std::size_t violating_registers() const;

  /// See HybridViolationIndex::Scratch.
  struct Scratch {
    std::vector<TokenSet> state;
    std::vector<std::uint32_t> affected_mark;
    std::uint32_t epoch = 0;
    std::vector<std::size_t> affected;
    std::vector<rsn::ElemId> stack;
    /// Affected-subgraph Kahn state: in-degrees and successor lists are
    /// written (and cleared) only for affected elements, so one trial's
    /// cost is proportional to the affected region, not the network.
    std::vector<std::uint32_t> pending;
    std::vector<std::vector<rsn::ElemId>> local_succ;
    std::vector<rsn::ElemId> ready;
  };

  std::size_t eval_trial(const rsn::Rsn& trial, Scratch& scratch) const;
  void commit(const rsn::Rsn& network);

  /// PureScanAnalyzer::find_violation of the committed network, answered
  /// from the committed propagation (bit-identical witness).
  std::optional<PureViolation> find_violation() const;

 private:
  const PureScanAnalyzer& a_;
  rsn::Rsn net_;                        ///< committed snapshot
  std::vector<TokenSet> state_;         ///< out[] per element
  std::vector<std::size_t> reg_pairs_;  ///< per element (registers only)
  std::size_t pairs_ = 0;
  /// Committed element fanout (consumers per element, duplicates per
  /// port). Used only for the affected-set closure, where edges that a
  /// trial removed merely over-approximate (any trial-added edge has a
  /// changed consumer, which is a closure seed already).
  std::vector<std::vector<rsn::ElemId>> fanout_;
  Scratch commit_scratch_;

  std::size_t register_pair_count(const rsn::Rsn& net, rsn::ElemId reg,
                                  const TokenSet& incoming) const;
  std::size_t delta_analysis(const rsn::Rsn& trial, Scratch& s) const;
};

}  // namespace rsnsec::security
