#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "rsn/access.hpp"
#include "rsn/rsn.hpp"
#include "security/hybrid.hpp"
#include "security/pure.hpp"
#include "security/spec.hpp"
#include "util/thread_pool.hpp"

namespace rsnsec::security {

/// Incremental violation state of the hybrid analyzer over one evolving
/// network (the resolution loop's delta engine).
///
/// The index materializes, once, everything HybridAnalyzer recomputes
/// from scratch per query: the inter-segment chains of every register,
/// the node-level RSN edges they induce, the token-propagation fixpoint,
/// and the per-node violating-pair counts. It also keeps a *support
/// forest* of the fixpoint: for every held (node, token) pair, the
/// predecessor that first delivered the token in a breadth-first
/// propagation from the token's seeds, its depth, and its preorder
/// interval in that token's tree.
///
/// Structural edits only invalidate the chains of *dirty* registers
/// (those whose mux-fanout region a changed connection touches) and the
/// pairs whose support the edit may break. A trial redoes the dirty
/// registers' chain walks for their target registers only; commit
/// rebuilds their chains with connections, which find_violation's
/// witnesses read. A pair is a *broken root* when
/// its forest parent fed it over an inter-segment edge the trial removes
/// entirely. From the roots, a walk in nondecreasing depth keeps a pair
/// when some trial predecessor holds the token and is provably still
/// supported (kept earlier in the walk, unvisited and shallower, or
/// outside every root's subtree); otherwise it resets the pair and
/// visits the pair's forest children. Every pair not reset keeps a
/// support path of pairs not reset, so the committed values minus the
/// reset tokens lie below the trial's least fixpoint. Only nodes with a
/// reset token are re-solved: they pull once from all trial predecessors,
/// and token *gains* (regained tokens, added edges) then propagate
/// monotonically, lazily pulling grown nodes into the overlay. The
/// chaotic iteration converges exactly to the trial's least fixpoint —
/// bit-identical to a from-scratch propagation, for any evaluation
/// order. This is what makes resolution produce the same change logs,
/// stats and networks as recomputing every query from scratch (the
/// oracle in tests/oracle).
///
/// eval_trial is const and touches only caller-owned scratch, so
/// independent candidate cuts are evaluated concurrently (one scratch
/// per trial slot); commit folds an applied change into the committed
/// state, rebuilds the support forest and re-indexes, in place, the
/// committed view (network, fanout index, rank) the selection's trials
/// and cuts read.
class HybridViolationIndex {
 public:
  /// Builds the full index for `network` (one "index rebuild").
  HybridViolationIndex(const HybridAnalyzer& analyzer,
                       const rsn::Rsn& network);
  /// The committed in-edges point into the index's own chains.
  HybridViolationIndex(const HybridViolationIndex&) = delete;
  HybridViolationIndex& operator=(const HybridViolationIndex&) = delete;

  /// Committed violating-pair count (== analyzer.count_violating_pairs
  /// of the committed network).
  std::size_t pairs() const { return pairs_; }

  /// Committed violating-register count (== count_violating_registers).
  std::size_t violating_registers() const;

  /// The committed network with its fanout index and topological rank.
  const rsn::CommittedView& view() const { return view_; }

  /// Reusable buffers of one trial evaluation. Sized lazily; reuse one
  /// instance across many eval_trial calls on the same thread: once its
  /// buffers have grown to a selection's trials, eval_trial allocates
  /// nothing. Never share an instance between threads.
  struct Scratch {
    std::vector<TokenSet> state;
    /// Per overlay node, the tokens the support walk reset there (empty
    /// for nodes pulled in by growth): its start is the committed value
    /// minus these.
    std::vector<TokenSet> lost;
    std::vector<std::uint32_t> affected_mark;
    std::vector<std::uint32_t> queued_mark;
    std::vector<std::uint32_t> dirty_from_mark;
    /// Support-walk marks per (token, node) pair, token-major like the
    /// forest: visited (queued by the walk) and kept.
    std::vector<std::uint32_t> walk_mark;
    std::vector<std::uint32_t> kept_mark;
    /// Element-level marks (the node-level marks above are indexed by
    /// propagation node): changed consumers, and the visited sets of the
    /// backward chain walks under the committed / trial structure.
    std::vector<std::uint32_t> changed_mark;
    std::vector<std::uint32_t> vis_old_mark;
    std::vector<std::uint32_t> vis_new_mark;
    std::uint32_t epoch = 0;
    std::vector<std::size_t> affected;
    std::vector<std::size_t> worklist;
    /// Consumers whose input lists the trial changed, ascending.
    std::vector<rsn::ElemId> changed;
    std::vector<rsn::ElemId> endpoints;
    std::vector<rsn::ElemId> chain_stack;
    /// Trial-only fanout entries, (source, (consumer, port)) sorted (by
    /// source, then in FanoutIndex order); patched over the committed
    /// fanout.
    std::vector<std::pair<rsn::ElemId, std::pair<rsn::ElemId, std::size_t>>>
        fanout_adds;
    std::vector<std::pair<rsn::ElemId, std::size_t>> fanout_buf;
    std::vector<rsn::ElemId> dirty_regs;
    /// The dirty registers' chain walks (targets only).
    HybridAnalyzer::ChainWalk chains;
    /// Node-level (from, to) inter-segment edges of the dirty registers:
    /// committed on the left, trial on the right.
    std::vector<std::pair<std::size_t, std::size_t>> old_edges;
    std::vector<std::pair<std::size_t, std::size_t>> new_edges;
    std::vector<std::pair<std::size_t, std::size_t>> sorted_old;
    std::vector<std::pair<std::size_t, std::size_t>> sorted_new;
    /// Distinct edges the trial removes entirely / adds, (from, to).
    std::vector<std::pair<std::size_t, std::size_t>> edge_removed;
    std::vector<std::pair<std::size_t, std::size_t>> edge_added;
    /// Distinct rebuilt edges as (to, from), sorted: the trial
    /// inter-segment in-edges of dirty sources.
    std::vector<std::pair<std::size_t, std::size_t>> new_in;
    /// Support walk: the broken roots (depth, token, node), sorted; their
    /// subtrees as disjoint (token, tin, end) preorder intervals, sorted;
    /// the pairs (token, node) of the depth being decided and of the next.
    std::vector<std::array<std::uint32_t, 3>> roots;
    std::vector<std::array<std::uint32_t, 3>> root_intervals;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> level;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> next_level;
    /// Pairs the last query's walk visited.
    std::size_t walked = 0;
  };

  /// Violating-pair count of `trial`, computed as a delta query against
  /// the committed state. `trial` is a copy of the committed network (or
  /// of an equal one), fresh or restore()d, changed since only by
  /// structural edits: its edit record lists the changed input lists, or
  /// has overflowed and every list is compared. Thread-safe (const; all
  /// mutation in `scratch`).
  std::size_t eval_trial(const rsn::Rsn& trial, Scratch& scratch) const;

  /// Folds the applied change into the committed state: `network` is the
  /// committed network after structural edits (its input lists are all
  /// compared with the committed ones; its edit record is not read).
  /// Incremental (same delta machinery as eval_trial, then written back);
  /// resets view() to `network` and rebuilds the dirty registers' chains
  /// from it.
  void commit(const rsn::Rsn& network);

  /// HybridAnalyzer::find_violation of the committed network, answered
  /// from the committed fixpoint instead of a fresh propagation. The
  /// witnessing path and cut candidates are bit-identical to the from-
  /// scratch result (same tracing code, same edge order, same state).
  /// Reuses the index's search buffers, so not thread-safe (like commit).
  std::optional<HybridAnalyzer::Violation> find_violation() const;

 private:
  const HybridAnalyzer& a_;
  /// Committed network (trial diffs run against it), its element-level
  /// fanout (trial fanout is this plus the patch derived from the trial's
  /// changed consumers) and its rank; reset in place by every commit.
  rsn::CommittedView view_;
  std::vector<TokenSet> state_;          ///< committed fixpoint, per node
  std::vector<std::size_t> node_pairs_;  ///< violating pairs per node
  std::size_t pairs_ = 0;
  /// Inter-segment chains per source register, with their connections
  /// (indexed by ElemId; empty for non-registers), for find_violation's
  /// witnesses. Concatenated in registers() order these equal
  /// HybridAnalyzer::build_rsn_edges of the committed network. Trials
  /// read only their endpoints.
  std::vector<std::vector<HybridAnalyzer::RsnEdge>> reg_chains_;
  /// Node-level RSN successors induced by the chains: one entry per
  /// chain, and a source register has one chain per register it reaches.
  std::vector<std::vector<std::size_t>> rsn_succ_;
  /// The inter-segment in-edges of reg_chains_ (rebuilt per commit), in
  /// trace_violation's search order. The fixed edges in both directions
  /// are the analyzer's own (HybridAnalyzer::fixed_succ_, fixed_pred_).
  HybridAnalyzer::Predecessors preds_;
  /// Support forest of state_, token-major: pair (token k, node n) at
  /// index k * num_nodes + n. Parent is the predecessor that first
  /// delivered k to n (no_parent for seeds and for nodes without k);
  /// [tin, end) is n's subtree in k's preorder, and
  /// sup_order_[k * num_nodes + tin] = n, so n's children are the nodes
  /// at tin + 1, then at each child's end, up to n's end.
  static constexpr std::uint32_t no_parent = 0xffffffffu;
  std::vector<std::uint32_t> sup_parent_;
  std::vector<std::uint32_t> sup_depth_;
  std::vector<std::uint32_t> sup_tin_;
  std::vector<std::uint32_t> sup_end_;
  std::vector<std::uint32_t> sup_order_;
  Scratch commit_scratch_;
  /// find_violation's BFS buffers, kept across searches.
  mutable HybridAnalyzer::TraceScratch trace_scratch_;

  std::size_t node_pair_count(std::size_t node, const TokenSet& st) const;
  std::size_t from_node(rsn::ElemId reg) const;
  /// Rebuilds preds_'s in-edges from reg_chains_ (registers() order).
  void index_in_edges();
  /// Rebuilds the support forest from state_: one breadth-first pass per
  /// token from its seeds over the committed graph.
  void build_support_forest();
  /// Merged trial fanout of `x` into s.fanout_buf: committed entries of
  /// unchanged consumers + the trial-only patch, in FanoutIndex order.
  const std::vector<std::pair<rsn::ElemId, std::size_t>>& trial_fanout_of(
      rsn::ElemId x, Scratch& s) const;
  /// Calls fn(p) for the trial predecessors p of node `n` (fixed ones,
  /// committed in-edges from clean sources, rebuilt in-edges) until fn
  /// returns true; returns whether it did.
  template <typename Fn>
  bool any_trial_pred(std::size_t n, const Scratch& s, Fn&& fn) const;
  /// The support walk from the broken roots of s.edge_removed: fills the
  /// region (s.affected, each node's reset tokens in s.lost).
  void support_walk(Scratch& s) const;
  /// Runs the delta analysis of `trial`, whose changed consumers are in
  /// s.changed, against the committed state into `s`: dirty registers,
  /// their trial edges, affected set (s.affected, valid s.state entries)
  /// and the resulting pair-count delta (returned added to pairs_).
  std::size_t delta_analysis(const rsn::Rsn& trial, Scratch& s) const;
};

/// Incremental violation state of the pure-path analyzer: the committed
/// element-granular token propagation plus per-register violating-pair
/// contributions, maintained under structural deltas. A query re-evaluates
/// from the elements whose input lists changed, in committed-rank order,
/// and goes on past an element only if its value changed: everything else
/// keeps its committed attribute set (the propagation is a function over
/// a DAG). An element evaluated before one of its inputs settled is
/// queued again when that input changes, so the result is exact for any
/// acyclic trial, and in committed-rank order each element is evaluated
/// once. Same determinism contract as HybridViolationIndex.
class PureViolationIndex {
 public:
  PureViolationIndex(const PureScanAnalyzer& analyzer,
                     const rsn::Rsn& network);

  std::size_t pairs() const { return pairs_; }
  std::size_t violating_registers() const;

  /// See HybridViolationIndex::view.
  const rsn::CommittedView& view() const { return view_; }

  /// See HybridViolationIndex::Scratch.
  struct Scratch {
    /// Values of the elements a query touched (seeded with the committed
    /// value, empty for elements only the trial has).
    std::vector<TokenSet> state;
    std::vector<std::uint32_t> touched_mark;
    std::vector<std::uint32_t> queued_mark;
    std::vector<std::uint32_t> changed_mark;
    std::uint32_t epoch = 0;
    /// Consumers whose input lists the trial changed, ascending.
    std::vector<rsn::ElemId> changed;
    /// Every element queued at least once (the pair delta's registers).
    std::vector<rsn::ElemId> touched;
    /// Min-heap of (committed-rank key, element) awaiting evaluation.
    std::vector<std::pair<std::uint64_t, rsn::ElemId>> queue;
    /// Evaluations the last query made (re-queued elements count again).
    std::size_t evaluations = 0;
  };

  /// See HybridViolationIndex::eval_trial.
  std::size_t eval_trial(const rsn::Rsn& trial, Scratch& scratch) const;
  /// See HybridViolationIndex::commit.
  void commit(const rsn::Rsn& network);

  /// PureScanAnalyzer::find_violation of the committed network, answered
  /// from the committed propagation (bit-identical witness).
  std::optional<PureViolation> find_violation() const;

 private:
  const PureScanAnalyzer& a_;
  rsn::CommittedView view_;             ///< committed network
  std::vector<TokenSet> state_;         ///< out[] per element
  std::vector<std::size_t> reg_pairs_;  ///< per element (registers only)
  std::size_t pairs_ = 0;
  Scratch commit_scratch_;

  std::size_t register_pair_count(const rsn::Rsn& net, rsn::ElemId reg,
                                  const TokenSet& incoming) const;
  /// Re-evaluates `trial` from its changed consumers (s.changed) into `s`
  /// and returns its violating-pair count.
  std::size_t delta_analysis(const rsn::Rsn& trial, Scratch& s) const;
};

/// The detect-and-resolve loop the pure and hybrid stages share (Fig. 2,
/// steps 3 and 4), over an `Index` (PureViolationIndex or
/// HybridViolationIndex) built from `analyzer`: find a violation,
/// trial-evaluate every cut candidate on the pool, apply the best cut or,
/// failing that, isolate a register, commit, and repeat until secure.
/// `candidates(v)` lists the cut candidates of violation `v`;
/// `isolated(v)` names its fallback register. `stage` ("pure", "hybrid")
/// names the spans, the iteration counter and the change notes: one
/// `<stage>.resolve` span per run, and per iteration one
/// `<stage>.find_violation`, `<stage>.select` and `<stage>.commit` (the
/// applied change, folded into the index).
template <typename Stats, typename Index, typename Analyzer,
          typename Candidates, typename Isolated>
Stats resolve_with_index(const char* stage, const Analyzer& analyzer,
                         rsn::Rsn& network, std::vector<AppliedChange>* log,
                         ResolutionPolicy policy,
                         const ChangeCallback& on_change,
                         const ResolveOptions& resolve_options,
                         Candidates&& candidates, Isolated&& isolated) {
  obs::TraceSession* trace = obs::TraceSession::active();
  const std::string prefix(stage);
  obs::Span resolve_span(trace, prefix + ".resolve");
  const std::string find_span_name = prefix + ".find_violation";
  const std::string select_span_name = prefix + ".select";
  const std::string commit_span_name = prefix + ".commit";
  Stats stats;

  Index index(analyzer, network);
  // The run's trial workspaces (see Rewirer::TrialSlots): each slot's
  // counter owns one Index::Scratch, and a slot re-syncs its working copy
  // after a commit the first time a selection claims it.
  Rewirer::TrialSlots slots(
      index.view(), [&index]() -> Rewirer::TrialCounter {
        auto scratch = std::make_shared<typename Index::Scratch>();
        return [&index, scratch](const rsn::Rsn& n) {
          return index.eval_trial(n, *scratch);
        };
      });
  Rewirer::Scratch cut_scratch;
  // ResolveOptions::pool (shared, serve scheduler) wins over a private
  // per-resolve pool sized by num_threads.
  ThreadPool* pool = resolve_options.pool;
  std::optional<ThreadPool> owned_pool;
  if (pool == nullptr) {
    owned_pool.emplace(
        ThreadPool::resolve_num_threads(resolve_options.num_threads));
    pool = &*owned_pool;
  }
  stats.initial_violating_registers = index.violating_registers();
  stats.initial_violating_pairs = index.pairs();
  // Applying a cut re-runs the deterministic cut_connection on the real
  // network, so the selected trial's residual count IS the new current
  // count; only the fallback isolation needs a recount.
  std::size_t cur_pairs = stats.initial_violating_pairs;

  std::size_t max_iters = 8 * network.registers().size() + 64;
  std::size_t iter = 0;
  for (;;) {
    obs::Span find_span(trace, find_span_name);
    auto v = index.find_violation();
    find_span.close();
    if (!v) break;
    if (++iter > max_iters)
      throw std::runtime_error(
          std::string(stage) +
          " resolution did not converge (iteration cap exceeded)");
    if (trace != nullptr)
      trace->counter(std::string("resolve.") + stage + "_iterations").add(1);

    // Each cut is evaluated with both reconnection variants ([17]-style
    // candidate generation); the policy decides how exhaustively. Trials
    // and the applied cut read the index's committed view, which equals
    // `network` until the cut is applied.
    obs::Span select_span(trace, select_span_name);
    Rewirer::Selection sel = Rewirer::select_cut_parallel(
        index.view(), candidates(*v), slots, cur_pairs, policy, *pool);
    select_span.close();

    obs::Span commit_span(trace, commit_span_name);
    AppliedChange change;
    if (sel.found) {
      change.kind = AppliedChange::Kind::CutConnection;
      change.cut = sel.cut;
      change.rewire_operations = Rewirer::cut_connection(
          network, index.view(), sel.cut, sel.reconnect_hint, cut_scratch);
      change.note = std::string(stage) + ": cut " +
                    network.elem(sel.cut.from).name + " -> " +
                    network.elem(sel.cut.to).name;
      cur_pairs = sel.residual_pairs;
      index.commit(network);
    } else {
      rsn::ElemId iso = isolated(*v);
      change.kind = AppliedChange::Kind::IsolateRegister;
      change.isolated = iso;
      change.rewire_operations =
          Rewirer::isolate_register_output(network, iso);
      change.note = std::string(stage) + ": isolate " + network.elem(iso).name;
      ++stats.fallback_isolations;
      index.commit(network);
      cur_pairs = index.pairs();
    }
    commit_span.close();
    ++stats.applied_changes;
    stats.rewire_operations += change.rewire_operations;
    if (trace != nullptr) {
      trace->counter("rewire.changes_applied").add(1);
      trace->counter("rewire.operations").add(change.rewire_operations);
    }
    if (on_change) on_change(network, change);
    if (log) log->push_back(std::move(change));
  }
  return stats;
}

}  // namespace rsnsec::security
