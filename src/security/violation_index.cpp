#include "security/violation_index.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <functional>

#include "obs/trace.hpp"
#include "rsn/access.hpp"

namespace rsnsec::security {

using rsn::ElemId;
using rsn::ElemKind;
using rsn::Rsn;

namespace {

/// Backward mux-walk under `net`: appends every register that can reach
/// `x` through mux-only element chains (the sources whose chain DFS may
/// traverse x), including x itself if it is a register. Ports terminate
/// the walk — chains neither start nor pass through them. `visited`
/// entries equal to `epoch` are skipped (marks persist across the
/// endpoints of one delta query).
void collect_chain_sources(const Rsn& net, ElemId x,
                           std::vector<std::uint32_t>& visited,
                           std::uint32_t epoch, std::vector<ElemId>& stack,
                           std::vector<ElemId>& dirty) {
  if (x == rsn::no_elem || x >= net.num_elements()) return;
  stack.clear();
  stack.push_back(x);
  while (!stack.empty()) {
    ElemId cur = stack.back();
    stack.pop_back();
    if (visited[cur] == epoch) continue;
    visited[cur] = epoch;
    const rsn::Element& e = net.elem(cur);
    if (e.kind == ElemKind::Register) {
      dirty.push_back(cur);
      continue;
    }
    if (e.kind != ElemKind::Mux) continue;
    for (ElemId in : e.inputs)
      if (in != rsn::no_elem) stack.push_back(in);
  }
}

void count_delta_query() {
  if (obs::TraceSession* trace = obs::TraceSession::active())
    trace->counter("resolve.delta_queries").add(1);
}

/// Writes the consumers whose input lists differ between the committed
/// network `base` and `trial`, plus the elements only `trial` has, to
/// `out`, ascending. With `use_record`, `trial`'s edit record (relative to
/// `base`, see eval_trial's contract) names the candidates, unless it has
/// overflowed; otherwise every input list is compared.
void changed_consumers(const Rsn& base, const Rsn& trial, bool use_record,
                       std::vector<ElemId>& out) {
  assert(trial.num_elements() >= base.num_elements());
  out.clear();
  const std::size_t n_base = base.num_elements();
  const std::vector<ElemId>* edited = use_record ? trial.edited() : nullptr;
  auto differs = [&](ElemId id) {
    return trial.elem(id).inputs != base.elem(id).inputs;
  };
  if (edited != nullptr) {
    for (ElemId id : *edited)
      if (id < n_base && differs(id)) out.push_back(id);
    std::sort(out.begin(), out.end());
  } else {
    for (ElemId id = 0; id < n_base; ++id)
      if (differs(id)) out.push_back(id);
  }
  for (auto id = static_cast<ElemId>(n_base); id < trial.num_elements(); ++id)
    out.push_back(id);
}

void count_index_rebuild() {
  if (obs::TraceSession* trace = obs::TraceSession::active())
    trace->counter("resolve.index_rebuilds").add(1);
}

}  // namespace

// ---------------------------------------------------------------------------
// HybridViolationIndex

HybridViolationIndex::HybridViolationIndex(const HybridAnalyzer& analyzer,
                                           const Rsn& network)
    : a_(analyzer), view_(network) {
  count_index_rebuild();
  const Rsn& net = view_.network();
  const std::size_t nodes = a_.owner_module_.size();
  reg_chains_.assign(net.num_elements(), {});
  rsn_succ_.assign(nodes, {});
  for (ElemId r : net.registers()) {
    HybridAnalyzer::append_register_chains(
        net, HybridAnalyzer::index_fanout(view_.fanout()), r,
        commit_scratch_.chains, reg_chains_[r]);
    for (const HybridAnalyzer::RsnEdge& e : reg_chains_[r])
      rsn_succ_[from_node(e.from_reg)].push_back(a_.scan_node(e.to_reg, 0));
  }
  index_in_edges();
  // The committed fixpoint. run_worklist computes the unique least
  // fixpoint, so this equals what any later from-scratch propagation of
  // the same network produces, bit for bit.
  state_ = a_.run_worklist(rsn_succ_, /*circuit_only=*/false);
  node_pairs_.assign(nodes, 0);
  for (std::size_t n = 0; n < nodes; ++n) {
    node_pairs_[n] = node_pair_count(n, state_[n]);
    pairs_ += node_pairs_[n];
  }
  build_support_forest();
}

void HybridViolationIndex::index_in_edges() {
  const Rsn& net = view_.network();
  a_.index_in_edges(
      net,
      [this, &net](auto&& fn) {
        for (ElemId r : net.registers())
          for (const HybridAnalyzer::RsnEdge& e : reg_chains_[r]) fn(e);
      },
      preds_);
}

void HybridViolationIndex::build_support_forest() {
  obs::Span span(obs::TraceSession::active(), "hybrid.forest");
  const std::size_t nodes = state_.size();
  const std::size_t pairs = nodes * a_.tokens_.num_tokens();
  sup_parent_.assign(pairs, no_parent);
  sup_depth_.assign(pairs, 0);
  sup_tin_.assign(pairs, 0);
  sup_end_.assign(pairs, 0);
  sup_order_.assign(pairs, 0);
  const HybridAnalyzer::Csr& fixed = a_.fixed_succ_;
  std::vector<std::uint32_t> queue;
  std::vector<bool> reached(nodes);
  std::vector<std::uint32_t> slot(nodes);
  for (std::size_t k = 0; k < a_.tokens_.num_tokens(); ++k) {
    std::uint32_t* parent = &sup_parent_[k * nodes];
    std::uint32_t* depth = &sup_depth_[k * nodes];
    std::uint32_t* tin = &sup_tin_[k * nodes];
    std::uint32_t* end = &sup_end_[k * nodes];
    // Breadth-first from the token's seeds over the committed graph: the
    // first predecessor to deliver k becomes the parent.
    queue.clear();
    std::fill(reached.begin(), reached.end(), false);
    for (std::size_t n = 0; n < nodes; ++n) {
      if (a_.seed_token_[n] != static_cast<int>(k)) continue;
      reached[n] = true;
      queue.push_back(static_cast<std::uint32_t>(n));
    }
    auto reach = [&](std::uint32_t from, std::size_t to) {
      if (reached[to]) return;
      reached[to] = true;
      parent[to] = from;
      depth[to] = depth[from] + 1;
      queue.push_back(static_cast<std::uint32_t>(to));
    };
    for (std::size_t qi = 0; qi < queue.size(); ++qi) {
      const std::uint32_t n = queue[qi];
      for (std::uint32_t i = fixed.off[n]; i < fixed.off[n + 1]; ++i)
        reach(n, fixed.adj[i]);
      for (std::size_t t : rsn_succ_[n]) reach(n, t);
    }
    for (std::size_t n = 0; n < nodes; ++n)
      assert(reached[n] == state_[n].test(k));
    // Subtree sizes bottom-up (held in `end`), then preorder positions
    // top-down: each node takes the next free slot under its parent.
    for (std::size_t qi = queue.size(); qi-- > 0;) {
      const std::uint32_t n = queue[qi];
      end[n] += 1;
      if (parent[n] != no_parent) end[parent[n]] += end[n];
    }
    std::uint32_t next_root = 0;
    for (std::uint32_t n : queue) {
      std::uint32_t& pos = parent[n] == no_parent ? next_root : slot[parent[n]];
      tin[n] = pos;
      pos += end[n];
      end[n] += tin[n];
      slot[n] = tin[n] + 1;
      sup_order_[k * nodes + tin[n]] = n;
    }
  }
}

std::size_t HybridViolationIndex::node_pair_count(std::size_t node,
                                                  const TokenSet& st) const {
  netlist::ModuleId m = a_.owner_module_[node];
  if (m < 0) return 0;  // unannotated: transit only
  TrustCategory t = a_.spec_.policy(m).trust;
  return st.count_common(a_.tokens_.bad(t));
}

std::size_t HybridViolationIndex::from_node(ElemId reg) const {
  return a_.scan_node(reg, view_.network().elem(reg).ffs.size() - 1);
}

std::size_t HybridViolationIndex::violating_registers() const {
  const Rsn& net = view_.network();
  std::size_t count = 0;
  for (ElemId r : net.registers()) {
    const rsn::Element& e = net.elem(r);
    if (e.module < 0) continue;
    TrustCategory t = a_.spec_.policy(e.module).trust;
    const TokenSet& bad = a_.tokens_.bad(t);
    for (std::size_t f = 0; f < e.ffs.size(); ++f) {
      if (state_[a_.scan_node(r, f)].intersects(bad)) {
        ++count;
        break;
      }
    }
  }
  return count;
}

const std::vector<std::pair<ElemId, std::size_t>>&
HybridViolationIndex::trial_fanout_of(ElemId x, Scratch& s) const {
  s.fanout_buf.clear();
  // Committed entries of unchanged consumers, merged with the trial-only
  // patch, both already in FanoutIndex order (consumer asc, port asc) —
  // so the merged sequence is bit-identical to FanoutIndex(trial).of(x).
  auto add_lo = std::lower_bound(
      s.fanout_adds.begin(), s.fanout_adds.end(), x,
      [](const auto& a, ElemId key) { return a.first < key; });
  auto add_hi = add_lo;
  while (add_hi != s.fanout_adds.end() && add_hi->first == x) ++add_hi;
  const std::vector<std::pair<ElemId, std::size_t>>* committed = nullptr;
  if (x < view_.network().num_elements()) committed = &view_.fanout().of(x);
  std::size_t ci = 0;
  const std::size_t cn = committed != nullptr ? committed->size() : 0;
  while (ci < cn || add_lo != add_hi) {
    bool take_committed;
    if (ci == cn) {
      take_committed = false;
    } else if ((*committed)[ci].first < s.changed_mark.size() &&
               s.changed_mark[(*committed)[ci].first] == s.epoch) {
      ++ci;  // consumer's input list changed: committed entry is stale
      continue;
    } else if (add_lo == add_hi) {
      take_committed = true;
    } else {
      take_committed = (*committed)[ci] < add_lo->second;
    }
    if (take_committed) {
      s.fanout_buf.push_back((*committed)[ci]);
      ++ci;
    } else {
      s.fanout_buf.push_back(add_lo->second);
      ++add_lo;
    }
  }
  return s.fanout_buf;
}

template <typename Fn>
bool HybridViolationIndex::any_trial_pred(std::size_t n, const Scratch& s,
                                          Fn&& fn) const {
  const HybridAnalyzer::Csr& fixed = a_.fixed_pred_;
  for (std::uint32_t i = fixed.off[n]; i < fixed.off[n + 1]; ++i)
    if (fn(fixed.adj[i])) return true;
  // A committed in-edge survives iff its source register is not dirty; a
  // dirty source's in-edges are its rebuilt chains.
  for (std::uint32_t i = preds_.rsn_off[n]; i < preds_.rsn_off[n + 1]; ++i) {
    const std::uint32_t p = preds_.rsn[i].from;
    if (s.dirty_from_mark[p] != s.epoch && fn(p)) return true;
  }
  for (auto it = std::lower_bound(s.new_in.begin(), s.new_in.end(),
                                  std::pair<std::size_t, std::size_t>{n, 0});
       it != s.new_in.end() && it->first == n; ++it)
    if (fn(it->second)) return true;
  return false;
}

void HybridViolationIndex::support_walk(Scratch& s) const {
  const std::size_t nodes = state_.size();
  const auto tokens = static_cast<std::uint32_t>(a_.tokens_.num_tokens());
  // Broken roots: pairs whose forest parent fed them over an edge the
  // trial removes entirely. Every other forest edge survives the trial.
  s.roots.clear();
  for (const auto& [u, v] : s.edge_removed)
    for (std::uint32_t k = 0; k < tokens; ++k) {
      const std::size_t i = k * nodes + v;
      if (sup_parent_[i] == u)
        s.roots.push_back({sup_depth_[i], k, static_cast<std::uint32_t>(v)});
    }
  std::sort(s.roots.begin(), s.roots.end());
  // The roots' subtrees per token as disjoint preorder intervals (two
  // subtrees of one forest nest or are disjoint).
  s.root_intervals.clear();
  for (const auto& [d, k, v] : s.roots)
    s.root_intervals.push_back(
        {k, sup_tin_[k * nodes + v], sup_end_[k * nodes + v]});
  std::sort(s.root_intervals.begin(), s.root_intervals.end());
  std::size_t outer = 0;
  for (const auto& iv : s.root_intervals) {
    if (outer > 0 && s.root_intervals[outer - 1][0] == iv[0] &&
        iv[1] < s.root_intervals[outer - 1][2])
      continue;
    s.root_intervals[outer++] = iv;
  }
  s.root_intervals.resize(outer);
  auto under_root = [&](std::uint32_t k, std::uint32_t tin) {
    auto it = std::upper_bound(s.root_intervals.begin(),
                               s.root_intervals.end(),
                               std::array<std::uint32_t, 3>{k, tin, no_parent});
    if (it == s.root_intervals.begin()) return false;
    --it;
    return (*it)[0] == k && tin < (*it)[2];
  };

  // The walk, one depth at a time: the roots of that depth plus the
  // children of the pairs reset one level up. A pair is visited when it
  // is queued, so when a pair of depth d is decided, every pair of a
  // smaller depth the walk will ever visit has been decided.
  s.affected.clear();
  s.level.clear();
  s.next_level.clear();
  s.walked = 0;
  auto visit = [&](std::uint32_t k, std::uint32_t v) {
    std::uint32_t& mark = s.walk_mark[k * nodes + v];
    if (mark == s.epoch) return;
    mark = s.epoch;
    s.next_level.push_back({k, v});
    ++s.walked;
  };
  std::size_t ri = 0;
  std::uint32_t depth = 0;
  while (ri < s.roots.size() || !s.next_level.empty()) {
    if (s.next_level.empty()) depth = s.roots[ri][0];
    for (; ri < s.roots.size() && s.roots[ri][0] == depth; ++ri)
      visit(s.roots[ri][1], s.roots[ri][2]);
    s.level.swap(s.next_level);
    s.next_level.clear();
    for (const auto& [k, v] : s.level) {
      const std::size_t base = k * nodes;
      // A predecessor holding k is provably still supported when it was
      // kept, or is unvisited and shallower (its nearest visited ancestor
      // was kept, or none of its ancestors is a root), or lies outside
      // every root's subtree (its whole forest path survives).
      auto supported = [&](std::size_t p) {
        if (!state_[p].test(k)) return false;
        const std::size_t i = base + p;
        if (s.walk_mark[i] == s.epoch) return s.kept_mark[i] == s.epoch;
        return sup_depth_[i] < depth || !under_root(k, sup_tin_[i]);
      };
      if (any_trial_pred(v, s, supported)) {
        s.kept_mark[base + v] = s.epoch;
        continue;
      }
      if (s.affected_mark[v] != s.epoch) {
        s.affected_mark[v] = s.epoch;
        s.affected.push_back(v);
        s.lost[v] = TokenSet{};
      }
      s.lost[v].set(k);
      const std::uint32_t* order = &sup_order_[base];
      for (std::uint32_t pos = sup_tin_[base + v] + 1;
           pos < sup_end_[base + v]; pos = sup_end_[base + order[pos]])
        visit(k, order[pos]);
    }
    ++depth;
  }
}

std::size_t HybridViolationIndex::delta_analysis(const Rsn& trial,
                                                 Scratch& s) const {
  count_delta_query();
  const Rsn& net = view_.network();
  const std::size_t nodes = state_.size();
  const std::size_t elems = trial.num_elements();
  if (s.state.size() < nodes) {
    s.state.resize(nodes);
    s.lost.resize(nodes);
    s.affected_mark.assign(nodes, 0);
    s.queued_mark.assign(nodes, 0);
    s.dirty_from_mark.assign(nodes, 0);
    s.walk_mark.assign(sup_parent_.size(), 0);
    s.kept_mark.assign(sup_parent_.size(), 0);
  }
  if (s.changed_mark.size() < elems) {
    s.changed_mark.resize(elems, 0);
    s.vis_old_mark.resize(elems, 0);
    s.vis_new_mark.resize(elems, 0);
  }
  if (++s.epoch == 0) {  // epoch wrap: reset marks once per 2^32 queries
    std::fill(s.affected_mark.begin(), s.affected_mark.end(), 0u);
    std::fill(s.queued_mark.begin(), s.queued_mark.end(), 0u);
    std::fill(s.dirty_from_mark.begin(), s.dirty_from_mark.end(), 0u);
    std::fill(s.walk_mark.begin(), s.walk_mark.end(), 0u);
    std::fill(s.kept_mark.begin(), s.kept_mark.end(), 0u);
    std::fill(s.changed_mark.begin(), s.changed_mark.end(), 0u);
    std::fill(s.vis_old_mark.begin(), s.vis_old_mark.end(), 0u);
    std::fill(s.vis_new_mark.begin(), s.vis_new_mark.end(), 0u);
    s.epoch = 1;
  }

  // 1. Input-list diff: the changed consumers (s.changed: elements whose
  //    input vector differs, or that exist only in the trial), the
  //    drivers involved on either side (endpoints — every element whose
  //    fanout differs between the two structures has a representative
  //    among them), and the trial-side fanout patch entries of the
  //    changed consumers.
  s.endpoints.clear();
  s.fanout_adds.clear();
  for (ElemId id : s.changed) {
    s.changed_mark[id] = s.epoch;
    if (id < net.num_elements()) {
      for (ElemId x : net.elem(id).inputs)
        if (x != rsn::no_elem) s.endpoints.push_back(x);
    }
    const std::vector<ElemId>& new_in = trial.elem(id).inputs;
    for (std::size_t p = 0; p < new_in.size(); ++p) {
      ElemId x = new_in[p];
      if (x == rsn::no_elem) continue;
      s.endpoints.push_back(x);
      s.fanout_adds.push_back({x, {id, p}});
    }
  }
  std::sort(s.endpoints.begin(), s.endpoints.end());
  s.endpoints.erase(std::unique(s.endpoints.begin(), s.endpoints.end()),
                    s.endpoints.end());
  // Sorted by (source, consumer, port): each source's run is in
  // FanoutIndex order. The key is unique, so the order is that of a
  // stable sort by source over the ascending consumer scan, and the sort
  // needs no buffer.
  std::sort(s.fanout_adds.begin(), s.fanout_adds.end());

  //    Dirty registers: backward mux-walk from every endpoint under both
  //    structures (a register whose chains change in either direction
  //    must rebuild).
  s.dirty_regs.clear();
  for (ElemId x : s.endpoints) {
    if (x < net.num_elements())
      collect_chain_sources(net, x, s.vis_old_mark, s.epoch, s.chain_stack,
                            s.dirty_regs);
    collect_chain_sources(trial, x, s.vis_new_mark, s.epoch, s.chain_stack,
                          s.dirty_regs);
  }
  std::sort(s.dirty_regs.begin(), s.dirty_regs.end());
  s.dirty_regs.erase(std::unique(s.dirty_regs.begin(), s.dirty_regs.end()),
                     s.dirty_regs.end());

  // 2. The node-level edge sets of the dirty registers on both sides:
  //    committed from their chains, trial from a walk of their chain
  //    targets under the trial structure (against the patched committed
  //    fanout).
  s.old_edges.clear();
  s.new_edges.clear();
  for (ElemId r : s.dirty_regs) {
    const std::size_t from = from_node(r);
    for (const HybridAnalyzer::RsnEdge& e : reg_chains_[r])
      s.old_edges.push_back({from, a_.scan_node(e.to_reg, 0)});
    HybridAnalyzer::for_each_chain_target(
        trial,
        [&](ElemId id) -> const std::vector<std::pair<ElemId, std::size_t>>& {
          return trial_fanout_of(id, s);
        },
        r, s.chains,
        [&](ElemId to) { s.new_edges.push_back({from, a_.scan_node(to, 0)}); });
    s.dirty_from_mark[from] = s.epoch;
  }

  // 3. Inter-segment edges the trial removes entirely (no copy of (u, v)
  //    survives among the trial edges) and the ones it adds, as sets: an
  //    edge whose multiplicity merely changed transports the same values
  //    and invalidates nothing.
  std::vector<std::pair<std::size_t, std::size_t>>& so = s.sorted_old;
  std::vector<std::pair<std::size_t, std::size_t>>& sn = s.sorted_new;
  so = s.old_edges;
  sn = s.new_edges;
  std::sort(so.begin(), so.end());
  so.erase(std::unique(so.begin(), so.end()), so.end());
  std::sort(sn.begin(), sn.end());
  sn.erase(std::unique(sn.begin(), sn.end()), sn.end());
  std::vector<std::pair<std::size_t, std::size_t>>& removed = s.edge_removed;
  std::vector<std::pair<std::size_t, std::size_t>>& added = s.edge_added;
  removed.clear();
  added.clear();
  std::set_difference(so.begin(), so.end(), sn.begin(), sn.end(),
                      std::back_inserter(removed));
  std::set_difference(sn.begin(), sn.end(), so.begin(), so.end(),
                      std::back_inserter(added));
  s.new_in.clear();
  for (const auto& [from, to] : sn) s.new_in.push_back({to, from});
  std::sort(s.new_in.begin(), s.new_in.end());

  // 4. The region: the nodes holding a token whose support the removed
  //    edges may break (the support walk), with the reset tokens.
  support_walk(s);

  // 5. Re-solve the region, then grow. Every token the walk kept has a
  //    support path in the trial, so each region node starts from its
  //    committed value minus its reset tokens, pointwise below the
  //    trial's least fixpoint, and pulls once from all its trial
  //    predecessors (region ones at their start or later). Tokens a node
  //    then holds beyond its start (regained or gained) are pushed on;
  //    a relaxation that would enlarge an outside node's committed value
  //    pulls that node into the overlay (committed ∪ growth, nothing
  //    reset). The chaotic iteration converges exactly to the trial's
  //    least fixpoint — bit-identical to the from-scratch run.
  const HybridAnalyzer::Csr& fixed = a_.fixed_succ_;
  s.worklist.clear();
  for (std::size_t n : s.affected) {
    s.state[n] = state_[n];
    s.state[n].subtract(s.lost[n]);
  }
  for (std::size_t n : s.affected)
    any_trial_pred(n, s, [&](std::size_t p) {
      s.state[n].merge(s.affected_mark[p] == s.epoch ? s.state[p]
                                                     : state_[p]);
      return false;
    });
  auto enqueue = [&](std::size_t n) {
    if (s.queued_mark[n] != s.epoch) {
      s.queued_mark[n] = s.epoch;
      s.worklist.push_back(n);
    }
  };
  // A successor over a committed edge holds at least the source's start
  // (committed successors hold its whole committed value, region ones
  // pulled it), so only nodes holding more than their start push, plus
  // dirty-from nodes: their rebuilt inter-segment edges may be new.
  for (std::size_t n : s.affected) {
    TokenSet start = state_[n];
    start.subtract(s.lost[n]);
    if (s.state[n] != start || s.dirty_from_mark[n] == s.epoch) enqueue(n);
  }
  auto grow_to = [&](const TokenSet& fv, std::size_t to) {
    if (s.affected_mark[to] == s.epoch) {
      // contains-first: the common no-op push stays read-only instead of
      // rewriting (and dirtying) the target's cache lines via merge.
      if (!s.state[to].contains(fv)) {
        s.state[to].merge(fv);
        enqueue(to);
      }
    } else if (!state_[to].contains(fv)) {
      s.affected_mark[to] = s.epoch;
      s.affected.push_back(to);
      s.lost[to] = TokenSet{};
      s.state[to] = state_[to];
      s.state[to].merge(fv);
      enqueue(to);
    }
  };
  // Added edges whose source stays outside the overlay deliver their
  // committed value exactly once here; overlay sources push from the
  // worklist below.
  for (const auto& e : added)
    if (s.affected_mark[e.first] != s.epoch)
      grow_to(state_[e.first], e.second);
  while (!s.worklist.empty()) {
    std::size_t n = s.worklist.back();
    s.worklist.pop_back();
    s.queued_mark[n] = s.epoch - 1;
    const TokenSet& nv = s.state[n];
    const bool dirty_from = s.dirty_from_mark[n] == s.epoch;
    // Push only what committed-edge targets can be missing (see above);
    // rebuilt inter-segment edges of dirty-from nodes may be brand new,
    // so they carry the full value.
    TokenSet start = state_[n];
    start.subtract(s.lost[n]);
    TokenSet masked = nv;
    masked.subtract(start);
    if (masked.any()) {
      for (std::uint32_t i = fixed.off[n]; i < fixed.off[n + 1]; ++i)
        grow_to(masked, fixed.adj[i]);
      if (!dirty_from)
        for (std::size_t t : rsn_succ_[n]) grow_to(masked, t);
    }
    if (dirty_from)
      for (const auto& e : s.new_edges)
        if (e.first == n) grow_to(nv, e.second);
  }

  // 6. Pair-count delta over the affected nodes whose value changed (a
  //    re-solved node that kept its committed value keeps its count).
  std::ptrdiff_t delta = 0;
  for (std::size_t n : s.affected) {
    if (s.state[n] == state_[n]) continue;
    delta += static_cast<std::ptrdiff_t>(node_pair_count(n, s.state[n]));
    delta -= static_cast<std::ptrdiff_t>(node_pairs_[n]);
  }
  return static_cast<std::size_t>(static_cast<std::ptrdiff_t>(pairs_) +
                                  delta);
}

std::size_t HybridViolationIndex::eval_trial(const Rsn& trial,
                                             Scratch& scratch) const {
  changed_consumers(view_.network(), trial, /*use_record=*/true,
                    scratch.changed);
  const std::size_t pairs = delta_analysis(trial, scratch);
  if (obs::TraceSession* trace = obs::TraceSession::active()) {
    trace->counter("resolve.hybrid_region").add(scratch.affected.size());
    trace->counter("resolve.hybrid_support_walk").add(scratch.walked);
  }
  return pairs;
}

void HybridViolationIndex::commit(const Rsn& network) {
  Scratch& s = commit_scratch_;
  changed_consumers(view_.network(), network, /*use_record=*/false,
                    s.changed);
  const std::size_t new_pairs = delta_analysis(network, s);
  for (std::size_t n : s.affected) {
    state_[n] = s.state[n];
    node_pairs_[n] = node_pair_count(n, state_[n]);
  }
  pairs_ = new_pairs;

  // Re-index the committed view in place (once per applied change; trials
  // never pay for it — they patch its fanout index instead), rebuild the
  // dirty registers' chains from it and splice them and their node-level
  // successors into the committed structures, then re-index the in-edges
  // and the support forest.
  view_.reset(network);
  const Rsn& net = view_.network();
  if (reg_chains_.size() < net.num_elements())
    reg_chains_.resize(net.num_elements());
  for (ElemId r : s.dirty_regs) {
    rsn_succ_[from_node(r)].clear();
    reg_chains_[r].clear();
    HybridAnalyzer::append_register_chains(
        net, HybridAnalyzer::index_fanout(view_.fanout()), r, s.chains,
        reg_chains_[r]);
  }
  for (const auto& e : s.new_edges) rsn_succ_[e.first].push_back(e.second);
  index_in_edges();
  build_support_forest();
}

std::optional<HybridAnalyzer::Violation> HybridViolationIndex::find_violation()
    const {
  // HybridAnalyzer::find_violation, answered from the committed fixpoint
  // over the committed predecessors, which list the in-edges in
  // build_rsn_edges' emission order: the same Violation.
  return a_.trace_violation(preds_, state_, trace_scratch_);
}

// ---------------------------------------------------------------------------
// PureViolationIndex

PureViolationIndex::PureViolationIndex(const PureScanAnalyzer& analyzer,
                                       const Rsn& network)
    : a_(analyzer), view_(network) {
  count_index_rebuild();
  const Rsn& net = view_.network();
  state_ = a_.propagate(net);
  reg_pairs_.assign(net.num_elements(), 0);
  for (ElemId reg : net.registers()) {
    TokenSet incoming;
    for (ElemId in : net.elem(reg).inputs)
      if (in != rsn::no_elem) incoming.merge(state_[in]);
    reg_pairs_[reg] = register_pair_count(net, reg, incoming);
    pairs_ += reg_pairs_[reg];
  }
}

std::size_t PureViolationIndex::register_pair_count(
    const Rsn& net, ElemId reg, const TokenSet& incoming) const {
  TrustCategory t = a_.spec_.policy(net.elem(reg).module).trust;
  return incoming.count_common(a_.tokens_.bad(t));
}

std::size_t PureViolationIndex::violating_registers() const {
  const Rsn& net = view_.network();
  std::size_t count = 0;
  for (ElemId reg : net.registers()) {
    TokenSet incoming;
    for (ElemId in : net.elem(reg).inputs)
      if (in != rsn::no_elem) incoming.merge(state_[in]);
    if (a_.violates(net, reg, incoming)) ++count;
  }
  return count;
}

std::size_t PureViolationIndex::delta_analysis(const Rsn& trial,
                                               Scratch& s) const {
  count_delta_query();
  const std::size_t n = trial.num_elements();
  const std::size_t n_base = view_.network().num_elements();
  if (s.state.size() < n) {
    s.state.resize(n);
    s.touched_mark.resize(n, 0);
    s.queued_mark.resize(n, 0);
    s.changed_mark.resize(n, 0);
  }
  if (++s.epoch == 0) {  // epoch wrap: reset marks once per 2^32 queries
    std::fill(s.touched_mark.begin(), s.touched_mark.end(), 0u);
    std::fill(s.queued_mark.begin(), s.queued_mark.end(), 0u);
    std::fill(s.changed_mark.begin(), s.changed_mark.end(), 0u);
    s.epoch = 1;
  }
  for (ElemId id : s.changed) s.changed_mark[id] = s.epoch;

  // Evaluation order: committed rank. An element only the trial has (a
  // repair or collector mux) sorts right after its highest-ranked
  // committed driver, which places it below the element it feeds.
  auto key = [&](ElemId id) -> std::uint64_t {
    if (!view_.ranked()) return 0;
    if (id < n_base) return 2 * std::uint64_t{view_.rank(id)};
    std::uint64_t k = 0;
    for (ElemId in : trial.elem(id).inputs)
      if (in != rsn::no_elem && in < n_base)
        k = std::max(k, 2 * std::uint64_t{view_.rank(in)} + 1);
    return k;
  };
  auto value_of = [&](ElemId id) -> const TokenSet& {
    return s.touched_mark[id] == s.epoch ? s.state[id] : state_[id];
  };
  s.touched.clear();
  s.queue.clear();
  s.evaluations = 0;
  auto enqueue = [&](ElemId id) {
    if (s.touched_mark[id] != s.epoch) {
      s.touched_mark[id] = s.epoch;
      s.touched.push_back(id);
      s.state[id] = id < n_base ? state_[id] : TokenSet{};
    }
    if (s.queued_mark[id] == s.epoch) return;
    s.queued_mark[id] = s.epoch;
    s.queue.push_back({key(id), id});
    std::push_heap(s.queue.begin(), s.queue.end(), std::greater<>());
  };

  // Chaotic evaluation from the changed consumers: an element whose
  // recomputed value equals its current one stops there; one whose value
  // changed queues every trial consumer (committed fanout of unchanged
  // consumers, plus the changed consumers that read it now). An element
  // evaluated before an input settled is thereby queued again, so the
  // values end at the trial's propagation for any acyclic trial; with
  // every trial edge going up in committed rank, each element is
  // evaluated once.
  for (ElemId id : s.changed) enqueue(id);
  while (!s.queue.empty()) {
    std::pop_heap(s.queue.begin(), s.queue.end(), std::greater<>());
    const ElemId id = s.queue.back().second;
    s.queue.pop_back();
    s.queued_mark[id] = 0;
    ++s.evaluations;
    const rsn::Element& e = trial.elem(id);
    TokenSet v;
    for (ElemId in : e.inputs)
      if (in != rsn::no_elem) v.merge(value_of(in));
    if (e.kind == ElemKind::Register) {
      int tok = a_.register_token(trial, id);
      if (tok >= 0) v.set(static_cast<std::size_t>(tok));
    }
    if (v == s.state[id]) continue;
    s.state[id] = v;
    if (id < n_base)
      for (const auto& [consumer, port] : view_.fanout().of(id))
        if (s.changed_mark[consumer] != s.epoch) enqueue(consumer);
    for (ElemId consumer : s.changed) {
      const std::vector<ElemId>& ins = trial.elem(consumer).inputs;
      if (std::find(ins.begin(), ins.end(), id) != ins.end())
        enqueue(consumer);
    }
  }

  // Pair-count delta over the touched registers: an untouched register
  // kept its input list and every input's value (registers are never
  // created by repairs, so reg_pairs_ always has the old contribution).
  std::ptrdiff_t delta = 0;
  for (ElemId id : s.touched) {
    const rsn::Element& e = trial.elem(id);
    if (e.kind != ElemKind::Register) continue;
    TokenSet incoming;
    for (ElemId in : e.inputs)
      if (in != rsn::no_elem) incoming.merge(value_of(in));
    delta += static_cast<std::ptrdiff_t>(
        register_pair_count(trial, id, incoming));
    delta -= static_cast<std::ptrdiff_t>(reg_pairs_[id]);
  }
  return static_cast<std::size_t>(static_cast<std::ptrdiff_t>(pairs_) +
                                  delta);
}

std::size_t PureViolationIndex::eval_trial(const Rsn& trial,
                                           Scratch& scratch) const {
  changed_consumers(view_.network(), trial, /*use_record=*/true,
                    scratch.changed);
  const std::size_t pairs = delta_analysis(trial, scratch);
  if (obs::TraceSession* trace = obs::TraceSession::active())
    trace->counter("resolve.pure_region").add(scratch.evaluations);
  return pairs;
}

void PureViolationIndex::commit(const Rsn& network) {
  Scratch& s = commit_scratch_;
  changed_consumers(view_.network(), network, /*use_record=*/false,
                    s.changed);
  const std::size_t new_pairs = delta_analysis(network, s);
  state_.resize(network.num_elements());
  reg_pairs_.resize(network.num_elements(), 0);
  for (ElemId id : s.touched) state_[id] = s.state[id];
  for (ElemId id : s.touched) {
    const rsn::Element& e = network.elem(id);
    if (e.kind != ElemKind::Register) continue;
    TokenSet incoming;
    for (ElemId in : e.inputs)
      if (in != rsn::no_elem) incoming.merge(state_[in]);
    reg_pairs_[id] = register_pair_count(network, id, incoming);
  }
  pairs_ = new_pairs;
  view_.reset(network);
}

std::optional<PureViolation> PureViolationIndex::find_violation() const {
  // PureScanAnalyzer::find_violation, answered from the committed
  // propagation.
  return a_.trace_violation(view_.network(), state_);
}

}  // namespace rsnsec::security
