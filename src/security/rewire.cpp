#include "security/rewire.hpp"

#include <algorithm>
#include <cassert>

#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace rsnsec::security {

using rsn::CommittedView;
using rsn::ElemId;
using rsn::ElemKind;
using rsn::Rsn;

std::vector<Connection> Rewirer::all_connections(const Rsn& network) {
  std::vector<Connection> out;
  for (ElemId id = 0; id < network.num_elements(); ++id) {
    const rsn::Element& e = network.elem(id);
    for (std::size_t p = 0; p < e.inputs.size(); ++p) {
      if (e.inputs[p] != rsn::no_elem)
        out.push_back({e.inputs[p], id, p});
    }
  }
  return out;
}

namespace {

/// A pre-cut set — Rsn::reaching(start) (backward over input lists) or
/// Rsn::reachable_from(start) (forward over the fanout index) of the
/// committed network — walked lazily over `view` in the same discovery
/// order: the repairs stop at their first acceptable candidate, and each
/// element is produced only when asked for.
class PreCutWalk {
 public:
  PreCutWalk(const CommittedView& view, ElemId start, bool forward,
             Rewirer::Scratch& s)
      : view_(view), forward_(forward), s_(s), cur_(start) {
    const std::size_t n = view.network().num_elements();
    if (s_.seen.size() < n) {
      s_.seen.assign(n, 0);
      s_.epoch = 0;
    }
    if (++s_.epoch == 0) {  // epoch wrap: reset marks once per 2^32 walks
      std::fill(s_.seen.begin(), s_.seen.end(), 0u);
      s_.epoch = 1;
    }
    s_.stack.clear();
    s_.seen[start] = s_.epoch;
  }

  /// The next element of the set, or no_elem once it is exhausted.
  ElemId next() {
    for (;;) {
      while (cur_ != rsn::no_elem && pos_ < degree(cur_)) {
        ElemId x = neighbor(cur_, pos_++);
        if (x == rsn::no_elem || s_.seen[x] == s_.epoch) continue;
        s_.seen[x] = s_.epoch;
        s_.stack.push_back(x);
        return x;
      }
      if (s_.stack.empty()) return rsn::no_elem;
      cur_ = s_.stack.back();
      s_.stack.pop_back();
      pos_ = 0;
    }
  }

 private:
  const CommittedView& view_;
  const bool forward_;
  Rewirer::Scratch& s_;   ///< marks and stack; one walk uses them at a time
  ElemId cur_;            ///< element whose neighbors are being produced
  std::size_t pos_ = 0;   ///< next neighbor of cur_

  std::size_t degree(ElemId id) const {
    return forward_ ? view_.fanout().of(id).size()
                    : view_.network().elem(id).inputs.size();
  }
  ElemId neighbor(ElemId id, std::size_t k) const {
    return forward_ ? view_.fanout().of(id)[k].first
                    : view_.network().elem(id).inputs[k];
  }
};

/// The repairs' cycle check: does `x` already reach `y` in `net`? With a
/// ranked committed view (`net` is that network minus the connections
/// this cut removed, plus those it added), "no" is proved without a walk
/// when rank(x) > rank(y) and every edge the cut added so far goes up in
/// rank: then every edge of `net` climbs, and no path leads down from x
/// to y. Otherwise one backward walk (Rsn::reaches) answers, counted in
/// `*walks`. A cut's from-side repair is its last edit, so only the
/// to-side reconnection is reported through added().
class CycleCheck {
 public:
  CycleCheck(const Rsn& net, const CommittedView* view, std::size_t* walks)
      : net_(net),
        view_(view != nullptr && view->ranked() ? view : nullptr),
        walks_(walks) {}

  bool reaches(ElemId x, ElemId y) {
    if (upward_ && in_view(x) && in_view(y) &&
        view_->rank(x) > view_->rank(y))
      return false;
    if (walks_ != nullptr) ++*walks_;
    return net_.reaches(x, y);
  }

  /// Notes the edge `u -> v` the cut just added.
  void added(ElemId u, ElemId v) {
    upward_ = upward_ && in_view(u) && in_view(v) &&
              view_->rank(u) < view_->rank(v);
  }

 private:
  const Rsn& net_;
  const CommittedView* view_;
  std::size_t* walks_;
  bool upward_ = view_ != nullptr;

  bool in_view(ElemId id) const {
    return view_ != nullptr && id < view_->network().num_elements();
  }
};

/// Reconnects the dangling input `port` of `to` to a multi-cycle
/// predecessor over pure scan paths that does not recreate a cycle
/// (Sec. III-D: "only segments that are multi-cycle predecessors/
/// successors over pure scan paths are connected"); falls back to the
/// scan-in port. `next_pred()` yields the pre-cut predecessors of `to` in
/// order, then no_elem. A hint (evaluated as a separate repair candidate
/// by the resolver) overrides the default choice. The network is acyclic
/// here, so driving `to` from `cand` closes a cycle exactly when `to`
/// already reaches `cand`.
template <typename NextPred>
int repair_dangling_input(Rsn& network, ElemId to, std::size_t port,
                          NextPred&& next_pred, CycleCheck& check,
                          ElemId avoid, ElemId hint) {
  if (hint != rsn::no_elem && hint != avoid && hint != to &&
      network.elem(hint).kind != ElemKind::ScanOut &&
      !check.reaches(to, hint)) {
    network.connect(hint, to, port);
    check.added(hint, to);
    return 1;
  }
  for (ElemId cand = next_pred(); cand != rsn::no_elem; cand = next_pred()) {
    if (cand == avoid || cand == to) continue;
    if (network.elem(cand).kind == ElemKind::ScanOut) continue;
    if (check.reaches(to, cand)) continue;
    network.connect(cand, to, port);
    check.added(cand, to);
    return 1;
  }
  network.connect(network.scan_in(), to, port);
  check.added(network.scan_in(), to);
  return 1;
}

/// Like Rsn::attach_to_scan_out, but never reuses `avoid` as the
/// collector mux (we just disconnected `from` from it; reusing it would
/// silently recreate the cut connection).
int attach_to_scan_out_avoiding(Rsn& network, ElemId from, ElemId avoid) {
  ElemId driver = network.elem(network.scan_out()).inputs[0];
  if (driver == avoid && driver != rsn::no_elem) {
    ElemId m = network.add_mux(
        "collect_mux_" + std::to_string(network.num_elements()), 2);
    network.connect(driver, m, 0);
    network.connect(from, m, 1);
    network.connect(m, network.scan_out(), 0);
    return 2;
  }
  ElemId created = network.attach_to_scan_out(from);
  return created == rsn::no_elem ? 1 : 2;
}

/// Attaches `from`, which lost its only fanout, to a pre-cut multi-cycle
/// successor (`next_succ()` yields them in order, then no_elem), else
/// routes it to the scan-out port. Each repair below adds a path
/// from -> cand to an acyclic network, so it closes a cycle exactly when
/// `cand` already reaches `from`.
template <typename NextSucc>
int repair_lost_fanout(Rsn& network, ElemId from, NextSucc&& next_succ,
                       CycleCheck& check, ElemId avoid) {
  for (ElemId cand = next_succ(); cand != rsn::no_elem; cand = next_succ()) {
    if (cand == avoid || cand == from) continue;
    const ElemKind kind = network.elem(cand).kind;
    if (kind == ElemKind::Mux) {
      if (check.reaches(cand, from)) continue;
      network.add_mux_input(cand, from);
      return 1;
    }
    if (kind == ElemKind::Register) {
      ElemId old_driver = network.elem(cand).inputs[0];
      if (old_driver == rsn::no_elem) {
        if (check.reaches(cand, from)) continue;
        network.connect(from, cand, 0);
        return 1;
      }
      // Insert a fresh 2:1 mux in front of the register ("placing new
      // multiplexers", Sec. IV-C). The mux is allocated before the check,
      // so element ids and names do not depend on its outcome; a rejected
      // mux stays allocated but unconnected.
      ElemId m = network.add_mux(
          "repair_mux_" + std::to_string(network.num_elements()), 2);
      if (check.reaches(cand, from)) continue;
      network.connect(old_driver, m, 0);
      network.connect(from, m, 1);
      network.connect(m, cand, 0);
      return 2;
    }
  }
  return attach_to_scan_out_avoiding(network, from, avoid);
}

}  // namespace

struct Rewirer::TrialSlots::Slot {
  explicit Slot(const CommittedView& view, TrialCounter counter)
      : network(view.network()),
        generation(view.generation()),
        count(std::move(counter)) {}
  Slot(const Slot&) = delete;  // claimed by address
  Slot& operator=(const Slot&) = delete;

  Rsn network;                ///< working copy of the view's network
  std::uint64_t generation;   ///< view generation `network` was copied at
  Scratch scratch;
  TrialCounter count;
};

Rewirer::TrialSlots::TrialSlots(const CommittedView& view,
                                TrialCounterFactory make_counter)
    : view_(view), make_counter_(std::move(make_counter)) {}

Rewirer::TrialSlots::~TrialSlots() = default;

std::size_t Rewirer::TrialSlots::size() const { return pool_.size(); }

Rewirer::TrialSlots::Slot& Rewirer::TrialSlots::acquire() {
  obs::TraceSession* trace = obs::TraceSession::active();
  Slot& slot = pool_.acquire([&] {
    if (trace != nullptr) trace->counter("resolve.trial_slots").add(1);
    return std::make_unique<Slot>(view_, make_counter_());
  });
  if (slot.generation != view_.generation()) {
    slot.network = view_.network();
    slot.generation = view_.generation();
    if (trace != nullptr) trace->counter("resolve.slot_syncs").add(1);
  }
  return slot;
}

void Rewirer::TrialSlots::release(Slot& slot) { pool_.release(slot); }

Rewirer::Selection Rewirer::select_cut_parallel(
    const CommittedView& view, const std::vector<Connection>& candidates,
    TrialSlots& slots, std::size_t current_pairs, ResolutionPolicy policy,
    ThreadPool& pool) {
  assert(&view == &slots.view_);
  const Rsn& network = view.network();
  obs::TraceSession* trace = obs::TraceSession::active();
  obs::Counter* cycle_walks =
      trace != nullptr ? &trace->counter("rewire.cycle_walks") : nullptr;
  // Flatten the nested (candidate, hint) loop into one combo list in the
  // same order; evaluate all combos concurrently; then select by scanning
  // the results in combo order. The scan replicates the sequential policy
  // logic exactly, so the Selection is identical for any thread count.
  struct Combo {
    Connection cut;
    rsn::ElemId hint;
  };
  std::vector<Combo> combos;
  combos.reserve(2 * candidates.size());
  for (const Connection& c : candidates) {
    rsn::ElemId hints[2] = {rsn::no_elem, network.scan_in()};
    if (policy == ResolutionPolicy::PreferScanIn)
      std::swap(hints[0], hints[1]);
    combos.push_back({c, hints[0]});
    // A hint-insensitive cut yields the same trial for both hints;
    // evaluating it twice cannot change the selection (identical pairs
    // and ops lose every strict tie-break), so the duplicate is skipped.
    if (!cut_is_hint_insensitive(view, c)) combos.push_back({c, hints[1]});
  }
  std::vector<std::size_t> pairs(combos.size(), 0);
  std::vector<int> ops(combos.size(), 0);
  pool.parallel_chunks(
      0, combos.size(),
      [&](std::size_t cb, std::size_t ce, std::size_t) {
        // The slot's working copy, cut scratch and counter serve every
        // trial of the chunk: each trial edits the copy, is counted, and
        // is rolled back. A chunk that throws keeps its slot out of
        // rotation (its copy may be mid-trial); the resolution aborts.
        TrialSlots::Slot& slot = slots.acquire();
        for (std::size_t i = cb; i < ce; ++i) {
          ops[i] = cut_connection(slot.network, view, combos[i].cut,
                                  combos[i].hint, slot.scratch);
          pairs[i] = slot.count(slot.network);
          slot.network.restore(network);
          if (cycle_walks != nullptr)
            cycle_walks->add(slot.scratch.cycle_walks);
          slot.scratch.cycle_walks = 0;
        }
        slots.release(slot);
      },
      /*grain=*/0);
  if (trace != nullptr) {
    trace->counter("rewire.trials").add(combos.size());
    trace->counter("resolve.candidates_evaluated").add(combos.size());
  }

  Selection best;
  for (std::size_t i = 0; i < combos.size(); ++i) {
    if (pairs[i] >= current_pairs) continue;
    if (policy != ResolutionPolicy::BestGlobal) {
      return {true, combos[i].cut, combos[i].hint, pairs[i], ops[i]};
    }
    if (!best.found || pairs[i] < best.residual_pairs ||
        (pairs[i] == best.residual_pairs && ops[i] < best.operations)) {
      best = {true, combos[i].cut, combos[i].hint, pairs[i], ops[i]};
    }
  }
  return best;
}

bool Rewirer::cut_is_hint_insensitive(const CommittedView& view,
                                      const Connection& c) {
  // The reconnect hint is consulted only by repair_dangling_input, which
  // runs when the cut leaves a non-mux input dangling. A cut that merely
  // shrinks a multi-input mux and does not orphan its source produces
  // the same network for every hint.
  const Rsn& network = view.network();
  const rsn::Element& to_elem = network.elem(c.to);
  if (to_elem.kind != ElemKind::Mux || to_elem.inputs.size() <= 1)
    return false;
  return !(network.elem(c.from).kind != ElemKind::ScanIn &&
           view.fanout().of(c.from).size() == 1);
}

int Rewirer::cut_connection(Rsn& network, const Connection& c,
                            ElemId reconnect_hint) {
  const CommittedView view(network);
  Scratch scratch;
  return cut_connection(network, view, c, reconnect_hint, scratch);
}

int Rewirer::cut_connection(Rsn& network, const CommittedView& view,
                            const Connection& c, ElemId reconnect_hint,
                            Scratch& scratch) {
  const Rsn& pre = view.network();
  assert(network.elem(c.to).inputs.at(c.port) == c.from);
  assert(pre.elem(c.to).inputs == network.elem(c.to).inputs);
  int ops = 1;
  const rsn::Element& to_elem = pre.elem(c.to);
  const bool mux_shrink =
      to_elem.kind == ElemKind::Mux && to_elem.inputs.size() > 1;
  // `from` is orphaned exactly when this connection is its only fanout
  // (repairs reconnect drivers to `c.to` but never to `from`).
  const bool loses_fanout = pre.elem(c.from).kind != ElemKind::ScanIn &&
                            view.fanout().of(c.from).size() == 1;
  // Predecessor/successor sets *before* the cut, per Sec. III-D: walked
  // over the committed view, only as far as the repairs consult them.
  CycleCheck check(network, &view, &scratch.cycle_walks);
  if (mux_shrink) {
    network.remove_mux_input(c.to, c.port);
  } else {
    network.disconnect(c.to, c.port);
    PreCutWalk preds(view, c.to, /*forward=*/false, scratch);
    ops += repair_dangling_input(
        network, c.to, c.port, [&preds] { return preds.next(); }, check,
        c.from, reconnect_hint);
  }
  if (loses_fanout) {
    PreCutWalk succs(view, c.from, /*forward=*/true, scratch);
    ops += repair_lost_fanout(
        network, c.from, [&succs] { return succs.next(); }, check, c.to);
  }
  return ops;
}

int Rewirer::isolate_register_output(Rsn& network, ElemId reg) {
  assert(network.elem(reg).kind == ElemKind::Register);
  int ops = 0;
  for (;;) {
    auto fo = network.fanouts(reg);
    if (fo.empty()) break;
    auto [to, port] = fo.front();
    const rsn::Element& te = network.elem(to);
    ++ops;
    if (te.kind == ElemKind::Mux && te.inputs.size() > 1) {
      network.remove_mux_input(to, port);
    } else {
      // Every iteration edits the network, so there is no committed
      // view to walk or rank: the predecessors are collected eagerly and
      // every cycle check walks.
      const std::vector<ElemId> pre_preds = network.reaching(to);
      std::size_t next = 0;
      CycleCheck check(network, nullptr, nullptr);
      network.disconnect(to, port);
      ops += repair_dangling_input(
          network, to, port,
          [&] {
            return next < pre_preds.size() ? pre_preds[next++] : rsn::no_elem;
          },
          check, reg, rsn::no_elem);
    }
  }
  network.attach_to_scan_out(reg);
  ++ops;
  return ops;
}

}  // namespace rsnsec::security
