#include "security/rewire.hpp"

#include <cassert>

#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace rsnsec::security {

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

int Rewirer::repair_dangling_input(Rsn& network, ElemId to, std::size_t port,
                                   const std::vector<ElemId>& pre_preds,
                                   ElemId avoid, ElemId hint) {
  // Reconnect to a multi-cycle predecessor over pure scan paths that does
  // not recreate a cycle (Sec. III-D: "only segments that are multi-cycle
  // predecessors/successors over pure scan paths are connected"); fall
  // back to the scan-in port. A hint (evaluated as a separate repair
  // candidate by the resolver) overrides the default choice. The network
  // is acyclic here, so driving `to` from `cand` closes a cycle exactly
  // when `to` already reaches `cand`.
  if (hint != rsn::no_elem && hint != avoid && hint != to &&
      network.elem(hint).kind != ElemKind::ScanOut &&
      !network.reaches(to, hint)) {
    network.connect(hint, to, port);
    return 1;
  }
  for (ElemId cand : pre_preds) {
    if (cand == avoid || cand == to) continue;
    if (network.elem(cand).kind == ElemKind::ScanOut) continue;
    if (network.reaches(to, cand)) continue;
    network.connect(cand, to, port);
    return 1;
  }
  network.connect(network.scan_in(), to, port);
  return 1;
}

int Rewirer::repair_lost_fanout(Rsn& network, ElemId from,
                                const std::vector<ElemId>& pre_succs,
                                ElemId avoid) {
  // Each repair below adds a path from -> cand to an acyclic network, so
  // it closes a cycle exactly when `cand` already reaches `from`.
  for (ElemId cand : pre_succs) {
    if (cand == avoid || cand == from) continue;
    const ElemKind kind = network.elem(cand).kind;
    if (kind == ElemKind::Mux) {
      if (network.reaches(cand, from)) continue;
      network.add_mux_input(cand, from);
      return 1;
    }
    if (kind == ElemKind::Register) {
      ElemId old_driver = network.elem(cand).inputs[0];
      if (old_driver == rsn::no_elem) {
        if (network.reaches(cand, from)) continue;
        network.connect(from, cand, 0);
        return 1;
      }
      // Insert a fresh 2:1 mux in front of the register ("placing new
      // multiplexers", Sec. IV-C). The mux is allocated before the check,
      // so element ids and names do not depend on its outcome; a rejected
      // mux stays allocated but unconnected.
      ElemId m = network.add_mux(
          "repair_mux_" + std::to_string(network.num_elements()), 2);
      if (network.reaches(cand, from)) continue;
      network.connect(old_driver, m, 0);
      network.connect(from, m, 1);
      network.connect(m, cand, 0);
      return 2;
    }
  }
  return attach_to_scan_out_avoiding(network, from, avoid);
}

int Rewirer::attach_to_scan_out_avoiding(Rsn& network, ElemId from,
                                         ElemId avoid) {
  // Like Rsn::attach_to_scan_out, but never reuses `avoid` as the
  // collector mux (we just disconnected `from` from it; reusing it would
  // silently recreate the cut connection).
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

Rewirer::Selection Rewirer::select_cut_parallel(
    const Rsn& network, const std::vector<Connection>& candidates,
    const TrialCounterFactory& make_counter, std::size_t current_pairs,
    ResolutionPolicy policy, ThreadPool& pool) {
  obs::TraceSession* trace = obs::TraceSession::active();
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
    if (!cut_is_hint_insensitive(network, c)) combos.push_back({c, hints[1]});
  }
  std::vector<std::size_t> pairs(combos.size(), 0);
  std::vector<int> ops(combos.size(), 0);
  pool.parallel_chunks(
      0, combos.size(),
      [&](std::size_t cb, std::size_t ce, std::size_t) {
        // One counter (and thus one set of delta-query scratch buffers)
        // and one working copy of the network per chunk, reused across the
        // chunk's trials: each trial edits the copy, is counted, and is
        // rolled back.
        TrialCounter count = make_counter();
        Rsn trial = network;
        for (std::size_t i = cb; i < ce; ++i) {
          ops[i] = cut_connection(trial, combos[i].cut, combos[i].hint);
          pairs[i] = count(trial);
          trial.restore(network);
        }
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

bool Rewirer::cut_is_hint_insensitive(const Rsn& network,
                                      const Connection& c) {
  // The reconnect hint is consulted only by repair_dangling_input, which
  // runs when the cut leaves a non-mux input dangling. A cut that merely
  // shrinks a multi-input mux and does not orphan its source produces
  // the same network for every hint.
  const rsn::Element& to_elem = network.elem(c.to);
  if (to_elem.kind != ElemKind::Mux || to_elem.inputs.size() <= 1)
    return false;
  return !(network.elem(c.from).kind != ElemKind::ScanIn &&
           network.fanouts(c.from).size() == 1);
}

int Rewirer::cut_connection(Rsn& network, const Connection& c,
                            ElemId reconnect_hint) {
  assert(network.elem(c.to).inputs.at(c.port) == c.from);
  int ops = 1;
  const rsn::Element& to_elem = network.elem(c.to);
  const bool mux_shrink =
      to_elem.kind == ElemKind::Mux && to_elem.inputs.size() > 1;
  // `from` is orphaned exactly when this connection is its only fanout
  // (repairs reconnect drivers to `c.to` but never to `from`).
  const bool loses_fanout = network.elem(c.from).kind != ElemKind::ScanIn &&
                            network.fanouts(c.from).size() == 1;
  // Predecessor/successor sets *before* the cut, per Sec. III-D —
  // computed only for the repairs that actually consult them.
  std::vector<ElemId> pre_preds, pre_succs;
  if (!mux_shrink) pre_preds = network.reaching(c.to);
  if (loses_fanout) pre_succs = network.reachable_from(c.from);

  if (mux_shrink) {
    network.remove_mux_input(c.to, c.port);
  } else {
    network.disconnect(c.to, c.port);
    ops += repair_dangling_input(network, c.to, c.port, pre_preds, c.from,
                                 reconnect_hint);
  }

  if (loses_fanout) ops += repair_lost_fanout(network, c.from, pre_succs, c.to);
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
      std::vector<ElemId> pre_preds = network.reaching(to);
      network.disconnect(to, port);
      ops += repair_dangling_input(network, to, port, pre_preds, reg,
                                   rsn::no_elem);
    }
  }
  network.attach_to_scan_out(reg);
  ++ops;
  return ops;
}

}  // namespace rsnsec::security
