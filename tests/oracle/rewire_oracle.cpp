#include "oracle/rewire_oracle.hpp"

#include <cassert>
#include <string>
#include <vector>

namespace rsnsec::oracle {

using rsn::ElemId;
using rsn::ElemKind;
using rsn::Rsn;

namespace {

/// Elements reachable from `from`, in the order of a depth-first walk
/// over one fanout vector per element (consumer id ascending, then port).
std::vector<ElemId> reachable_from(const Rsn& network, ElemId from) {
  std::vector<std::vector<ElemId>> fanout(network.num_elements());
  for (ElemId id = 0; id < network.num_elements(); ++id) {
    for (ElemId in : network.elem(id).inputs)
      if (in != rsn::no_elem) fanout[in].push_back(id);
  }
  std::vector<bool> seen(network.num_elements(), false);
  std::vector<ElemId> queue{from}, out;
  seen[from] = true;
  while (!queue.empty()) {
    ElemId id = queue.back();
    queue.pop_back();
    for (ElemId s : fanout[id]) {
      if (!seen[s]) {
        seen[s] = true;
        out.push_back(s);
        queue.push_back(s);
      }
    }
  }
  return out;
}

int repair_dangling_input(Rsn& network, ElemId to, std::size_t port,
                          const std::vector<ElemId>& pre_preds, ElemId avoid,
                          ElemId hint) {
  if (hint != rsn::no_elem && hint != avoid && hint != to &&
      network.elem(hint).kind != ElemKind::ScanOut) {
    network.connect(hint, to, port);
    if (network.is_acyclic()) return 1;
    network.disconnect(to, port);
  }
  for (ElemId cand : pre_preds) {
    if (cand == avoid || cand == to) continue;
    if (network.elem(cand).kind == ElemKind::ScanOut) continue;
    network.connect(cand, to, port);
    if (network.is_acyclic()) return 1;
    network.disconnect(to, port);
  }
  network.connect(network.scan_in(), to, port);
  return 1;
}

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

int repair_lost_fanout(Rsn& network, ElemId from,
                       const std::vector<ElemId>& pre_succs, ElemId avoid) {
  for (ElemId cand : pre_succs) {
    if (cand == avoid || cand == from) continue;
    const ElemKind kind = network.elem(cand).kind;
    if (kind == ElemKind::Mux) {
      network.add_mux_input(cand, from);
      if (network.is_acyclic()) return 1;
      network.remove_mux_input(cand, network.elem(cand).inputs.size() - 1);
      continue;
    }
    if (kind == ElemKind::Register) {
      ElemId old_driver = network.elem(cand).inputs[0];
      if (old_driver == rsn::no_elem) {
        network.connect(from, cand, 0);
        if (network.is_acyclic()) return 1;
        network.disconnect(cand, 0);
        continue;
      }
      ElemId m = network.add_mux(
          "repair_mux_" + std::to_string(network.num_elements()), 2);
      network.connect(old_driver, m, 0);
      network.connect(from, m, 1);
      network.connect(m, cand, 0);
      if (network.is_acyclic()) return 2;
      // The fresh mux stays allocated but unconnected.
      network.disconnect(m, 0);
      network.disconnect(m, 1);
      network.connect(old_driver, cand, 0);
    }
  }
  return attach_to_scan_out_avoiding(network, from, avoid);
}

}  // namespace

int cut_connection(Rsn& network, const security::Connection& c,
                   ElemId reconnect_hint) {
  assert(network.elem(c.to).inputs.at(c.port) == c.from);
  int ops = 1;
  const rsn::Element& to_elem = network.elem(c.to);
  const bool mux_shrink =
      to_elem.kind == ElemKind::Mux && to_elem.inputs.size() > 1;
  const bool loses_fanout = network.elem(c.from).kind != ElemKind::ScanIn &&
                            network.fanouts(c.from).size() == 1;
  std::vector<ElemId> pre_preds, pre_succs;
  if (!mux_shrink) pre_preds = network.reaching(c.to);
  if (loses_fanout) pre_succs = reachable_from(network, c.from);

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

int isolate_register_output(Rsn& network, ElemId reg) {
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

}  // namespace rsnsec::oracle
