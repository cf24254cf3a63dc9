#include "oracle/resolve_oracle.hpp"

#include <stdexcept>
#include <utility>

#include "oracle/rewire_oracle.hpp"

namespace rsnsec::oracle {

using rsn::ElemId;
using rsn::ElemKind;
using security::AppliedChange;
using security::Connection;
using security::ResolutionPolicy;
using security::Rewirer;

namespace {

/// Rewirer::cut_is_hint_insensitive, answered from the network itself:
/// the cut shrinks a multi-input mux and does not orphan its source.
bool hint_insensitive(const rsn::Rsn& network, const Connection& c) {
  const rsn::Element& to = network.elem(c.to);
  if (to.kind != ElemKind::Mux || to.inputs.size() <= 1) return false;
  return network.elem(c.from).kind == ElemKind::ScanIn ||
         network.fanouts(c.from).size() != 1;
}

}  // namespace

Rewirer::Selection select_cut(
    const rsn::Rsn& network, const std::vector<Connection>& candidates,
    const std::function<std::size_t(const rsn::Rsn&)>& count_pairs,
    std::size_t current_pairs, ResolutionPolicy policy) {
  Rewirer::Selection best;
  for (const Connection& c : candidates) {
    std::vector<ElemId> hints{rsn::no_elem, network.scan_in()};
    if (policy == ResolutionPolicy::PreferScanIn)
      std::swap(hints[0], hints[1]);
    if (hint_insensitive(network, c)) hints.resize(1);
    for (ElemId hint : hints) {
      rsn::Rsn trial = network;
      int ops = oracle::cut_connection(trial, c, hint);
      std::size_t pairs = count_pairs(trial);
      if (pairs >= current_pairs) continue;
      if (policy != ResolutionPolicy::BestGlobal) {
        return {true, c, hint, pairs, ops};
      }
      if (!best.found || pairs < best.residual_pairs ||
          (pairs == best.residual_pairs && ops < best.operations)) {
        best = {true, c, hint, pairs, ops};
      }
    }
  }
  return best;
}

security::PureStats resolve_pure_from_scratch(
    const security::PureScanAnalyzer& pure, rsn::Rsn& network,
    std::vector<AppliedChange>* log, ResolutionPolicy policy) {
  security::PureStats stats;
  stats.initial_violating_registers = pure.count_violating_registers(network);
  stats.initial_violating_pairs = pure.count_violating_pairs(network);
  std::size_t cur_pairs = stats.initial_violating_pairs;
  auto count_pairs = [&pure](const rsn::Rsn& n) {
    return pure.count_violating_pairs(n);
  };

  const std::size_t max_iters = 8 * network.registers().size() + 64;
  for (std::size_t iter = 0;; ++iter) {
    std::optional<security::PureViolation> v = pure.find_violation(network);
    if (!v) break;
    if (iter >= max_iters)
      throw std::runtime_error("pure oracle did not converge");

    std::vector<Connection> candidates;
    for (std::size_t i = 0; i + 1 < v->path.size(); ++i) {
      const rsn::Element& to = network.elem(v->path[i + 1]);
      for (std::size_t p = 0; p < to.inputs.size(); ++p) {
        if (to.inputs[p] == v->path[i])
          candidates.push_back({v->path[i], v->path[i + 1], p});
      }
    }
    Rewirer::Selection sel =
        select_cut(network, candidates, count_pairs, cur_pairs, policy);

    AppliedChange change;
    if (sel.found) {
      change.kind = AppliedChange::Kind::CutConnection;
      change.cut = sel.cut;
      change.rewire_operations =
          oracle::cut_connection(network, sel.cut, sel.reconnect_hint);
      change.note = "pure: cut " + network.elem(sel.cut.from).name + " -> " +
                    network.elem(sel.cut.to).name;
      cur_pairs = sel.residual_pairs;
    } else {
      ElemId iso = v->origin;
      for (std::size_t i = 0; i + 1 < v->path.size(); ++i) {
        if (network.elem(v->path[i]).kind == ElemKind::Register)
          iso = v->path[i];
      }
      change.kind = AppliedChange::Kind::IsolateRegister;
      change.isolated = iso;
      change.rewire_operations =
          oracle::isolate_register_output(network, iso);
      change.note = "pure: isolate " + network.elem(iso).name;
      ++stats.fallback_isolations;
      cur_pairs = pure.count_violating_pairs(network);
    }
    ++stats.applied_changes;
    stats.rewire_operations += change.rewire_operations;
    if (log) log->push_back(std::move(change));
  }
  return stats;
}

security::HybridStats resolve_hybrid_from_scratch(
    const security::HybridAnalyzer& hybrid, rsn::Rsn& network,
    std::vector<AppliedChange>* log, ResolutionPolicy policy) {
  security::HybridStats stats;
  stats.initial_violating_registers =
      hybrid.count_violating_registers(network);
  stats.initial_violating_pairs = hybrid.count_violating_pairs(network);
  std::size_t cur_pairs = stats.initial_violating_pairs;
  auto count_pairs = [&hybrid](const rsn::Rsn& n) {
    return hybrid.count_violating_pairs(n);
  };

  const std::size_t max_iters = 8 * network.registers().size() + 64;
  for (std::size_t iter = 0;; ++iter) {
    std::optional<security::HybridAnalyzer::Violation> v =
        hybrid.find_violation(network);
    if (!v) break;
    if (iter >= max_iters)
      throw std::runtime_error("hybrid oracle did not converge");
    if (v->rsn_connections.empty())
      throw std::runtime_error("hybrid oracle: violation without RSN hop");

    Rewirer::Selection sel = select_cut(network, v->rsn_connections,
                                        count_pairs, cur_pairs, policy);

    AppliedChange change;
    if (sel.found) {
      change.kind = AppliedChange::Kind::CutConnection;
      change.cut = sel.cut;
      change.rewire_operations =
          oracle::cut_connection(network, sel.cut, sel.reconnect_hint);
      change.note = "hybrid: cut " + network.elem(sel.cut.from).name +
                    " -> " + network.elem(sel.cut.to).name;
      cur_pairs = sel.residual_pairs;
    } else {
      // The source register of the last RSN hop on the path.
      ElemId iso = v->rsn_connections.front().from;
      for (auto it = v->rsn_connections.rbegin();
           it != v->rsn_connections.rend(); ++it) {
        if (network.elem(it->from).kind == ElemKind::Register) {
          iso = it->from;
          break;
        }
      }
      if (network.elem(iso).kind != ElemKind::Register)
        throw std::runtime_error("hybrid oracle: no register to isolate");
      change.kind = AppliedChange::Kind::IsolateRegister;
      change.isolated = iso;
      change.rewire_operations =
          oracle::isolate_register_output(network, iso);
      change.note = "hybrid: isolate " + network.elem(iso).name;
      ++stats.fallback_isolations;
      cur_pairs = hybrid.count_violating_pairs(network);
    }
    ++stats.applied_changes;
    stats.rewire_operations += change.rewire_operations;
    if (log) log->push_back(std::move(change));
  }
  return stats;
}

}  // namespace rsnsec::oracle
