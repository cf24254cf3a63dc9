#include "rsn/access.hpp"

#include <algorithm>

namespace rsnsec::rsn {

void FanoutIndex::rebuild(const Rsn& network) {
  const std::size_t n = network.num_elements();
  fanout_.resize(n);
  for (auto& list : fanout_) list.clear();
  // (consumer id ascending, port ascending) — documented ordering.
  for (ElemId id = 0; id < n; ++id) {
    const Element& e = network.elem(id);
    for (std::size_t p = 0; p < e.inputs.size(); ++p) {
      if (e.inputs[p] != no_elem) fanout_[e.inputs[p]].push_back({id, p});
    }
  }
}

void CommittedView::reset(const Rsn& network) {
  net_ = network;
  reindex();
}

void CommittedView::reindex() {
  fanout_.rebuild(net_);
  ++generation_;
  // Kahn's algorithm over the fanout index, from a stack: scan-in is
  // pushed last among the sources so it pops (and ranks) first, and a
  // scan-out that drives nothing is held back to rank last.
  const std::size_t n = net_.num_elements();
  pending_.assign(n, 0);
  for (ElemId id = 0; id < n; ++id)
    for (ElemId in : net_.elem(id).inputs)
      if (in != no_elem) ++pending_[id];
  const ElemId last =
      fanout_.of(net_.scan_out()).empty() ? net_.scan_out() : no_elem;
  ready_.clear();
  for (ElemId id = 0; id < n; ++id)
    if (pending_[id] == 0 && id != net_.scan_in() && id != last)
      ready_.push_back(id);
  ready_.push_back(net_.scan_in());
  rank_.assign(n, 0);
  std::uint32_t next = 0;
  while (!ready_.empty()) {
    ElemId id = ready_.back();
    ready_.pop_back();
    rank_[id] = next++;
    for (const auto& [consumer, port] : fanout_.of(id))
      if (--pending_[consumer] == 0 && consumer != last)
        ready_.push_back(consumer);
  }
  if (last != no_elem && pending_[last] == 0) rank_[last] = next++;
  if (next != n) rank_.clear();  // a cycle: some elements never ranked
}

std::vector<ElemId> AccessPlanner::find_chain(ElemId from, ElemId to) const {
  // BFS backward over input edges from `to`; reconstruct the chain.
  std::vector<ElemId> parent(net_.num_elements(), no_elem);
  std::vector<bool> seen(net_.num_elements(), false);
  std::vector<ElemId> queue{to};
  seen[to] = true;
  while (!queue.empty()) {
    ElemId cur = queue.back();
    queue.pop_back();
    if (cur == from) {
      std::vector<ElemId> chain;
      for (ElemId e = from; e != no_elem; e = parent[e]) chain.push_back(e);
      return chain;  // ordered from `from` to `to`
    }
    for (ElemId in : net_.elem(cur).inputs) {
      if (in == no_elem || seen[in]) continue;
      seen[in] = true;
      parent[in] = cur;
      queue.push_back(in);
    }
  }
  return {};
}

std::optional<AccessPlan> AccessPlanner::plan(ElemId target) const {
  if (net_.elem(target).kind != ElemKind::Register) return std::nullopt;
  // The network is acyclic, so the ancestors of `target` (upstream chain)
  // and its descendants (downstream chain) are disjoint; concatenating
  // any upstream chain from scan-in with any downstream chain to
  // scan-out yields a realizable active path.
  std::vector<ElemId> up = find_chain(net_.scan_in(), target);
  if (up.empty()) return std::nullopt;
  std::vector<ElemId> down = find_chain(target, net_.scan_out());
  if (down.empty()) return std::nullopt;

  AccessPlan plan;
  plan.target = target;
  plan.path = up;
  plan.path.insert(plan.path.end(), down.begin() + 1, down.end());

  // Mux settings: every mux on the path selects its path predecessor.
  for (std::size_t i = 1; i < plan.path.size(); ++i) {
    const Element& e = net_.elem(plan.path[i]);
    if (e.kind != ElemKind::Mux) continue;
    for (std::size_t p = 0; p < e.inputs.size(); ++p) {
      if (e.inputs[p] == plan.path[i - 1]) {
        plan.mux_settings.emplace_back(plan.path[i], p);
        break;
      }
    }
  }

  // Chain geometry.
  for (ElemId e : plan.path) {
    const Element& el = net_.elem(e);
    if (el.kind != ElemKind::Register) continue;
    if (e == target) {
      plan.position = plan.chain_length;
      plan.width = el.ffs.size();
    }
    plan.chain_length += el.ffs.size();
  }
  return plan;
}

void AccessPlanner::apply(const AccessPlan& plan, Rsn& network) {
  for (auto [mux, sel] : plan.mux_settings)
    network.set_mux_select(mux, sel);
}

bool AccessPlanner::all_registers_accessible() const {
  const ScanAccess access = net_.scan_access();
  return std::all_of(net_.registers().begin(), net_.registers().end(),
                     [&access](ElemId r) { return access.accessible(r); });
}

}  // namespace rsnsec::rsn
