#include "rsn/access.hpp"

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

std::optional<PathPlan> AccessPlanner::plan(ElemId target) const {
  if (net_.elem(target).kind != ElemKind::Register) return std::nullopt;
  return find_path_through(net_, fanout_, {target});
}

}  // namespace rsnsec::rsn
