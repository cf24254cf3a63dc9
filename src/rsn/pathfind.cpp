#include "rsn/pathfind.hpp"

#include <algorithm>

#include "rsn/access.hpp"

namespace rsnsec::rsn {

std::size_t PathPlan::position_of(ElemId reg, std::size_t ff) const {
  for (std::size_t i = 0; i < chain.size(); ++i)
    if (chain[i].first == reg && chain[i].second == ff) return i;
  return npos;
}

std::optional<PathPlan> find_path_through(
    const Rsn& network, const std::vector<ElemId>& waypoints) {
  return find_path_through(network, FanoutIndex(network), waypoints);
}

std::optional<PathPlan> find_path_through(
    const Rsn& network, const FanoutIndex& succ,
    const std::vector<ElemId>& waypoints) {
  const std::size_t n = network.num_elements();
  const std::size_t phases = waypoints.size() + 1;

  std::vector<int> wp_of(n, -1);
  for (std::size_t i = 0; i < waypoints.size(); ++i)
    wp_of[static_cast<std::size_t>(waypoints[i])] = static_cast<int>(i);

  auto state = [phases](ElemId e, std::size_t wp) {
    return static_cast<std::size_t>(e) * phases + wp;
  };

  struct Step {
    ElemId elem = no_elem;  ///< predecessor element (no_elem at scan-in)
    std::size_t wp = 0;     ///< predecessor waypoint progress
    std::size_t port = 0;   ///< input port used to enter this element
  };
  std::vector<char> visited(n * phases, 0);
  std::vector<Step> parent(n * phases);

  std::size_t wp0 =
      wp_of[static_cast<std::size_t>(network.scan_in())] == 0 ? 1 : 0;
  std::vector<std::pair<ElemId, std::size_t>> stack{{network.scan_in(), wp0}};
  visited[state(network.scan_in(), wp0)] = 1;

  constexpr std::size_t no_state = static_cast<std::size_t>(-1);
  std::size_t found = no_state;
  while (!stack.empty() && found == no_state) {
    auto [cur, wp] = stack.back();
    stack.pop_back();
    if (cur == network.scan_out()) {
      if (wp == waypoints.size()) found = state(cur, wp);
      continue;
    }
    for (auto [to, port] : succ.of(cur)) {
      std::size_t nwp = wp;
      int w = wp_of[static_cast<std::size_t>(to)];
      if (w >= 0) {
        // Reaching any waypoint other than the next one in sequence makes
        // this branch unable to satisfy the order: the network is acyclic,
        // so a simple path cannot come back to it later.
        if (static_cast<std::size_t>(w) != wp) continue;
        nwp = wp + 1;
      }
      std::size_t s = state(to, nwp);
      if (visited[s]) continue;
      visited[s] = 1;
      parent[s] = {cur, wp, port};
      stack.push_back({to, nwp});
    }
  }
  if (found == no_state) return std::nullopt;

  PathPlan plan;
  // Walk the parent chain back from (scan_out, all-waypoints-consumed).
  std::size_t s = found;
  std::vector<std::size_t> enter_port;
  while (true) {
    ElemId e = static_cast<ElemId>(s / phases);
    plan.elements.push_back(e);
    const Step& p = parent[s];
    if (p.elem == no_elem) break;
    enter_port.push_back(p.port);
    s = state(p.elem, p.wp);
  }
  std::reverse(plan.elements.begin(), plan.elements.end());
  std::reverse(enter_port.begin(), enter_port.end());

  for (std::size_t i = 1; i < plan.elements.size(); ++i) {
    const Element& e = network.elem(plan.elements[i]);
    if (e.kind == ElemKind::Mux)
      plan.settings.push_back({plan.elements[i], enter_port[i - 1]});
    if (e.kind == ElemKind::Register)
      for (std::size_t f = 0; f < e.ffs.size(); ++f)
        plan.chain.push_back({plan.elements[i], f});
  }
  return plan;
}

void apply_plan(Rsn& network, const PathPlan& plan) {
  for (const MuxSetting& m : plan.settings)
    network.set_mux_select(m.mux, m.sel);
}

}  // namespace rsnsec::rsn
