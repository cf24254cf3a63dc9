#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace rsnsec {

/// Depth-first cycle search over a directed graph of nodes 0..n-1 given
/// by its input lists: `inputs(id)` is the range of nodes that drive
/// `id`, searched in range order from roots in ascending id order. A node
/// for which `barrier(id)` holds is neither a root nor entered through an
/// edge, so no cycle passes through it (unconnected ports). Its callers
/// are the scan network's (Rsn::is_acyclic, lint RSN001): a netlist needs
/// no search, since its node order is topological by construction.
///
/// Every back edge, from a node to an input still on the DFS stack,
/// closes a cycle and is reported as `on_back_edge(from, to, stack)`:
/// `stack` holds the DFS path as (node, next input index) pairs, root
/// first and `from` last, and `to` is on it. A callback that returns
/// false stops the search. Returns false if a callback stopped it, true
/// otherwise. The callbacks are template parameters, so the search
/// inlines into the validate() calls on every pipeline run.
template <typename Id, typename Inputs, typename Barrier, typename OnBackEdge>
bool search_cycles(std::size_t n, Inputs&& inputs, Barrier&& barrier,
                   OnBackEdge&& on_back_edge) {
  enum class Mark : std::uint8_t { Unseen, OnStack, Done };
  std::vector<Mark> marks(n, Mark::Unseen);
  std::vector<std::pair<Id, std::size_t>> stack;
  for (std::size_t r = 0; r < n; ++r) {
    const Id root = static_cast<Id>(r);
    if (marks[r] != Mark::Unseen || barrier(root)) continue;
    marks[r] = Mark::OnStack;
    stack.emplace_back(root, 0);
    while (!stack.empty()) {
      auto& [id, next] = stack.back();
      const auto& in = inputs(id);
      if (next == in.size()) {
        marks[id] = Mark::Done;
        stack.pop_back();
        continue;
      }
      const Id f = in[next++];
      if (barrier(f)) continue;
      if (marks[f] == Mark::OnStack) {
        if (!on_back_edge(id, f, stack)) return false;
      } else if (marks[f] == Mark::Unseen) {
        marks[f] = Mark::OnStack;
        stack.emplace_back(f, 0);
      }
    }
  }
  return true;
}

}  // namespace rsnsec
