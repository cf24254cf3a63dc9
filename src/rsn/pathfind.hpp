#pragma once

#include <optional>
#include <vector>

#include "rsn/rsn.hpp"

namespace rsnsec::rsn {

/// One mux configuration assignment derived from a planned scan path.
struct MuxSetting {
  ElemId mux = no_elem;
  std::size_t sel = 0;
};

/// A planned single-configuration scan path: the element sequence from the
/// scan-in to the scan-out port, plus the mux selects that make it the
/// active path. Registers not on the path hold their state under CSU
/// semantics, so a plan fully determines which scan flip-flops shift.
struct PathPlan {
  std::vector<ElemId> elements;      ///< scan-in ... scan-out
  std::vector<MuxSetting> settings;  ///< selects for every mux on the path
  /// Scan flip-flops of the planned path as (register, ff) pairs, ordered
  /// from scan-in side to scan-out side — the chain the path produces.
  std::vector<std::pair<ElemId, std::size_t>> chain;

  /// Chain position of scan FF `ff` of register `reg`, or npos.
  std::size_t position_of(ElemId reg, std::size_t ff) const;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
};

class FanoutIndex;

/// Finds a scan-in -> scan-out path that traverses `waypoints` (registers
/// or muxes) in the given order under a *single* mux configuration, or
/// nullopt if no such path exists. The search is a DFS over the product of
/// the element graph and the waypoint progress, so it is linear in
/// edges x (waypoints + 1). Paths in the (acyclic) element graph are
/// simple, so the returned configuration is conflict-free: each traversed
/// mux is assigned exactly one select.
std::optional<PathPlan> find_path_through(const Rsn& network,
                                          const std::vector<ElemId>& waypoints);

/// The same search over `fanout`, a FanoutIndex of `network`, so that many
/// plans on one network index it once.
std::optional<PathPlan> find_path_through(const Rsn& network,
                                          const FanoutIndex& fanout,
                                          const std::vector<ElemId>& waypoints);

/// Applies the plan's mux settings to `network`, making plan.elements the
/// active path.
void apply_plan(Rsn& network, const PathPlan& plan);

}  // namespace rsnsec::rsn
