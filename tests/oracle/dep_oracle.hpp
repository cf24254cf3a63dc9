#pragma once

// Test-only reference implementations of the dependency layer. The
// production engine classifies cones with an incremental checker (verdict
// cache, Unsat-core reuse, model rotation) behind a cone-isomorphism
// cache; the oracles below do none of that, so the equivalence suites can
// pin every fast path against plain per-query SAT.

#include <cstdint>
#include <vector>

#include "dep/analyzer.hpp"
#include "netlist/netlist.hpp"
#include "sat/solver.hpp"
#include "util/dep_matrix.hpp"

namespace rsnsec::oracle {

/// Outcome of one query on a freshly built ConeDependenceChecker.
struct FreshQuery {
  sat::Result result = sat::Result::Unknown;
  std::uint64_t conflicts = 0;  ///< solver conflicts this query cost
};

/// Asks a fresh ConeDependenceChecker whether the root of `cone` depends
/// on cone.leaves[leaf_idx]: no verdict from an earlier query, no learned
/// clause and no conflict budget carries over.
FreshQuery fresh_cone_query(const netlist::Netlist& nl,
                            const netlist::Cone& cone, std::size_t leaf_idx,
                            std::uint64_t conflict_limit = 0);

/// From-scratch one-cycle classification of an analysis' circuit: every
/// flip-flop leaf of every next-state and capture cone is a separate
/// fresh_cone_query (no simulation or ternary prefilter, no cone cache,
/// no verdict reuse). Unknown is classified Path, as in the analyzer.
struct DepOracle {
  /// Indexed by the analyzer's dense circuit-FF index.
  DepMatrix one_cycle;
  /// one_cycle bridged and closed with the analyzer's options.
  DepMatrix closure;
  /// capture_deps[k][f]: register k of network().registers(), scan FF f,
  /// sorted by circuit FF.
  std::vector<std::vector<std::vector<dep::CaptureDep>>> capture_deps;
  std::uint64_t queries = 0;  ///< fresh checkers asked
  std::uint64_t functional = 0;
  std::uint64_t structural = 0;
  std::uint64_t unknown = 0;
};

/// Classifies the inputs of `analyzer` (circuit, network, conflict limit
/// and bridging) from scratch. The analyzer must have run, in
/// the dense representation: its FF index and internal set are reused.
DepOracle classify_from_scratch(const dep::DependencyAnalyzer& analyzer);

/// `deps` sorted by (circuit FF, kind), for order-insensitive comparison
/// with DepOracle::capture_deps.
std::vector<dep::CaptureDep> sorted(std::vector<dep::CaptureDep> deps);

}  // namespace rsnsec::oracle
