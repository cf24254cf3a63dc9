#pragma once

// Test-only reference implementations of the detect-and-resolve loops.
// Production resolution keeps violation state in a ViolationIndex and
// evaluates candidate cuts as parallel deltas against it, on working
// copies kept in trial slots for the whole run and rolled back after each
// trial. The oracles below
// recompute every query from scratch on the whole network, try the
// candidates one after another on a fresh copy each, and repair with the
// probe-based oracle cut (oracle/rewire_oracle). Both must produce
// bit-identical change logs, stats and final networks.

#include <cstddef>
#include <functional>
#include <vector>

#include "rsn/rsn.hpp"
#include "security/hybrid.hpp"
#include "security/pure.hpp"
#include "security/rewire.hpp"

namespace rsnsec::oracle {

/// Sequential candidate selection: trial-cuts each candidate (with both
/// reconnection variants, a hint-insensitive cut once) in order, each on
/// a fresh copy of `network` with oracle::cut_connection, counts the
/// violating pairs of each trial with `count_pairs`, and selects per
/// `policy` among the trials that leave fewer than `current_pairs`.
security::Rewirer::Selection select_cut(
    const rsn::Rsn& network,
    const std::vector<security::Connection>& candidates,
    const std::function<std::size_t(const rsn::Rsn&)>& count_pairs,
    std::size_t current_pairs, security::ResolutionPolicy policy);

/// PureScanAnalyzer::detect_and_resolve with every violation search and
/// pair count recomputed from scratch.
security::PureStats resolve_pure_from_scratch(
    const security::PureScanAnalyzer& pure, rsn::Rsn& network,
    std::vector<security::AppliedChange>* log,
    security::ResolutionPolicy policy);

/// HybridAnalyzer::detect_and_resolve with every fixpoint recomputed from
/// scratch.
security::HybridStats resolve_hybrid_from_scratch(
    const security::HybridAnalyzer& hybrid, rsn::Rsn& network,
    std::vector<security::AppliedChange>* log,
    security::ResolutionPolicy policy);

}  // namespace rsnsec::oracle
