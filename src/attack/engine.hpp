#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "attack/model.hpp"
#include "benchgen/redteam.hpp"
#include "netlist/netlist.hpp"
#include "rsn/rsn.hpp"
#include "security/spec.hpp"

namespace rsnsec::attack {

struct AttackOptions {
  std::uint64_t seed = 1;
  /// SAT conflict budget per sensitization query and for the cross-check
  /// dependency analysis.
  std::uint64_t sat_conflict_limit = 100000;
  std::size_t gf_rounds = 3;
  std::size_t gf_max_unknowns = 40;
  /// Cross-check every verdict against the dependency matrix and the
  /// SAT-free certifier (leak recovered => violating pair must exist).
  bool cross_check = true;
};

/// Consistency of the attack verdicts with the static analyses. Any
/// inconsistency is a soundness bug in one of the two sides: a recovered
/// leak is a replayed, bit-exact counterexample, so "no violating pair"
/// or a certified network cannot be right at the same time.
struct CrossCheck {
  bool ran = false;
  std::size_t violating_pairs = 0;  ///< dependency-matrix propagation
  bool certified = false;           ///< SAT-free flow certifier verdict
  /// Capture-dependency matrix records the witness's first hop
  /// (secret FF -> carrier scan FF).
  bool dep_secret_edge = false;
  bool consistent = true;
  std::vector<std::string> notes;
};

/// All attack outcomes for one planted scenario.
struct ScenarioResult {
  std::string scenario;
  benchgen::ScenarioKind kind = benchgen::ScenarioKind::PureScanPath;
  std::vector<AttackOutcome> outcomes;
  CrossCheck cross;

  bool any_recovered() const;
  bool any_inconclusive() const;
};

struct AttackReport {
  std::vector<ScenarioResult> scenarios;

  bool any_recovered() const;
  bool any_inconclusive() const;
  /// True if any scenario's verdicts contradict the static analyses.
  bool soundness_bug() const;
};

/// Mounts the ScanSAT and GF-Flush attacks against every scenario and
/// (optionally) cross-checks each verdict against the dependency matrix
/// and `certify` under the scenario's spec.
AttackReport run_attacks(
    const netlist::Netlist& nl, const rsn::Rsn& network,
    const std::vector<benchgen::RedTeamScenario>& scenarios,
    const AttackOptions& options = {});

struct ProbeOptions {
  std::uint64_t seed = 1;
  /// Differential probes (secret-candidate x victim pairs) to run.
  std::size_t max_probes = 12;
  /// Capture/flush/update rounds per probe schedule.
  std::size_t rounds = 2;
  /// Shift-depth cap per round (bounds replay cost on large networks).
  std::size_t max_shift = 512;
};

struct ProbeStats {
  std::size_t probes = 0;
  std::size_t leaks = 0;
};

/// Bounded differential non-leakage probe for secured networks: plants
/// differential secrets into data the spec marks sensitive (scan state
/// and circuit FFs of token-generating modules) and replays generic flush
/// schedules, watching each register whose trust category rejects the
/// secret's module (the only places a leak violates the spec). Returns a
/// description of the first leak found, or nullopt. Sound as a
/// post-`secure` check: any reported leak is a replayed counterexample to
/// the security claim — `secure --verify` treats it as a hard error.
/// Absence of leaks is not a proof (the probe is bounded); the proof side
/// is `certify`.
std::optional<std::string> verify_no_leakage(const netlist::Netlist& nl,
                                             const rsn::Rsn& network,
                                             const security::SecuritySpec& spec,
                                             const ProbeOptions& options = {},
                                             ProbeStats* stats = nullptr);

}  // namespace rsnsec::attack
