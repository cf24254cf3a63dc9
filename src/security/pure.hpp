#pragma once

#include <optional>
#include <vector>

#include "rsn/rsn.hpp"
#include "security/rewire.hpp"
#include "security/spec.hpp"

namespace rsnsec::security {

class PureViolationIndex;

/// A detected security violation over a pure scan path: data of some
/// register carrying `token` reaches register `victim` purely over the
/// scan infrastructure; `path` is one witnessing element path from a
/// contributing origin register to the victim.
struct PureViolation {
  rsn::ElemId origin = rsn::no_elem;
  rsn::ElemId victim = rsn::no_elem;
  int token = -1;
  std::vector<rsn::ElemId> path;  ///< origin ... victim (inclusive)
};

/// Statistics of one pure-path detect-and-resolve run.
struct PureStats {
  std::size_t initial_violating_registers = 0;  ///< Table I col. 5 input
  std::size_t initial_violating_pairs = 0;
  int applied_changes = 0;  ///< Table I "pure" changes column
  int rewire_operations = 0;
  int fallback_isolations = 0;
};

/// Detection and resolution of security violations over *pure* scan paths
/// (reimplementation of [17], which the paper applies first — Fig. 2).
///
/// Propagation works at scan-register granularity, which is exact for
/// pure paths: shifting moves data through every flip-flop of every
/// downstream register. Security attributes (tokens) are propagated
/// forward from each register over all mux inputs (any-configuration
/// over-approximation); a violation exists at register y if a token with
/// accepted-mask lacking trust(y) reaches y.
class PureScanAnalyzer {
 public:
  PureScanAnalyzer(const SecuritySpec& spec, const TokenTable& tokens);

  /// Propagated attribute set per element (indexed by ElemId) for the
  /// current topology of `network`.
  std::vector<TokenSet> propagate(const rsn::Rsn& network) const;

  /// Number of registers where at least one violating token arrives.
  std::size_t count_violating_registers(const rsn::Rsn& network) const;

  /// Number of (victim register, token) violating pairs.
  std::size_t count_violating_pairs(const rsn::Rsn& network) const;

  /// Finds one violation (with a witnessing path) or nullopt if secure.
  std::optional<PureViolation> find_violation(const rsn::Rsn& network) const;

  /// Repeatedly detects and resolves violations until the network is
  /// secure w.r.t. pure scan paths. Modifies `network` in place; appends
  /// applied changes to `log`; invokes `on_change` after every applied
  /// change (see ChangeCallback). Returns run statistics.
  ///
  /// Violation state lives in a PureViolationIndex: every query is a
  /// delta against it and candidate trials run in parallel, with
  /// bit-identical change logs, stats and final networks at any thread
  /// count (pinned against a from-scratch oracle in tests/oracle).
  PureStats detect_and_resolve(
      rsn::Rsn& network, std::vector<AppliedChange>* log = nullptr,
      ResolutionPolicy policy = ResolutionPolicy::BestGlobal,
      const ChangeCallback& on_change = {},
      const ResolveOptions& resolve_options = {});

 private:
  friend class PureViolationIndex;
  const SecuritySpec& spec_;
  const TokenTable& tokens_;

  int register_token(const rsn::Rsn& network, rsn::ElemId reg) const;
  bool violates(const rsn::Rsn& network, rsn::ElemId reg,
                const TokenSet& incoming) const;
  /// The first violating register of the propagation `out` of `network`
  /// (registers() order), with a witnessing path found by a backward BFS
  /// over drivers carrying the token. Shared by find_violation and the
  /// violation index, so both return the same witness for the same state.
  std::optional<PureViolation> trace_violation(
      const rsn::Rsn& network, const std::vector<TokenSet>& out) const;
};

}  // namespace rsnsec::security
