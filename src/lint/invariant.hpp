#pragma once

#include <string>
#include <vector>

#include "lint/diagnostic.hpp"
#include "rsn/rsn.hpp"

namespace rsnsec::lint {

/// Post-transformation invariant pass (INV001-INV004).
///
/// The paper's resolution step (Sec. III-D) promises that every applied
/// rewire keeps the RSN cycle-free, keeps every scan register in the
/// network, and keeps every register accessible. This checker snapshots
/// the register set of the pre-transformation network and verifies those
/// promises against any later state — SecureFlowTool runs it after every
/// applied change when PipelineOptions::verify is set, turning
/// silent model corruption into an immediate, located failure.
class InvariantChecker {
 public:
  /// Snapshots the register set of `before` (names, in creation order).
  explicit InvariantChecker(const rsn::Rsn& before);

  /// Checks `after` against the snapshot. Returns all violated
  /// invariants; empty means the transformation state is sound. On a
  /// cyclic network only INV001 is reported (derived checks would be
  /// meaningless noise).
  std::vector<Diagnostic> check(const rsn::Rsn& after) const;

  /// check() + throw std::logic_error with the rendered diagnostics if
  /// any invariant is violated; `context` names the triggering step
  /// (e.g. the applied change's note) in the exception message.
  void require(const rsn::Rsn& after, const std::string& context) const;

 private:
  std::vector<std::string> register_names_;
};

}  // namespace rsnsec::lint
