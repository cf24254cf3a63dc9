#pragma once

#include <cstddef>
#include <vector>

#include "lint/diagnostic.hpp"
#include "netlist/netlist.hpp"
#include "rsn/rsn.hpp"
#include "security/spec.hpp"

namespace rsnsec::flow {

/// Certify diagnostic codes (stable; the CERT family of the lint
/// catalog, reported by `rsnsec certify` and `secure --verify`):
///
///   CERT001  error  certified insecure circuit logic: confidential data
///                   reaches an untrusted flip-flop through the circuit's
///                   functional logic alone; no RSN rewiring can fix it.
///   CERT002  error  certified intra-segment flow: confidential data
///                   reaches an untrusted sink through one register's own
///                   capture/shift/update flow.
///   CERT003  error  certified data-flow violation over the scan network:
///                   confidential data reaches an untrusted flip-flop over
///                   a path using the RSN's inter-register connections —
///                   the class `secure` claims to have eliminated.
///   CERT004  note   ternary-refinement summary: how many structural
///                   edges the pair-ternary evaluator proved
///                   non-functional and excluded from the fixpoint.
///
/// The certifier is a sound over-approximation (see TaintAnalyzer): a
/// clean report proves the absence of every flow the pipeline's exact
/// analysis models; a CERT001-003 finding on a design the pipeline
/// accepted means the pipeline has a bug (which is why secure --verify
/// treats it as a hard error), or that the over-approximation was too
/// coarse for this design (inspect the finding; with --no-ternary the
/// approximation is coarser still).
struct CertifyOptions {
  /// See TaintOptions::ternary_refine.
  bool ternary_refine = true;
  /// Cap per diagnostic code; a final note reports anything truncated.
  std::size_t max_findings_per_code = 16;
};

struct CertifyStats {
  std::size_t nodes = 0;
  std::size_t edges = 0;
  std::size_t ternary_discharged = 0;
  std::size_t violating_pairs = 0;  ///< under the full propagation
};

struct CertifyResult {
  std::vector<lint::Diagnostic> diagnostics;
  CertifyStats stats;

  /// True if no error-severity finding was produced (CERT004 notes do
  /// not affect certification).
  bool certified() const {
    return lint::count_at_least(diagnostics, lint::Severity::Error) == 0;
  }
};

/// Independently re-verifies `network` against `spec`: runs the taint
/// fixpoint at all three tiers and classifies every violating
/// (node, token) pair into CERT001/002/003. SAT-free and sound: a
/// certified() result over-approximates the pipeline's own checks.
CertifyResult certify(const netlist::Netlist& nl, const rsn::Rsn& network,
                      const security::SecuritySpec& spec,
                      const CertifyOptions& options = {});

}  // namespace rsnsec::flow
