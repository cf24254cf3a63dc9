#pragma once

#include <vector>

#include "dep/analyzer.hpp"
#include "netlist/netlist.hpp"
#include "rsn/rsn.hpp"
#include "security/hybrid.hpp"
#include "security/pure.hpp"
#include "security/spec.hpp"

namespace rsnsec {

namespace store {
class ArtifactStore;
}

/// Options of the end-to-end pipeline.
struct PipelineOptions {
  dep::DepOptions dep;
  /// Optional artifact store (content-addressed cache, src/store). When
  /// set, the dependency analysis is served from the store if a result
  /// for (circuit, RSN, dep options) was published before — bit-identical
  /// to recomputation — and published after a fresh computation. Not
  /// owned; must outlive the pipeline run. nullptr = always recompute.
  store::ArtifactStore* store = nullptr;
  /// Repair-candidate selection strategy (see `rsnsec bench policy`).
  security::ResolutionPolicy resolution =
      security::ResolutionPolicy::BestGlobal;
  /// Resolution-engine execution options: the trial-evaluation thread
  /// count or a shared pool. Results are bit-identical for any choice.
  security::ResolveOptions resolve;
  /// Debug/verify mode (`secure --verify`, the daemon's `verify` field):
  /// three independent re-checks, each throwing std::logic_error on a
  /// finding instead of silently returning a corrupted or leaking model.
  ///  - The lint post-transformation invariant pass (src/lint/invariant.hpp)
  ///    after every applied RSN change and once on the final network
  ///    (cycle introduced, register lost or inaccessible). Costs one cycle
  ///    check and one linear accessibility sweep (Rsn::scan_access) per
  ///    change.
  ///  - The SAT-free certifier (src/flow, `rsnsec certify`) on the secured
  ///    network. It over-approximates the pipeline's own analysis, so a
  ///    violating pair it finds means the pipeline (or its dependency
  ///    analysis) has a bug.
  ///  - The bounded differential attack probe battery
  ///    (attack::verify_no_leakage) on the secured network. Every reported
  ///    leak is a bit-exact replayed counterexample; a clean run is
  ///    evidence, not proof (that side is the certifier).
  bool verify = false;
};

/// Result of one pipeline run (one row of Table I).
struct PipelineResult {
  /// True if the network was transformed into a (data-flow) secure RSN.
  /// False if the circuit logic itself is insecure (Sec. III-B) or an
  /// intra-segment flow blocks RSN-level resolution (see DESIGN.md) — in
  /// those cases the RSN was left untouched.
  bool secured = false;
  security::StaticReport static_report;

  /// Registers with at least one violating flip-flop before the method
  /// was applied (Table I, column 5).
  std::size_t initial_violating_registers = 0;

  /// Echo of the analysis configuration that produced dep_stats, so
  /// reports and benchmark artifacts are self-describing.
  dep::DepMode dep_mode = dep::DepMode::Exact;
  bool dep_ternary_prefilter = true;
  dep::PartitionMode dep_partition = dep::PartitionMode::Auto;

  dep::DepStats dep_stats;
  /// True iff the artifact store served the dependency phase (a hit
  /// restores the cold run's dep_stats, so they cannot tell).
  bool cache_hit = false;
  security::PureStats pure;
  security::HybridStats hybrid;
  std::vector<security::AppliedChange> changes;

  /// Post-secure differential attack probes (verify only).
  bool attack_checked = false;
  std::size_t attack_probes = 0;

  /// Phase runtimes in seconds (Table I, last four columns).
  double t_dependency = 0.0;
  double t_pure = 0.0;
  double t_hybrid = 0.0;
  double t_total = 0.0;

  int total_changes() const {
    return pure.applied_changes + hybrid.applied_changes;
  }
};

/// End-to-end implementation of the proposed method (Fig. 2):
///
///   1. data-flow analysis over the circuit logic (Sec. III-A): SAT-based
///      1-cycle dependencies, bridging of internal flip-flops, multi-cycle
///      closure;
///   2. detection of insecure circuit logic (Sec. III-B) — if the circuit
///      itself violates the specification, no RSN transformation can fix
///      it and the pipeline stops;
///   3. detection and resolution of violations over pure scan paths
///      (method of [17]);
///   4. detection and resolution of violations over hybrid scan paths
///      (Sec. III-C / III-D).
///
/// On success the given RSN has been structurally transformed into a
/// (data-flow) secure RSN that still contains every scan register.
class SecureFlowTool {
 public:
  /// The tool keeps references: `network` is transformed in place.
  SecureFlowTool(const netlist::Netlist& circuit, rsn::Rsn& network,
                 const security::SecuritySpec& spec,
                 PipelineOptions options = {});

  /// Runs the pipeline; returns per-phase statistics and timings.
  PipelineResult run();

 private:
  const netlist::Netlist& circuit_;
  rsn::Rsn& network_;
  const security::SecuritySpec& spec_;
  PipelineOptions options_;
};

}  // namespace rsnsec
