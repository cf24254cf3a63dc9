#include "core/tool.hpp"

#include <sstream>
#include <stdexcept>

#include "attack/engine.hpp"
#include "flow/certify.hpp"
#include "lint/invariant.hpp"
#include "obs/trace.hpp"
#include "store/dep_cache.hpp"

namespace rsnsec {

SecureFlowTool::SecureFlowTool(const netlist::Netlist& circuit,
                               rsn::Rsn& network,
                               const security::SecuritySpec& spec,
                               PipelineOptions options)
    : circuit_(circuit),
      network_(network),
      spec_(spec),
      options_(options) {}

PipelineResult SecureFlowTool::run() {
  PipelineResult result;
  result.dep_mode = options_.dep.mode;
  result.dep_ternary_prefilter = options_.dep.ternary_prefilter;
  result.dep_partition = options_.dep.partition;
  obs::TraceSession* trace = obs::TraceSession::active();
  obs::Span total(trace, "pipeline");

  std::string err;
  {
    obs::Span span(trace, "pipeline.validate");
    if (!spec_.validate(&err))
      throw std::invalid_argument("invalid security specification: " + err);
    if (!network_.validate(&err))
      throw std::invalid_argument("invalid scan network: " + err);
    if (!circuit_.validate(&err))
      throw std::invalid_argument("invalid circuit: " + err);
  }

  // Phase 1: data-flow analysis over the circuit logic (Sec. III-A).
  // Computed once, without RSN-internal connections, and reused across
  // every rewiring of the resolution loop.
  dep::DependencyAnalyzer deps(circuit_, network_, options_.dep);
  {
    obs::Span span(trace, "pipeline.dependency");
    result.cache_hit = store::run_with_store(options_.store, deps);
    result.dep_stats = deps.stats();
    result.t_dependency = span.seconds();
  }

  // The static phase: the token table, the hybrid analyzer's fixed
  // graph, the Sec. III-B check and the initial violation count.
  obs::Span static_span(trace, "pipeline.static");
  security::TokenTable tokens(spec_, spec_.num_modules());
  security::HybridAnalyzer hybrid(circuit_, network_, deps, spec_, tokens);

  // Phase 2: insecure circuit logic (Sec. III-B). Such violations exist
  // even without scan infrastructure; they require a circuit redesign.
  result.static_report = hybrid.check_static();
  if (!result.static_report.clean()) {
    static_span.close();
    result.t_total = total.seconds();
    return result;  // secured stays false; network untouched
  }

  // Table I column 5: registers with a violation before the method runs.
  result.initial_violating_registers =
      hybrid.count_violating_registers(network_);
  static_span.close();

  // Debug/verify mode: check the Sec. III-D invariants (cycle-free,
  // every register kept and accessible) after every applied change, not
  // just at the end — a corrupted intermediate state is caught at the
  // rewire that introduced it.
  lint::InvariantChecker invariants(network_);
  security::ChangeCallback on_change;
  if (options_.verify) {
    on_change = [&invariants](const rsn::Rsn& net,
                              const security::AppliedChange& change) {
      invariants.require(net, "'" + change.note + "'");
    };
  }

  // Phase 3: pure scan paths (method of [17]).
  {
    obs::Span span(trace, "pipeline.pure");
    security::PureScanAnalyzer pure(spec_, tokens);
    result.pure =
        pure.detect_and_resolve(network_, &result.changes,
                                options_.resolution, on_change,
                                options_.resolve);
    result.t_pure = span.seconds();
  }

  // Phase 4: hybrid scan paths (Sec. III-C / III-D).
  {
    obs::Span span(trace, "pipeline.hybrid");
    result.hybrid =
        hybrid.detect_and_resolve(network_, &result.changes,
                                  options_.resolution, on_change,
                                  options_.resolve);
    result.t_hybrid = span.seconds();
  }

  {
    obs::Span span(trace, "pipeline.validate");
    if (options_.verify)
      invariants.require(network_, "the full pipeline");
    if (!network_.validate(&err))
      throw std::logic_error("transformed network failed validation: " + err);
  }

  // Defense-in-depth: independent re-verification with the SAT-free
  // certifier. Its fixpoint over-approximates the pipeline's analysis,
  // so an error-level finding here on a network the phases above left
  // "secure" means the pipeline itself is broken — fail loudly.
  if (options_.verify) {
    obs::Span span(trace, "pipeline.certify");
    flow::CertifyResult cert = flow::certify(circuit_, network_, spec_);
    if (!cert.certified()) {
      std::ostringstream os;
      lint::render_text(os, cert.diagnostics);
      throw std::logic_error(
          "secured network failed independent certification:\n" + os.str());
    }
  }
  // Adversarial counterpart of the certifier: replay a bounded battery of
  // differential attack schedules against the secured network. Any leak
  // is a concrete counterexample to the security claim, not a heuristic
  // finding, so it is a hard error like a failed certification.
  if (options_.verify) {
    obs::Span span(trace, "pipeline.attack_probe");
    attack::ProbeStats probe_stats;
    std::optional<std::string> leak = attack::verify_no_leakage(
        circuit_, network_, spec_, {}, &probe_stats);
    result.attack_checked = true;
    result.attack_probes = probe_stats.probes;
    if (leak) {
      throw std::logic_error(
          "secured network leaks under differential attack probe: " + *leak);
    }
  }
  result.secured = true;
  result.t_total = total.seconds();
  return result;
}

}  // namespace rsnsec
