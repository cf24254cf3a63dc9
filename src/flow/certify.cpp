#include "flow/certify.hpp"

#include <string>

#include "flow/taint.hpp"
#include "obs/trace.hpp"

namespace rsnsec::flow {

using security::TokenSet;

namespace {

std::string module_label(const netlist::Netlist& nl, netlist::ModuleId m) {
  if (m >= 0 && static_cast<std::size_t>(m) < nl.num_modules())
    return "module '" + nl.module_name(m) + "'";
  return "module " + std::to_string(m);
}

struct CodeInfo {
  const char* code;
  const char* what;
  const char* hint;
};

constexpr CodeInfo kCodes[3] = {
    {"CERT001", "certified insecure circuit logic",
     "the flow is in the functional logic alone; redesign the circuit or "
     "relax the specification"},
    {"CERT002", "certified intra-segment flow",
     "the flow stays inside one register's capture/shift/update; redesign "
     "the register, RSN rewiring cannot remove it"},
    {"CERT003", "certified data-flow violation over the scan network",
     "run `rsnsec secure`; on a freshly secured design this indicates a "
     "pipeline bug"},
};

}  // namespace

CertifyResult certify(const netlist::Netlist& nl, const rsn::Rsn& network,
                      const security::SecuritySpec& spec,
                      const CertifyOptions& options) {
  obs::TraceSession* trace = obs::TraceSession::active();
  obs::Span span(trace, "flow.certify");

  CertifyResult result;
  security::TokenTable tokens(spec, spec.num_modules());
  TaintOptions taint_options;
  taint_options.ternary_refine = options.ternary_refine;
  TaintAnalyzer taint(nl, network, spec, tokens, taint_options);

  const TaintStats& ts = taint.stats();
  result.stats.nodes = taint.num_nodes();
  result.stats.edges = ts.circuit_edges + ts.capture_edges + ts.update_edges +
                       ts.shift_edges + ts.rsn_edges;
  result.stats.ternary_discharged = ts.ternary_discharged;

  // The three propagations are nested (circ's edge set is a subset of
  // static's, static's of full's), so every pair found under full
  // classifies into exactly one tier: the innermost that exhibits it.
  std::vector<TokenSet> circ = taint.propagate(TaintTier::CircuitOnly);
  std::vector<TokenSet> stat = taint.propagate(TaintTier::Static);
  std::vector<TokenSet> full = taint.propagate(TaintTier::Full);

  std::size_t emitted[3] = {0, 0, 0};
  std::size_t suppressed[3] = {0, 0, 0};
  for (std::size_t n = 0; n < full.size(); ++n) {
    if (!taint.is_victim(n)) continue;
    const netlist::ModuleId owner = taint.owner_module(n);
    const security::TrustCategory t = spec.policy(owner).trust;
    const TokenSet& bad = tokens.bad(t);
    for (std::size_t k = 0; k < tokens.num_tokens(); ++k) {
      if (!bad.test(k) || !full[n].test(k)) continue;
      ++result.stats.violating_pairs;
      const int cls = circ[n].test(k) ? 0 : stat[n].test(k) ? 1 : 2;
      if (emitted[cls] >= options.max_findings_per_code) {
        ++suppressed[cls];
        continue;
      }
      ++emitted[cls];
      lint::Diagnostic d;
      d.code = kCodes[cls].code;
      d.severity = lint::Severity::Error;
      d.location = "certify: " + taint.node_name(n);
      d.message = std::string(kCodes[cls].what) + ": confidential token " +
                  std::to_string(k) + " reaches " + taint.node_name(n) +
                  " of " + module_label(nl, owner) + " (trust category " +
                  std::to_string(t) + ")";
      d.fix_hint = kCodes[cls].hint;
      result.diagnostics.push_back(std::move(d));
    }
  }
  for (int cls = 0; cls < 3; ++cls) {
    if (suppressed[cls] == 0) continue;
    lint::Diagnostic d;
    d.code = kCodes[cls].code;
    d.severity = lint::Severity::Note;
    d.location = "certify";
    d.message = "and " + std::to_string(suppressed[cls]) + " more " +
                kCodes[cls].code + " finding(s) suppressed (cap " +
                std::to_string(options.max_findings_per_code) + " per code)";
    result.diagnostics.push_back(std::move(d));
  }
  if (options.ternary_refine) {
    lint::Diagnostic d;
    d.code = "CERT004";
    d.severity = lint::Severity::Note;
    d.location = "certify";
    d.message = "ternary refinement proved " +
                std::to_string(ts.ternary_discharged) +
                " structural edge(s) non-functional (fixpoint over " +
                std::to_string(result.stats.edges) + " edges, " +
                std::to_string(result.stats.nodes) + " nodes)";
    result.diagnostics.push_back(std::move(d));
  }

  if (trace != nullptr)
    trace->counter("flow.violating_pairs").add(result.stats.violating_pairs);
  return result;
}

}  // namespace rsnsec::flow
