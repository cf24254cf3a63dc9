#include "core/analyze.hpp"

#include <stdexcept>

#include "netlist/verilog.hpp"
#include "security/hybrid.hpp"
#include "security/pure.hpp"
#include "security/spec_io.hpp"
#include "store/dep_cache.hpp"
#include "util/strings.hpp"

namespace rsnsec {

Workload attach_design(rsn::RsnDocument doc, std::string_view verilog,
                       std::string_view spec) {
  std::string err;
  if (!doc.network.validate(&err))
    throw std::invalid_argument("invalid scan network: " + err);
  Workload w;
  w.doc = std::move(doc);
  netlist::verilog::ParsedCircuit parsed = netlist::verilog::parse(verilog);
  rsn::apply_attachments(w.doc, parsed.nets);
  w.circuit = std::move(parsed.netlist);
  w.spec = security::read_spec(spec, w.doc.module_names);
  return w;
}

Workload attach_design(rsn::RsnDocument doc, std::istream& verilog,
                       std::istream& spec) {
  return attach_design(std::move(doc), read_all(verilog), read_all(spec));
}

AnalyzeResult analyze(const Workload& w, const dep::DepOptions& options,
                      store::ArtifactStore* store) {
  AnalyzeResult result;
  dep::DependencyAnalyzer deps(w.circuit, w.doc.network, options);
  result.cache_hit = store::run_with_store(store, deps);

  security::TokenTable tokens(w.spec, w.spec.num_modules());
  security::HybridAnalyzer hybrid(w.circuit, w.doc.network, deps, w.spec,
                                  tokens);
  security::StaticReport st = hybrid.check_static();
  security::HybridAnalyzer::ViolationCounts counts =
      hybrid.count_violations(w.doc.network);

  AnalyzeReport& rep = result.report;
  rep.insecure_logic = st.insecure_logic;
  rep.intra_segment = st.intra_segment;
  rep.pure_violating_pairs = security::PureScanAnalyzer(w.spec, tokens)
                                 .count_violating_pairs(w.doc.network);
  rep.hybrid_violating_pairs = counts.pairs;
  rep.violating_registers = counts.registers;
  rep.dep_mode = deps.options().mode;
  rep.dep_ternary_prefilter = deps.options().ternary_prefilter;
  rep.dep_partition = deps.options().partition;
  rep.dep_tiled = deps.tiled();
  rep.dep_stats = deps.stats();
  result.static_details = std::move(st.details);
  return result;
}

}  // namespace rsnsec
