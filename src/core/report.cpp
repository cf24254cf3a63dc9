#include "core/report.hpp"

#include <ostream>

#include "obs/trace.hpp"
#include "util/strings.hpp"

namespace rsnsec {

void RowAccumulator::set_structure(std::size_t registers,
                                   std::size_t scan_ffs, std::size_t muxes) {
  row_.registers = registers;
  row_.scan_ffs = scan_ffs;
  row_.muxes = muxes;
}

void RowAccumulator::add(const PipelineResult& result) {
  ++row_.runs;
  row_.avg_violating_registers +=
      static_cast<double>(result.initial_violating_registers);
  row_.avg_changes_pure += result.pure.applied_changes;
  row_.avg_changes_hybrid += result.hybrid.applied_changes;
  row_.avg_changes_total += result.total_changes();
  row_.t_dependency += result.t_dependency;
  row_.t_pure += result.t_pure;
  row_.t_hybrid += result.t_hybrid;
  row_.t_total += result.t_total;
}

BenchRow RowAccumulator::finish() const {
  BenchRow r = row_;
  if (r.runs > 0) {
    double n = r.runs;
    r.avg_violating_registers /= n;
    r.avg_changes_pure /= n;
    r.avg_changes_hybrid /= n;
    r.avg_changes_total /= n;
    r.t_dependency /= n;
    r.t_pure /= n;
    r.t_hybrid /= n;
    r.t_total /= n;
  }
  return r;
}

void write_json(std::ostream& os, const PipelineResult& r) {
  os << "{\n";
  os << "  \"secured\": " << (r.secured ? "true" : "false") << ",\n";
  os << "  \"insecure_logic\": "
     << (r.static_report.insecure_logic ? "true" : "false") << ",\n";
  os << "  \"intra_segment\": "
     << (r.static_report.intra_segment ? "true" : "false") << ",\n";
  os << "  \"initial_violating_registers\": "
     << r.initial_violating_registers << ",\n";
  os << "  \"dependency\": {\n"
     << "    \"mode\": \""
     << (r.dep_mode == dep::DepMode::Exact ? "exact" : "structural")
     << "\",\n"
     << "    \"ternary_prefilter\": "
     << (r.dep_ternary_prefilter ? "true" : "false") << ",\n"
     << "    \"partition\": \"" << dep::partition_name(r.dep_partition)
     << "\",\n"
     << "    \"regions\": " << r.dep_stats.regions << ",\n"
     << "    \"matrix_bytes\": " << r.dep_stats.matrix_bytes << ",\n"
     << "    \"tiles_nonzero\": " << r.dep_stats.tiles_nonzero << ",\n"
     << "    \"tiles_spilled\": " << r.dep_stats.tiles_spilled << ",\n"
     << "    \"circuit_ffs\": " << r.dep_stats.circuit_ffs << ",\n"
     << "    \"internal_ffs\": " << r.dep_stats.internal_ffs << ",\n"
     << "    \"deps_before_bridging\": " << r.dep_stats.deps_before_bridging
     << ",\n"
     << "    \"deps_after_bridging\": " << r.dep_stats.deps_after_bridging
     << ",\n"
     << "    \"sat_calls\": " << r.dep_stats.sat_calls << ",\n"
     << "    \"sat_unknown\": " << r.dep_stats.sat_unknown << ",\n"
     << "    \"sim_resolved\": " << r.dep_stats.sim_resolved << ",\n"
     << "    \"ternary_resolved\": " << r.dep_stats.ternary_resolved
     << ",\n"
     << "    \"solver\": {\n"
     << "      \"solves\": " << r.dep_stats.solver_solves << ",\n"
     << "      \"conflicts\": " << r.dep_stats.solver_conflicts << ",\n"
     << "      \"decisions\": " << r.dep_stats.solver_decisions << ",\n"
     << "      \"propagations\": " << r.dep_stats.solver_propagations
     << ",\n"
     << "      \"restarts\": " << r.dep_stats.solver_restarts << ",\n"
     << "      \"learned\": " << r.dep_stats.solver_learned << ",\n"
     << "      \"lbd_protected\": " << r.dep_stats.lbd_protected << ",\n"
     << "      \"cores_reused\": " << r.dep_stats.cores_reused << ",\n"
     << "      \"rotation_witnesses\": " << r.dep_stats.rotation_witnesses
     << "\n"
     << "    },\n"
     << "    \"threads\": " << r.dep_stats.threads_used << ",\n"
     << "    \"phase_seconds\": {\"one_cycle\": " << r.dep_stats.t_one_cycle
     << ", \"bridge\": " << r.dep_stats.t_bridge
     << ", \"closure\": " << r.dep_stats.t_closure << "}\n"
     << "  },\n";
  os << "  \"changes\": {\n"
     << "    \"pure\": " << r.pure.applied_changes << ",\n"
     << "    \"hybrid\": " << r.hybrid.applied_changes << ",\n"
     << "    \"total\": " << r.total_changes() << ",\n"
     << "    \"log\": [\n";
  for (std::size_t i = 0; i < r.changes.size(); ++i) {
    const security::AppliedChange& c = r.changes[i];
    os << "      {\"note\": \"" << json_escape(c.note)
       << "\", \"rewire_operations\": " << c.rewire_operations << "}"
       << (i + 1 < r.changes.size() ? "," : "") << "\n";
  }
  os << "    ]\n  },\n";
  os << "  \"attack\": {\"checked\": "
     << (r.attack_checked ? "true" : "false")
     << ", \"probes\": " << r.attack_probes << ", \"leaks\": 0},\n";
  os << "  \"runtime_seconds\": {\"dependency\": " << r.t_dependency
     << ", \"pure\": " << r.t_pure << ", \"hybrid\": " << r.t_hybrid
     << ", \"total\": " << r.t_total << "}";
  // When a trace session is active its counter/span rollup rides along in
  // the report, so `--metrics --json` needs no second output file.
  if (obs::TraceSession* trace = obs::TraceSession::active()) {
    os << ",\n  \"observability\": ";
    trace->write_summary_json(os, "  ");
    os << "\n";
  } else {
    os << "\n";
  }
  os << "}\n";
}

void write_analyze_json(std::ostream& os, const AnalyzeReport& r) {
  os << "{\"insecure_logic\": " << (r.insecure_logic ? "true" : "false")
     << ", \"intra_segment\": " << (r.intra_segment ? "true" : "false")
     << ", \"pure_violating_pairs\": " << r.pure_violating_pairs
     << ", \"hybrid_violating_pairs\": " << r.hybrid_violating_pairs
     << ", \"violating_registers\": " << r.violating_registers
     << ", \"dep_mode\": \""
     << (r.dep_mode == dep::DepMode::Exact ? "exact" : "structural")
     << "\", \"dep_ternary_prefilter\": "
     << (r.dep_ternary_prefilter ? "true" : "false")
     << ", \"dep_ternary_resolved\": " << r.dep_stats.ternary_resolved
     << ", \"dep_partition\": \"" << dep::partition_name(r.dep_partition)
     << "\", \"dep_tiled\": " << (r.dep_tiled ? "true" : "false")
     << ", \"dep_regions\": " << r.dep_stats.regions
     << ", \"dep_matrix_bytes\": " << r.dep_stats.matrix_bytes
     << ", \"dep_tiles_nonzero\": " << r.dep_stats.tiles_nonzero
     << ", \"dep_tiles_spilled\": " << r.dep_stats.tiles_spilled << "}";
}

}  // namespace rsnsec
