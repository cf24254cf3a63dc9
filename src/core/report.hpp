#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/tool.hpp"

namespace rsnsec {

/// One aggregated row of the Table I reproduction: averages over all
/// (circuit, specification) runs of one benchmark, as the paper averages
/// over 10 circuits x 16 specifications.
struct BenchRow {
  std::string name;
  std::size_t registers = 0;
  std::size_t scan_ffs = 0;
  std::size_t muxes = 0;
  double avg_violating_registers = 0.0;
  double avg_changes_pure = 0.0;
  double avg_changes_hybrid = 0.0;
  double avg_changes_total = 0.0;
  double t_dependency = 0.0;
  double t_pure = 0.0;
  double t_hybrid = 0.0;
  double t_total = 0.0;
  int runs = 0;                 ///< runs included in the averages
  int skipped_insecure = 0;     ///< specs rejected: insecure circuit logic
  int skipped_no_violation = 0; ///< specs rejected: nothing to resolve
};

/// Accumulates PipelineResults into a BenchRow (averaging on finish).
class RowAccumulator {
 public:
  explicit RowAccumulator(std::string name) { row_.name = std::move(name); }

  /// Records the structural counts (taken from the original network).
  void set_structure(std::size_t registers, std::size_t scan_ffs,
                     std::size_t muxes);

  /// Adds one secured run to the averages.
  void add(const PipelineResult& result);

  void add_skipped_insecure() { ++row_.skipped_insecure; }
  void add_skipped_no_violation() { ++row_.skipped_no_violation; }

  /// Finalizes and returns the averaged row.
  BenchRow finish() const;

 private:
  BenchRow row_;
};

/// Writes one pipeline result as a JSON object (machine-readable audit
/// record: phase timings, statistics, and the full change log).
void write_json(std::ostream& os, const PipelineResult& result);

/// Deterministic summary of one `analyze` run (core/analyze): counts and
/// modes only, no timings. Shared by the CLI's `analyze --json` output and
/// the serve daemon's analyze replies — one analyze body and one emitter
/// make a request through the daemon byte-identical to a one-shot CLI run
/// of the same design.
struct AnalyzeReport {
  bool insecure_logic = false;
  bool intra_segment = false;
  std::size_t pure_violating_pairs = 0;
  std::size_t hybrid_violating_pairs = 0;
  std::size_t violating_registers = 0;
  dep::DepMode dep_mode = dep::DepMode::Exact;
  bool dep_ternary_prefilter = true;
  dep::PartitionMode dep_partition = dep::PartitionMode::Auto;
  bool dep_tiled = false;
  dep::DepStats dep_stats;
};

/// Writes the analyze summary as a single-line JSON object, no trailing
/// newline (the CLI appends one; the daemon embeds it in a reply frame),
/// under a `report.emit` span.
void write_analyze_json(std::ostream& os, const AnalyzeReport& r);

}  // namespace rsnsec
