#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/report.hpp"
#include "dep/analyzer.hpp"
#include "netlist/netlist.hpp"
#include "rsn/io.hpp"
#include "security/spec.hpp"

namespace rsnsec {

namespace store {
class ArtifactStore;
}

/// One design as the CLI and the serve daemon load it: the scan network
/// document, the circuit its scan flip-flops attach to, and the security
/// specification.
struct Workload {
  rsn::RsnDocument doc;
  netlist::Netlist circuit;
  security::SecuritySpec spec{1, 1};
};

/// Completes a read network into a Workload: validates the network
/// (Rsn::validate; an error reads "invalid scan network: ...", as from
/// SecureFlowTool), parses the structural Verilog, attaches the document's
/// scan flip-flops to its nets, and reads the specification against the
/// document's module names. Throws the readers' line-numbered errors.
Workload attach_design(rsn::RsnDocument doc, std::string_view verilog,
                       std::string_view spec);

/// One design's texts as a front end received them: the scan network
/// (`.rsn`, or ICL elaborated at `top`), the structural Verilog and the
/// specification. Views; the caller owns the bytes.
struct DesignText {
  std::string_view network;
  std::string_view verilog;
  std::string_view spec;
  bool icl = false;       ///< `network` is ICL, not `.rsn`
  std::string_view top;   ///< ICL top module ("" = the document's top)
};

/// Reads the network text: rsn::read_rsn, or ICL parse and elaborate.
rsn::RsnDocument read_network(const DesignText& text);
/// read_network, then attach_design.
Workload load_design(const DesignText& text);

/// Everything one analyze run computes.
struct AnalyzeResult {
  AnalyzeReport report;
  /// One line per insecure-logic or intra-segment finding
  /// (StaticReport::details), listed by the text output.
  std::vector<std::string> static_details;
  /// True iff the artifact store served the dependency phase.
  bool cache_hit = false;
};

/// The front half of Fig. 2, shared by `rsnsec analyze` and the daemon's
/// analyze requests: dependency analysis (through `store` when given), the
/// insecure-logic and intra-segment checks (Sec. III-B), the pure-path
/// violating pairs ([17]), and one hybrid propagation over the network
/// that yields both the violating-pair count and the violating-register
/// count (Table I, column 5). The network is not modified.
AnalyzeResult analyze(const Workload& w, const dep::DepOptions& options,
                      store::ArtifactStore* store = nullptr);

/// Raised by analyze(DesignText) when the design read but its analysis
/// failed: a fault of the analyzer, not of the texts, whose reader errors
/// propagate with their own types.
struct AnalysisError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The analyze entry point of both front ends (`rsnsec analyze`, the
/// daemon's analyze). With a store, it first runs lookup_report: a hit
/// returns the stored report with cache_hit set, parsing nothing and
/// computing no dependency key. A miss runs load_design and
/// analyze(Workload) (whose dependency snapshot is keyed by the parsed
/// design, so an edit that parses the same still makes no SAT call) and
/// publishes the report; a damaged report is discarded and recomputed.
/// Without a store nothing is hashed. Each outcome counts one store hit
/// or miss.
AnalyzeResult analyze(const DesignText& text, const dep::DepOptions& options,
                      store::ArtifactStore* store = nullptr);

/// The first step of analyze(DesignText) with a store, under an
/// `analyze.lookup` span: the store::analysis_key of the texts, and the
/// report stored under it when there is a readable one (cache_hit set,
/// counted as a store hit). A damaged report is discarded; a miss counts
/// nothing, as the analysis after it counts its own hit or miss.
struct ReportLookup {
  std::string key;
  std::optional<AnalyzeResult> hit;
};
ReportLookup lookup_report(const DesignText& text,
                           const dep::DepOptions& options,
                           store::ArtifactStore& store);

/// Codec of the report artifact: the AnalyzeResult fields but cache_hit
/// (timings, which describe the producing run, are not stored), sealed
/// by a trailing FNV-1a 64 of the bytes before it. The decoder checks the
/// seal first, so any truncation or byte flip raises store::CodecError,
/// and bounds every count and length by the payload's size.
std::string encode_analyze_result(const AnalyzeResult& r);
AnalyzeResult decode_analyze_result(std::string_view payload);

}  // namespace rsnsec
