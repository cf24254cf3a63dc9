#pragma once

#include <iosfwd>
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
/// The same on whole streams (read once, then parsed as above).
Workload attach_design(rsn::RsnDocument doc, std::istream& verilog,
                       std::istream& spec);

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

}  // namespace rsnsec
