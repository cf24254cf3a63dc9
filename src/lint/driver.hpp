#pragma once

#include <optional>
#include <string>
#include <vector>

#include "lint/diagnostic.hpp"
#include "lint/registry.hpp"
#include "netlist/netlist.hpp"
#include "rsn/io.hpp"
#include "security/spec.hpp"

namespace rsnsec::lint {

/// Models loaded from a set of lint input files, plus any diagnostics
/// produced while loading. A strict parser rejecting a file is itself a
/// lint finding: known failure classes (multi-driven nets, combinational
/// loops, undriven nets) are mapped to their stable NET codes by
/// classify_load_error, spec errors to SPEC codes, line-numbered syntax
/// errors of the .rsn, ICL and Verilog readers to IO003, and everything
/// else to IO001.
struct LoadedFiles {
  std::optional<rsn::RsnDocument> doc;
  std::string network_source;

  std::optional<netlist::Netlist> circuit;
  std::vector<netlist::NodeId> circuit_outputs;
  /// Capture-source nodes referenced by the network's attachments (live
  /// roots for the dead-logic pass).
  std::vector<netlist::NodeId> circuit_roots;
  std::string circuit_source;

  std::optional<security::SecuritySpec> spec;
  std::string spec_source;

  std::vector<Diagnostic> diagnostics;
};

/// Maps a loader failure to a stable diagnostic. `path` anchors the
/// location; `what` is the parser's exception message.
Diagnostic classify_load_error(const std::string& path,
                               const std::string& what);

/// Loads lint inputs by file extension: `.rsn` (text RSN), `.icl`
/// (IEEE 1687 ICL subset; `icl_top` selects the top module, empty =
/// auto), `.v` (structural Verilog), `.spec` (security spec). At most
/// one file per kind; a second file of the same kind, or an unknown
/// extension, produces an IO001 diagnostic. Specs are resolved against
/// the network's module names when a network file is also given, so
/// name-based specs lint cleanly.
LoadedFiles load_files(const std::vector<std::string>& paths,
                       const std::string& icl_top = "");

/// load_files + Registry::run over the loaded models; returns load
/// diagnostics followed by pass findings. `jobs` is the pass-level
/// parallelism (0 = auto via RSNSEC_JOBS / hardware concurrency, 1 =
/// sequential); the diagnostic order is identical for any value.
std::vector<Diagnostic> lint_files(const Registry& registry,
                                   const std::vector<std::string>& paths,
                                   const std::string& icl_top = "",
                                   std::size_t jobs = 1);

}  // namespace rsnsec::lint
