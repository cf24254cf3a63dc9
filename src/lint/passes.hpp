#pragma once

#include <memory>

#include "lint/pass.hpp"

namespace rsnsec::lint {

/// Built-in pass factories. Diagnostic-code catalog (codes are stable;
/// wording is not):
///
///   NET001  multi-driver net (two nodes produce the same net name)
///   NET002  combinational loop (emitted by the file driver for the
///           Verilog reader's loop error; a Netlist cannot hold a loop)
///   NET003  dangling input: FF without data input, n-ary gate with fewer
///           than 2 fanins (Netlist::add_gate rejects bad fanin ids and
///           wrong BUF/NOT/MUX arities)
///   NET004  dead logic (combinational gate consumed by nothing and not a
///           declared output or capture source)               [warning]
///   RSN001  scan-path cycle
///   RSN002  dangling connection (scan-out or register input undriven is
///           an error; an undriven mux input is a warning)
///   RSN003  register unreachable from scan-in
///   RSN004  register inaccessible: the access planner finds no mux
///           configuration with a complete scan path through it (covers
///           the cannot-reach-scan-out side)
///   RSN005  dead mux (drives nothing: warning) / degenerate mux reduced
///           to one input (note)
///   SPEC001 trust category out of range
///   SPEC002 empty accepted-category set
///   SPEC003 module rejects its own trust category
///   SPEC004 spec references a module unknown to the network  [warning]
///   SPEC005 malformed spec file (parse error; emitted by the file
///           driver, which maps security::SpecParseError onto it)
///   INV001  transformation introduced a scan-path cycle
///   INV002  transformation lost a scan register
///   INV003  transformation made a register inaccessible
///   INV004  transformed network fails structural validation
///   IO001   input file could not be parsed (unclassified)
///   IO002   attachment references an unknown circuit net
///   IO003   malformed RSN/ICL/Verilog file (parse error with line
///           number; emitted by the file driver for the strict readers)
std::unique_ptr<Pass> make_netlist_multi_driver_pass();
std::unique_ptr<Pass> make_netlist_dangling_input_pass();
std::unique_ptr<Pass> make_netlist_dead_logic_pass();
std::unique_ptr<Pass> make_rsn_acyclicity_pass();
std::unique_ptr<Pass> make_rsn_connectivity_pass();
std::unique_ptr<Pass> make_rsn_reachability_pass();
std::unique_ptr<Pass> make_rsn_dead_mux_pass();
std::unique_ptr<Pass> make_spec_consistency_pass();
std::unique_ptr<Pass> make_spec_cross_reference_pass();

}  // namespace rsnsec::lint
