#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "netlist/netlist.hpp"

namespace rsnsec::netlist::verilog {

/// Result of parsing a structural Verilog module.
struct ParsedCircuit {
  Netlist netlist;
  /// Net name -> producing node (inputs, gate outputs, flip-flop outputs).
  std::unordered_map<std::string, NodeId> nets;
  /// Declared output port names, in declaration order.
  std::vector<std::string> outputs;
  std::string module_name;
};

/// Parses a flat structural Verilog subset:
///
///   module top(a, b, y);
///     input a, b;
///     output y;
///     wire w1;
///     and g1(w1, a, b);            // and/or/nand/nor/xor/xnor (n-ary)
///     not (y, w1);                 // not/buf (instance name optional)
///     mux m1(y2, sel, d0, d1);     // 2:1 mux primitive
///     (* instrument = "aes" *)     // optional module/instrument tag
///     dff q1(q, d);                // D flip-flop primitive
///   endmodule
///
/// Port directions may also be declared in the header
/// ("module top(input a, output y);"). Constants 1'b0/1'b1 are allowed
/// as gate inputs. Gates may appear in any order (combinational loops are
/// rejected): nodes are created inputs first, then flip-flops, then gates
/// in file order as soon as their fanins exist, in linear time. An
/// `(* instrument = "name" *)` attribute assigns the following primitive
/// to that named instrument (netlist module), created with its first node.
///
/// Throws std::runtime_error ("verilog parse error at line N: ...") on
/// malformed input, including a file that ends early.
ParsedCircuit parse(std::string_view text);
/// The same on a whole stream (read once, then parsed as above).
ParsedCircuit parse(std::istream& is);

/// Writes `nl` as a flat structural Verilog module named `name`, using
/// the subset accepted by parse() (instrument attributes included).
/// Nodes without names get synthetic ones ("n<id>").
void write(std::ostream& os, const Netlist& nl,
           const std::string& name = "top");

}  // namespace rsnsec::netlist::verilog
