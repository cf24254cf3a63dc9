#pragma once

// Small hand-built models shared by the codec suites: each exercises the
// encoding's corner cases (forward FF references, constants, a dangling
// mux port, a degenerate 1-input mux).

#include "netlist/netlist.hpp"
#include "rsn/rsn.hpp"

namespace rsnsec::store {

inline netlist::Netlist example_netlist() {
  using netlist::GateType;
  netlist::Netlist nl;
  netlist::ModuleId core = nl.add_module("core");
  netlist::ModuleId instr = nl.add_module("instrument");
  netlist::NodeId in0 = nl.add_input("in0", core);
  nl.add_const(false);
  netlist::NodeId one = nl.add_const(true);
  netlist::NodeId g =
      nl.add_gate(GateType::And, {in0, one}, "g_and", instr);
  netlist::NodeId f1 = nl.add_ff("ff1", core);
  netlist::NodeId f2 = nl.add_ff("ff2", instr, g);
  netlist::NodeId inv = nl.add_gate(GateType::Not, {f2});
  // Forward reference: ff1's data input has a higher node id, so the
  // decoder must defer FF inputs until all nodes exist.
  nl.set_ff_input(f1, inv);
  return nl;
}

inline rsn::Rsn example_rsn() {
  rsn::Rsn net("example");
  rsn::ElemId r1 = net.add_register("r1", 2, 0);
  rsn::ElemId r2 = net.add_register("r2", 1);
  rsn::ElemId m = net.add_mux("m", 3);
  rsn::ElemId buf = net.add_mux("buf", 2);
  net.remove_mux_input(buf, 1);  // degenerate 1-input mux
  net.connect(net.scan_in(), r1, 0);
  net.connect(r1, m, 0);
  net.connect(net.scan_in(), r2, 0);
  net.connect(r2, m, 1);  // mux port 2 stays dangling
  net.connect(m, buf, 0);
  net.connect(buf, net.scan_out(), 0);
  net.set_mux_select(m, 1);
  net.set_capture(r1, 0, 5);
  net.set_update(r1, 1, 7);
  return net;
}

}  // namespace rsnsec::store
