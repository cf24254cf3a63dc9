// ICL flow: load an IEEE 1687 network description (examples/data/
// soc_demo.icl — a WIR-gated daisy chain of three SIB-wrapped
// instruments), attach a hand-written circuit in which the AES
// instrument's data relays through shared logic into the trace block,
// annotate trust, and run the full pipeline.
//
// Usage: icl_flow [path/to/network.icl]

#include <algorithm>
#include <fstream>
#include <iostream>

#include "core/tool.hpp"
#include "rsn/icl.hpp"
#include "rsn/io.hpp"

using namespace rsnsec;

int main(int argc, char** argv) {
  const char* path = argc > 1 ? argv[1] : "examples/data/soc_demo.icl";
  std::ifstream f(path);
  if (!f) {
    std::cerr << "cannot open " << path
              << " (run from the repository root or pass a path)\n";
    return 1;
  }
  rsn::RsnDocument doc = rsn::icl::load_icl(f);
  std::cout << "loaded " << rsn::summarize(doc.network) << " from " << path
            << "\n";
  std::cout << "instruments:";
  for (const std::string& m : doc.module_names) std::cout << " " << m;
  std::cout << "\n";

  // Locate the elaborated instrument modules.
  auto module_id = [&](const std::string& name) {
    for (std::size_t i = 0; i < doc.module_names.size(); ++i)
      if (doc.module_names[i] == name)
        return static_cast<netlist::ModuleId>(i);
    throw std::runtime_error("module not found: " + name);
  };
  netlist::ModuleId aes = module_id("aes.inst");
  netlist::ModuleId trace = module_id("trace.inst");

  // Underlying circuit: the AES data register captures confidential
  // state; the chip-level WIR updates a control FF whose value flows
  // over glue logic into the trace block's capture source. Confidential
  // data can therefore reach the trace instrument only by riding the
  // scan chain into the WIR first — a hybrid scan path, not insecure
  // circuit logic.
  netlist::ModuleId chip = module_id("Chip");
  netlist::Netlist nl;
  for (const std::string& m : doc.module_names) nl.add_module(m);
  netlist::NodeId aes_state = nl.add_ff("aes_state", aes);
  netlist::NodeId wir_ctl = nl.add_ff("wir_ctl", chip);
  netlist::NodeId glue = nl.add_ff("glue", netlist::no_module);
  netlist::NodeId trace_in = nl.add_ff("trace_in", trace);
  nl.set_ff_input(aes_state, aes_state);
  nl.set_ff_input(wir_ctl, wir_ctl);
  nl.set_ff_input(glue, wir_ctl);
  nl.set_ff_input(trace_in, glue);

  // Attach: AES DR captures the secret; the WIR updates wir_ctl; the
  // trace DR captures trace_in.
  auto find_register = [&](const std::string& name) {
    for (rsn::ElemId r : doc.network.registers())
      if (doc.network.elem(r).name == name) return r;
    throw std::runtime_error("register not found: " + name);
  };
  rsn::ElemId aes_dr = find_register("aes.inst.DR");
  rsn::ElemId trace_dr = find_register("trace.inst.DR");
  rsn::ElemId wir = find_register("wir");
  doc.network.set_capture(aes_dr, 0, aes_state);
  doc.network.set_update(wir, 0, wir_ctl);
  doc.network.set_capture(trace_dr, 0, trace_in);

  // Trust: AES data is category-1-only; the trace block is category 0.
  security::SecuritySpec spec(doc.module_names.size(), 2);
  spec.set_policy(aes, 1, 0b10);
  spec.set_policy(trace, 0, 0b11);

  SecureFlowTool tool(nl, doc.network, spec);
  PipelineResult result = tool.run();
  std::cout << "\nsecured: " << (result.secured ? "yes" : "no") << ", "
            << result.pure.applied_changes << " pure + "
            << result.hybrid.applied_changes << " hybrid changes\n";
  for (const security::AppliedChange& c : result.changes)
    std::cout << "  - " << c.note << "\n";

  const rsn::ScanAccess access = doc.network.scan_access();
  const std::vector<rsn::ElemId>& regs = doc.network.registers();
  std::cout << "all instruments still accessible: "
            << (std::all_of(regs.begin(), regs.end(),
                            [&](rsn::ElemId r) { return access.accessible(r); })
                    ? "yes"
                    : "NO")
            << "\n";

  std::cout << "\nsecured network:\n";
  rsn::write_rsn(std::cout, doc.network, doc.module_names, &nl);
  return result.secured ? 0 : 1;
}
