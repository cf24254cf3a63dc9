// RSN structural passes (RSN001-RSN005). The reachability/accessibility
// pass skips cyclic networks: the acyclicity pass reports the cycle as the
// root cause, and reachability over a cyclic graph would only add derived
// noise.

#include <string>
#include <vector>

#include "lint/passes.hpp"
#include "util/cycle_search.hpp"

namespace rsnsec::lint {

namespace {

using rsn::ElemId;
using rsn::ElemKind;
using rsn::Rsn;

std::string elem_label(const Rsn& net, ElemId id) {
  const rsn::Element& e = net.elem(id);
  switch (e.kind) {
    case ElemKind::ScanIn: return "scan-in port";
    case ElemKind::ScanOut: return "scan-out port";
    case ElemKind::Register: return "register '" + e.name + "'";
    case ElemKind::Mux: return "mux '" + e.name + "'";
  }
  return "element " + std::to_string(id);
}

bool valid_elem(const Rsn& net, ElemId id) {
  return id != rsn::no_elem && id < net.num_elements();
}

class RsnPass : public Pass {
 public:
  bool applicable(const LintInput& in) const override {
    return in.network != nullptr;
  }
};

/// RSN001: cycles in the scan connection graph. The paper's resolution
/// step must keep the network cycle-free (Sec. III-D); a cycle makes
/// active-path and reachability semantics meaningless.
class AcyclicityPass final : public RsnPass {
 public:
  const char* name() const override { return "rsn-acyclicity"; }
  void run(const LintInput& in, Sink& sink) const override {
    const Rsn& net = *in.network;
    search_cycles<ElemId>(
        net.num_elements(),
        [&net](ElemId id) -> const auto& { return net.elem(id).inputs; },
        [&net](ElemId id) { return !valid_elem(net, id); },
        [&](ElemId, ElemId to, const auto& stack) {
          // Walk the DFS stack back to `to` to render the cycle.
          std::string cycle = elem_label(net, to);
          for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
            cycle += " <- " + elem_label(net, it->first);
            if (it->first == to) break;
          }
          sink.add("RSN001", Severity::Error, in.network_source,
                   elem_label(net, to), "scan-path cycle: " + cycle,
                   "cut one connection of the cycle");
          return true;
        });
  }
};

/// RSN002: dangling connections. A register or the scan-out port with an
/// undriven input can never carry data (error); an undriven mux input is
/// representable but selects a broken path (warning). Out-of-range
/// driver ids are always errors.
class ConnectivityPass final : public RsnPass {
 public:
  const char* name() const override { return "rsn-connectivity"; }
  void run(const LintInput& in, Sink& sink) const override {
    const Rsn& net = *in.network;
    for (ElemId id = 0; id < net.num_elements(); ++id) {
      const rsn::Element& e = net.elem(id);
      for (std::size_t p = 0; p < e.inputs.size(); ++p) {
        ElemId drv = e.inputs[p];
        if (drv == rsn::no_elem) {
          if (e.kind == ElemKind::Register || e.kind == ElemKind::ScanOut) {
            sink.add("RSN002", Severity::Error, in.network_source,
                     elem_label(net, id), "input is undriven",
                     "connect a driver (scan-in reaches every segment)");
          } else if (e.kind == ElemKind::Mux) {
            sink.add("RSN002", Severity::Warning, in.network_source,
                     elem_label(net, id),
                     "mux input " + std::to_string(p) +
                         " is undriven (selecting it breaks the path)",
                     "connect the input or remove the mux port");
          }
        } else if (drv >= net.num_elements()) {
          sink.add("RSN002", Severity::Error, in.network_source,
                   elem_label(net, id),
                   "input " + std::to_string(p) + " references invalid "
                   "element id " + std::to_string(drv));
        }
      }
    }
  }
};

/// RSN003 + RSN004: every scan register must be reachable from scan-in
/// (RSN003), and some mux configuration must put it on a complete active
/// path, i.e. it must also reach scan-out (RSN004). The paper's
/// transformation guarantees both for every register it keeps.
class ReachabilityPass final : public RsnPass {
 public:
  const char* name() const override { return "rsn-reachability"; }
  void run(const LintInput& in, Sink& sink) const override {
    const Rsn& net = *in.network;
    for (ElemId id = 0; id < net.num_elements(); ++id) {
      for (ElemId drv : net.elem(id).inputs) {
        // Out-of-range driver ids (reported by RSN002) would corrupt the
        // traversals below, including is_acyclic() itself.
        if (drv != rsn::no_elem && drv >= net.num_elements()) return;
      }
    }
    if (!net.is_acyclic()) return;  // RSN001 reports the root cause
    const rsn::ScanAccess access = net.scan_access();
    for (ElemId r : net.registers()) {
      if (!access.from_scan_in[r]) {
        sink.add("RSN003", Severity::Error, in.network_source,
                 elem_label(net, r), "register is unreachable from scan-in",
                 "connect its segment into the network");
        continue;  // RSN004 would repeat the finding
      }
      if (!access.to_scan_out[r]) {
        sink.add("RSN004", Severity::Error, in.network_source,
                 elem_label(net, r),
                 "no mux configuration puts the register on a complete "
                 "scan path (inaccessible)",
                 "route the register's fanout toward the scan-out port");
      }
    }
  }
};

/// RSN005: suspicious multiplexers — a mux that drives nothing is dead
/// configuration logic (warning); a mux reduced to a single input is a
/// buffer the rewirer may legitimately leave behind (note).
class DeadMuxPass final : public RsnPass {
 public:
  const char* name() const override { return "rsn-dead-mux"; }
  void run(const LintInput& in, Sink& sink) const override {
    const Rsn& net = *in.network;
    std::vector<bool> drives(net.num_elements(), false);
    for (ElemId id = 0; id < net.num_elements(); ++id)
      for (ElemId drv : net.elem(id).inputs)
        if (valid_elem(net, drv)) drives[drv] = true;
    for (ElemId m : net.muxes()) {
      if (!drives[m]) {
        sink.add("RSN005", Severity::Warning, in.network_source,
                 elem_label(net, m), "mux output drives nothing (dead mux)",
                 "remove the mux or route it toward scan-out");
      }
      if (net.elem(m).inputs.size() == 1) {
        sink.add("RSN005", Severity::Note, in.network_source,
                 elem_label(net, m),
                 "mux has a single input (behaves as a buffer)");
      }
    }
  }
};

}  // namespace

std::unique_ptr<Pass> make_rsn_acyclicity_pass() {
  return std::make_unique<AcyclicityPass>();
}
std::unique_ptr<Pass> make_rsn_connectivity_pass() {
  return std::make_unique<ConnectivityPass>();
}
std::unique_ptr<Pass> make_rsn_reachability_pass() {
  return std::make_unique<ReachabilityPass>();
}
std::unique_ptr<Pass> make_rsn_dead_mux_pass() {
  return std::make_unique<DeadMuxPass>();
}

}  // namespace rsnsec::lint
