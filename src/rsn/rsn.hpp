#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace rsnsec::rsn {

/// Identifier of an RSN element (port, scan register or scan multiplexer).
using ElemId = std::uint32_t;
constexpr ElemId no_elem = 0xffffffffu;

/// Kind of RSN element.
enum class ElemKind : std::uint8_t { ScanIn, ScanOut, Register, Mux };

/// One scan flip-flop of a scan register, with its optional attachment to
/// the underlying circuit: `capture_src` is the circuit node whose value is
/// loaded in the capture phase; `update_dst` is the circuit flip-flop
/// written in the update phase (Sec. II-A).
struct ScanFF {
  netlist::NodeId capture_src = netlist::no_node;
  netlist::NodeId update_dst = netlist::no_node;
  std::string name;
};

/// One element of the reconfigurable scan network.
struct Element {
  ElemKind kind = ElemKind::Register;
  std::string name;
  /// Driving elements per input port. Registers and the scan-out port have
  /// exactly one port; multiplexers have two or more; the scan-in port has
  /// none. `no_elem` marks a dangling port.
  std::vector<ElemId> inputs;
  /// Multiplexer select (configuration state): index into `inputs`.
  std::size_t sel = 0;
  /// Scan flip-flops, ordered from scan-in side to scan-out side
  /// (registers only).
  std::vector<ScanFF> ffs;
  /// Owning module/instrument (registers only); carries the trust
  /// annotation of the security specification.
  netlist::ModuleId module = netlist::no_module;
};

/// Any-configuration scan access of every element (Rsn::scan_access),
/// indexed by ElemId.
struct ScanAccess {
  std::vector<bool> from_scan_in;  ///< scan-in reaches the element
  std::vector<bool> to_scan_out;   ///< the element reaches scan-out

  /// Some mux configuration puts `id` on a complete scan path.
  bool accessible(ElemId id) const {
    return from_scan_in[id] && to_scan_out[id];
  }
};

/// Reconfigurable scan network (IEEE Std 1687 style): a directed acyclic
/// graph of scan registers and scan multiplexers between a scan-in and a
/// scan-out port. Supports the structural edits (cut, reconnect, mux
/// insertion) the resolution step of the paper applies, and computes
/// active scan paths and any-configuration reachability for the security
/// analysis. Value semantics: copying an Rsn snapshots the topology. The
/// resolver trial-evaluates repair candidates on long-lived working
/// copies, rolls each back to the committed network with restore() after
/// each trial and re-syncs it by copy-assignment after a commit; the
/// copy's edit record (edited()) tells restore() and the violation
/// indexes which input lists a trial changed.
class Rsn {
 public:
  /// Creates a network containing only the scan-in and scan-out ports.
  explicit Rsn(std::string name = "rsn");

  /// A copy reserves exactly the source's elements.
  Rsn(const Rsn&) = default;
  Rsn(Rsn&&) noexcept = default;
  Rsn& operator=(Rsn&&) noexcept = default;
  /// Copy-assignment reuses this network's buffers: elements that exist
  /// on both sides are assigned in place, and element storage that must
  /// grow grows to max(n, 2 x capacity), so re-syncing a working copy
  /// after a commit that added k elements constructs only those k.
  Rsn& operator=(const Rsn& other);

  /// Network name (benchmark name in the harness).
  const std::string& name() const { return name_; }

  /// The scan-in port element.
  ElemId scan_in() const { return scan_in_; }

  /// The scan-out port element.
  ElemId scan_out() const { return scan_out_; }

  /// Adds a scan register with `n_ffs` scan flip-flops owned by `module`.
  ElemId add_register(std::string name, std::size_t n_ffs,
                      netlist::ModuleId module = netlist::no_module);

  /// Adds a scan multiplexer with `n_inputs` (>= 2) input ports.
  ElemId add_mux(std::string name, std::size_t n_inputs);

  /// Connects the output of `from` to input port `port` of `to`,
  /// replacing any previous driver of that port.
  void connect(ElemId from, ElemId to, std::size_t port = 0);

  /// Clears input port `port` of `to` (leaves it dangling).
  void disconnect(ElemId to, std::size_t port = 0);

  /// Removes input port `port` from multiplexer `mux` entirely, shrinking
  /// the port list (a mux reduced to one input keeps that single port and
  /// behaves as a buffer).
  void remove_mux_input(ElemId mux, std::size_t port);

  /// Appends a new input port to multiplexer `mux` driven by `from`;
  /// returns the new port index.
  std::size_t add_mux_input(ElemId mux, ElemId from);

  /// Routes the output of `elem` to the scan-out port: directly if the
  /// port is dangling, via an existing collector mux, or by inserting a
  /// fresh 2:1 mux in front of scan-out. Returns the mux created, or
  /// `no_elem` if none was needed.
  ElemId attach_to_scan_out(ElemId elem);

  /// Mux configuration.
  void set_mux_select(ElemId mux, std::size_t sel);
  std::size_t mux_select(ElemId mux) const { return elem(mux).sel; }

  /// Scan-FF circuit attachment.
  void set_capture(ElemId reg, std::size_t ff, netlist::NodeId src);
  void set_update(ElemId reg, std::size_t ff, netlist::NodeId dst);

  /// Reassigns the owning module of register `reg`. Workload-construction
  /// aid (benchgen re-homes registers to manufacture cross-module flows in
  /// single-module topologies); call before deriving anything from the
  /// module assignment — circuit attachment, specs, token tables.
  void set_module(ElemId reg, netlist::ModuleId module);

  /// Element accessors.
  std::size_t num_elements() const { return elems_.size(); }
  const Element& elem(ElemId id) const {
    return elems_[static_cast<std::size_t>(id)];
  }

  /// All register element ids, in creation order.
  const std::vector<ElemId>& registers() const { return registers_; }

  /// All multiplexer element ids, in creation order.
  const std::vector<ElemId>& muxes() const { return muxes_; }

  /// Total number of scan flip-flops over all registers.
  std::size_t num_scan_ffs() const;

  /// Elements driven by `from` (fanout), as (element, port) pairs.
  std::vector<std::pair<ElemId, std::size_t>> fanouts(ElemId from) const;

  /// True if the connection graph is cycle-free. The paper's resolution
  /// step must maintain this invariant (Sec. III-D).
  bool is_acyclic() const;

  /// Structural sanity: acyclic, every register/scan-out port driven, every
  /// register's output reaches the scan-out port over some configuration,
  /// and every register reachable from scan-in. Fills `error` on failure.
  bool validate(std::string* error = nullptr) const;

  /// The active scan path for the current mux configuration: elements from
  /// scan-in to scan-out, or an empty vector if the configured path is
  /// broken. Determined by a backward walk from scan-out following selected
  /// mux inputs (Sec. II-A).
  std::vector<ElemId> active_path() const;

  /// Any-configuration reachability: true if data shifted out of `from`
  /// can reach an input of `to` under some mux configuration (i.e. `to` is
  /// a multi-cycle successor of `from` over pure scan paths). False for
  /// `from == to`. Walks input lists backward from `to` and stops at
  /// `from`. In an acyclic network, adding an edge `u -> v` closes a cycle
  /// exactly when `u == v || reaches(v, u)`.
  bool reaches(ElemId from, ElemId to) const;

  /// All elements reachable from `from` (excluding `from` itself).
  std::vector<ElemId> reachable_from(ElemId from) const;

  /// All elements that reach `to` (excluding `to` itself).
  std::vector<ElemId> reaching(ElemId to) const;

  /// Scan access of every element from one forward sweep out of scan-in
  /// and one backward sweep out of scan-out: O(elements + connections) for
  /// the whole network. A register is accessible exactly when
  /// find_path_through finds a path through it, cyclic networks included:
  /// the path joins a walk from scan-in with a walk to scan-out.
  ScanAccess scan_access() const;

  /// Rolls this network back to `base`. Contract: `*this` was copied from
  /// `base` and has since changed only through structural edits
  /// (connect, disconnect, add_mux, add_mux_input, remove_mux_input,
  /// attach_to_scan_out). Drops the elements added since, reassigns the
  /// input lists that differ, copies mux selects and resets the auto-mux
  /// counter; allocates nothing once capacities are warm. Visits only
  /// the edit record's ids while it holds a list, every element after it
  /// overflowed, and clears the record.
  void restore(const Rsn& base);

  /// Most ids the edit record lists before it reads "everything changed".
  static constexpr std::size_t edit_record_bound = 64;

  /// The edit record: the ids whose input lists connect, disconnect,
  /// add_mux_input or remove_mux_input (attach_to_scan_out included)
  /// changed since this network was copied or last restore()d, each
  /// once, in first-edit order. Elements added since count as changed
  /// whether listed or not: they are the ids past the base's
  /// num_elements(). nullptr once more than edit_record_bound ids
  /// changed: then anything may have changed, and a long-lived network
  /// (generated, parsed, committed) never carries a growing list. A copy
  /// starts with an empty record; the record never travels with a copy.
  const std::vector<ElemId>* edited() const {
    return edits_.overflow ? nullptr : &edits_.ids;
  }

 private:
  /// The edit record's storage. Copying yields an empty record, so
  /// copying a network costs nothing extra.
  struct EditRecord {
    std::vector<ElemId> ids;
    bool overflow = false;

    EditRecord() = default;
    EditRecord(const EditRecord&) {}
    EditRecord& operator=(const EditRecord&) {
      ids.clear();
      overflow = false;
      return *this;
    }
    EditRecord(EditRecord&&) noexcept = default;
    EditRecord& operator=(EditRecord&&) noexcept = default;
  };

  std::string name_;
  std::vector<Element> elems_;
  std::vector<ElemId> registers_;
  std::vector<ElemId> muxes_;
  ElemId scan_in_ = no_elem;
  ElemId scan_out_ = no_elem;
  int next_auto_mux_ = 0;
  EditRecord edits_;

  Element& mut(ElemId id) { return elems_[static_cast<std::size_t>(id)]; }
  /// Adds `id` to the edit record (see edited()).
  void note_edit(ElemId id);
};

}  // namespace rsnsec::rsn
