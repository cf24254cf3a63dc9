#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rsnsec::netlist {

/// Identifier of a node (gate, input, constant or flip-flop) in a Netlist.
using NodeId = std::uint32_t;
constexpr NodeId no_node = 0xffffffffu;

/// Identifier of a module (instrument/core) of the circuit; modules carry
/// the trust annotation of the security specification.
using ModuleId = std::int32_t;
constexpr ModuleId no_module = -1;

/// Gate/node types supported by the netlist model.
enum class GateType : std::uint8_t {
  Input,   ///< primary input (free value each cycle)
  Const0,  ///< constant 0
  Const1,  ///< constant 1
  Buf,     ///< identity, 1 fanin
  Not,     ///< inverter, 1 fanin
  And,     ///< n-ary AND
  Nand,    ///< n-ary NAND
  Or,      ///< n-ary OR
  Nor,     ///< n-ary NOR
  Xor,     ///< n-ary XOR
  Xnor,    ///< n-ary XNOR
  Mux,     ///< 2:1 multiplexer, fanins = [sel, in0, in1]
  FF       ///< D flip-flop, fanins = [d] (may be set after creation)
};

/// Returns a short mnemonic for a gate type ("AND", "FF", ...).
const char* gate_type_name(GateType t);

/// True for the nodes that bound a combinational cone: flip-flops (their
/// output is state), primary inputs and constants.
inline bool is_comb_leaf(GateType t) {
  return t == GateType::FF || t == GateType::Input ||
         t == GateType::Const0 || t == GateType::Const1;
}

/// One node of the netlist.
struct Node {
  GateType type = GateType::Buf;
  std::vector<NodeId> fanins;
  std::string name;
  ModuleId module = no_module;
};

/// Combinational input cone of a signal: all gates between the root signal
/// and the nearest sequential/primary leaves, in topological (leaves-first)
/// order. If the root is itself a leaf node (flip-flop output, input or
/// constant), the cone is degenerate: no gates, leaves == {root}.
struct Cone {
  NodeId root = no_node;
  std::vector<NodeId> gates;   ///< combinational gates, topologically sorted
  std::vector<NodeId> leaves;  ///< flip-flops, inputs and constants feeding it
};

/// Gate-level sequential circuit: the "underlying circuit logic" of the
/// paper. Nodes are gates, primary inputs and D flip-flops; every node
/// optionally belongs to a module (instrument). Every fanin is a node that
/// already exists when it is connected, so node-id order is a topological
/// order of the combinational logic and no netlist holds a combinational
/// loop or a dangling fanin.
class Netlist {
 public:
  /// Registers a module and returns its id.
  ModuleId add_module(std::string name);

  /// Number of registered modules.
  std::size_t num_modules() const { return module_names_.size(); }

  /// Name of module `m`.
  const std::string& module_name(ModuleId m) const {
    return module_names_[static_cast<std::size_t>(m)];
  }

  /// Adds a primary input.
  NodeId add_input(std::string name, ModuleId module = no_module);

  /// Adds a constant node.
  NodeId add_const(bool value);

  /// Adds a combinational gate with the given fanins. Throws
  /// std::invalid_argument, leaving the netlist unchanged, on a fanin
  /// that is not yet a node or a wrong BUF/NOT/MUX fanin count.
  NodeId add_gate(GateType type, std::vector<NodeId> fanins,
                  std::string name = {}, ModuleId module = no_module);

  /// Adds a D flip-flop; its data input may be left unset and assigned
  /// later with set_ff_input (useful when building cyclic sequential
  /// structures). Throws std::invalid_argument on a data input that is
  /// not yet a node.
  NodeId add_ff(std::string name, ModuleId module = no_module,
                NodeId d = no_node);

  /// Sets (or replaces) the data input of flip-flop `ff`; any existing
  /// node, `ff` itself included, may drive it. Throws
  /// std::invalid_argument on a data input that is not a node.
  void set_ff_input(NodeId ff, NodeId d);

  /// Total number of nodes.
  std::size_t num_nodes() const { return nodes_.size(); }

  /// Node accessor.
  const Node& node(NodeId id) const {
    return nodes_[static_cast<std::size_t>(id)];
  }

  /// True if `id` is a flip-flop.
  bool is_ff(NodeId id) const { return node(id).type == GateType::FF; }

  /// All flip-flop ids, in creation order.
  const std::vector<NodeId>& ffs() const { return ffs_; }

  /// All primary input ids, in creation order.
  const std::vector<NodeId>& inputs() const { return inputs_; }

  /// Extracts the combinational cone of the signal *at* node `net` (the
  /// value observable on its output). If `net` is a flip-flop, input or
  /// constant, the cone is degenerate (leaves == {net}). Used for capture
  /// sources: capturing a flip-flop's output captures its current state.
  /// Convenience for one-off cones: it builds a ConeWorkspace per call,
  /// so loops over many cones extract through one workspace instead.
  Cone extract_signal_cone(NodeId net) const;

  /// Extracts the next-state cone of flip-flop `ff` (the cone of its data
  /// input signal). An unconnected flip-flop yields an empty cone. Same
  /// convenience as extract_signal_cone.
  Cone extract_next_state_cone(NodeId ff) const;

  /// Checks that every flip-flop has a data input (everything else holds
  /// by construction). Returns true when valid; otherwise fills `error`
  /// with a diagnostic.
  bool validate(std::string* error = nullptr) const;

 private:
  std::vector<Node> nodes_;
  std::vector<NodeId> ffs_;
  std::vector<NodeId> inputs_;
  std::vector<std::string> module_names_;
};

/// Evaluates a single gate function over 64-bit parallel bit patterns.
/// `fanin_values` are the packed values of the gate's fanins in order.
std::uint64_t eval_gate(GateType type, const std::uint64_t* fanin_values,
                        std::size_t n);

}  // namespace rsnsec::netlist
