#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "netlist/cone_workspace.hpp"
#include "netlist/netlist.hpp"
#include "rsn/rsn.hpp"
#include "security/spec.hpp"

namespace rsnsec::flow {

/// Edge families enabled for one taint propagation, mirroring the three
/// scopes of HybridAnalyzer (circuit-only / static / full) so certify's
/// findings classify the same way the pipeline's checks do.
enum class TaintTier : std::uint8_t {
  /// Circuit next-state edges only; only circuit nodes are seeded. A
  /// violation here is reachable through the functional logic alone and
  /// cannot be removed by rewiring the RSN (Sec. III-B).
  CircuitOnly,
  /// + intra-register shift order, capture cones, update connections.
  /// Scan-infrastructure-independent: valid for every RSN wiring.
  Static,
  /// + inter-register RSN edges of the concrete network under test.
  Full
};

struct TaintOptions {
  /// Drop capture/next-state edges the pair-ternary evaluator proves
  /// non-functional (flow::TernaryEvaluator). Keeps the fixpoint a sound
  /// over-approximation of the SAT-exact closure while discharging the
  /// planted reconvergences that a purely structural analysis cannot see
  /// through; with this off the fixpoint over-approximates even the
  /// StructuralOnly closure (the soundness ladder flow_tests assert).
  bool ternary_refine = true;
};

/// Size/precision counters of one TaintAnalyzer construction.
struct TaintStats {
  std::size_t scan_nodes = 0;
  std::size_t circuit_nodes = 0;
  std::size_t internal_ffs = 0;  ///< transit-only (not seeded, not victims)
  std::size_t circuit_edges = 0;
  std::size_t capture_edges = 0;
  std::size_t update_edges = 0;
  std::size_t shift_edges = 0;
  std::size_t rsn_edges = 0;
  /// Capture/next-state edges removed by the ternary refinement (0 with
  /// TaintOptions::ternary_refine off).
  std::size_t ternary_discharged = 0;
};

/// Structural taint fixpoint over the netlist + RSN graph — the abstract
/// interpreter behind `rsnsec certify`.
///
/// Deliberately an *independent* re-implementation of the flow model:
/// it shares no code with DependencyAnalyzer or HybridAnalyzer (no SAT,
/// no simulation, no dependency matrices) so that a bug in the pipeline's
/// machinery cannot silently hide in its own re-verification. Everything
/// is derived directly from the netlist and the RSN:
///  - per-FF structural edges from each flip-flop's next-state cone and
///    each scan FF's capture cone (optionally refined by the pair-ternary
///    evaluator, which proves a slice of them non-functional);
///  - intra-register shift order, update connections, and inter-register
///    reachability over mux-only RSN chains (visited-set BFS — complete,
///    unlike the resolution engine's per-register chain cap);
///  - token propagation to a fixed point, per TaintTier.
///
/// Soundness: every edge the SAT-exact analysis can justify is present
/// (structural superset), internal flip-flops stay in the graph as
/// transit nodes (bridging composes paths; keeping the nodes preserves
/// the same reachability), and the ternary refinement only removes edges
/// it *proves* carry no data. Hence the fixpoint over-approximates the
/// pipeline's propagation: any violating pair the pipeline can detect is
/// also detected here.
class TaintAnalyzer {
 public:
  TaintAnalyzer(const netlist::Netlist& nl, const rsn::Rsn& network,
                const security::SecuritySpec& spec,
                const security::TokenTable& tokens, TaintOptions options = {});

  /// Token fixpoint over the edge families of `tier`, one TokenSet per
  /// node (layout: [scan FFs by register, flattened][circuit FFs]).
  std::vector<security::TokenSet> propagate(TaintTier tier) const;

  std::size_t num_nodes() const { return owner_module_.size(); }
  std::size_t scan_node(rsn::ElemId reg, std::size_t ff) const {
    return scan_base_[static_cast<std::size_t>(reg)] + ff;
  }
  std::size_t num_circuit_ffs() const { return ff_nodes_.size(); }
  netlist::NodeId circuit_ff(std::size_t i) const { return ff_nodes_[i]; }
  /// Node index of circuit FF `i` (inverse of the circuit slice of the
  /// node layout; flow_tests use it to align taint nodes with
  /// DependencyAnalyzer's circuit indices).
  std::size_t circuit_node(std::size_t i) const { return circuit_base_ + i; }
  /// True if circuit FF i is not directly connected to the RSN (neither
  /// an update target nor a capture-cone leaf). Internal FFs are transit
  /// nodes: never seeded and never counted as violation victims,
  /// mirroring the pipeline's bridged relation.
  bool is_internal(std::size_t i) const { return internal_[i]; }
  /// True if `node` can hold a violating token (annotated module, and not
  /// an internal circuit FF).
  bool is_victim(std::size_t node) const;
  netlist::ModuleId owner_module(std::size_t node) const {
    return owner_module_[node];
  }
  /// Human-readable node label for diagnostics.
  std::string node_name(std::size_t node) const;

  /// Reachability over the circuit edge family alone: entry (i, j) true
  /// if circuit FF j is reachable from circuit FF i over one or more
  /// next-state edges (through internal transit FFs included). This is
  /// what flow_tests compare against DependencyAnalyzer's closure
  /// matrices to check the soundness ladder.
  std::vector<std::vector<bool>> circuit_reachability() const;

  const TaintStats& stats() const { return stats_; }
  const TaintOptions& options() const { return options_; }

 private:
  // Both extract their cones through the constructor's one workspace.
  void build_nodes(const rsn::Rsn& network, netlist::ConeWorkspace& ws);
  void build_edges(const rsn::Rsn& network, netlist::ConeWorkspace& ws);

  const netlist::Netlist& nl_;
  const security::SecuritySpec& spec_;
  const security::TokenTable& tokens_;
  TaintOptions options_;

  std::vector<netlist::NodeId> ff_nodes_;
  std::vector<std::size_t> ff_index_;  // NodeId -> dense circuit index
  std::vector<bool> internal_;

  // Node layout: [scan FFs by register, flattened][circuit FFs].
  std::vector<std::size_t> scan_base_;  // ElemId -> first node index
  std::vector<rsn::ElemId> node_reg_;   // scan node -> register
  std::vector<std::size_t> node_ff_;    // scan node -> ff index
  std::size_t circuit_base_ = 0;
  std::vector<netlist::ModuleId> owner_module_;  // per node
  std::vector<int> seed_token_;                  // per node, -1 = none

  // Adjacency per edge family (node -> successor nodes).
  std::vector<std::vector<std::size_t>> circuit_succ_;
  std::vector<std::vector<std::size_t>> static_succ_;  // shift/capture/update
  std::vector<std::vector<std::size_t>> rsn_succ_;

  TaintStats stats_;
};

}  // namespace rsnsec::flow
