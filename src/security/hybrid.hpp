#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dep/analyzer.hpp"
#include "netlist/netlist.hpp"
#include "rsn/access.hpp"
#include "rsn/rsn.hpp"
#include "security/rewire.hpp"
#include "security/spec.hpp"

namespace rsnsec::security {

class HybridViolationIndex;

/// Outcome of the scan-infrastructure-independent checks (Sec. III-B plus
/// the intra-segment extension documented in DESIGN.md). Violations of
/// these classes cannot be removed by rewiring the RSN.
struct StaticReport {
  /// Circuit-logic-only violations: data of a too-confidential module is
  /// path-dependent into an untrusted module purely through circuit logic
  /// (Sec. III-B). Requires redesigning the circuit.
  bool insecure_logic = false;
  /// Violations through a single register's own capture/shift/update flow
  /// (confidential data captured at FF i, updated out at FF j >= i into an
  /// untrusted sink). Requires redesigning the register, not the RSN.
  bool intra_segment = false;
  std::vector<std::string> details;

  bool clean() const { return !insecure_logic && !intra_segment; }
};

/// Statistics of one hybrid detect-and-resolve run.
struct HybridStats {
  std::size_t initial_violating_registers = 0;
  std::size_t initial_violating_pairs = 0;
  int applied_changes = 0;  ///< Table I "hybrid" changes column
  int rewire_operations = 0;
  int fallback_isolations = 0;
};

/// Detection and resolution of security violations over *hybrid* scan
/// paths — paths through both the RSN and the underlying circuit logic
/// (the paper's contribution, Sec. III-C / III-D).
///
/// The analyzer works at flip-flop granularity: its propagation graph has
/// one node per scan flip-flop and one per (non-bridged) circuit
/// flip-flop. Static edges — intra-register shift order, capture-cone
/// dependencies, update connections and the multi-cycle circuit closure —
/// are built once from the dependency analysis and remain valid across
/// all RSN rewirings; the RSN inter-segment edges are recomputed from the
/// current network on every propagation ("the dependencies are calculated
/// once ... without RSN-internal connections", Sec. III-A). Tokens
/// propagate only over path-dependent edges; only-structural connections
/// cannot transport data (Fig. 5's XOR reconvergence). Propagation is
/// cyclic ("omnidirectional", Sec. III-D) and runs to a fixed point;
/// detect_and_resolve keeps that fixpoint up to date under every applied
/// change (HybridViolationIndex).
class HybridAnalyzer {
 public:
  HybridAnalyzer(const netlist::Netlist& nl,
                 const rsn::Rsn& layout_network,
                 const dep::DependencyAnalyzer& deps,
                 const SecuritySpec& spec, const TokenTable& tokens);

  /// Number of nodes of the propagation graph.
  std::size_t num_nodes() const { return owner_module_.size(); }

  /// Node index of scan FF `ff` of register `reg`.
  std::size_t scan_node(rsn::ElemId reg, std::size_t ff) const;

  /// Node index of circuit flip-flop `ff`.
  std::size_t circuit_node(netlist::NodeId ff) const;

  /// Human-readable node label (for reports).
  std::string node_name(std::size_t node) const;

  /// Runs the fixed-point token propagation. `network` provides the RSN
  /// inter-segment edges; pass nullptr to propagate over static edges
  /// only (scan-infrastructure-independent flows). `circuit_only`
  /// restricts edges to the circuit closure (Sec. III-B check).
  std::vector<TokenSet> propagate(const rsn::Rsn* network,
                                  bool circuit_only = false) const;

  /// Scan-infrastructure-independent violation checks; must be clean
  /// before detect_and_resolve is meaningful.
  StaticReport check_static() const;

  /// Both violation counts of `network`, from one propagation.
  struct ViolationCounts {
    std::size_t pairs = 0;      ///< (node, token) violating pairs
    std::size_t registers = 0;  ///< registers with a violating scan FF
  };
  ViolationCounts count_violations(const rsn::Rsn& network) const;

  /// count_violations(network).pairs.
  std::size_t count_violating_pairs(const rsn::Rsn& network) const;

  /// count_violations(network).registers (Table I, column 5).
  std::size_t count_violating_registers(const rsn::Rsn& network) const;

  /// A violation over a hybrid (or pure) path in the combined graph.
  struct Violation {
    int token = -1;
    std::size_t victim_node = 0;
    std::vector<std::size_t> node_path;  ///< seed ... victim
    /// Concrete RSN connections crossed by the path (cut candidates).
    std::vector<Connection> rsn_connections;
  };

  /// Finds one violation with a witnessing path, or nullopt if secure.
  std::optional<Violation> find_violation(const rsn::Rsn& network) const;

  /// Repeatedly detects and resolves violations by cutting RSN
  /// connections until the network is secure. Requires check_static() to
  /// be clean. Modifies `network`; appends changes to `log`; invokes
  /// `on_change` after every applied change (see ChangeCallback).
  ///
  /// Violation state is kept in a HybridViolationIndex and maintained
  /// under deltas, with candidate cuts trial-evaluated in parallel. At
  /// any thread count the change logs, stats and final networks are
  /// bit-identical to recomputing the fixpoint from scratch for every
  /// query (the oracle in tests/oracle).
  HybridStats detect_and_resolve(
      rsn::Rsn& network, std::vector<AppliedChange>* log = nullptr,
      ResolutionPolicy policy = ResolutionPolicy::BestGlobal,
      const ChangeCallback& on_change = {},
      const ResolveOptions& resolve_options = {});

 private:
  friend class HybridViolationIndex;
  const netlist::Netlist& nl_;
  const dep::DependencyAnalyzer& deps_;
  const SecuritySpec& spec_;
  const TokenTable& tokens_;

  // Node layout: [scan FFs by register, flattened][circuit FFs].
  std::vector<std::size_t> scan_base_;  // ElemId -> first node index
  std::vector<rsn::ElemId> node_reg_;   // scan node -> register
  std::vector<std::size_t> node_ff_;    // scan node -> ff index
  std::size_t circuit_base_ = 0;
  std::vector<netlist::ModuleId> owner_module_;  // per node
  std::vector<int> seed_token_;                  // per node, -1 = none

  // Static adjacency (node -> successor nodes), path-dependent edges only.
  std::vector<std::vector<std::size_t>> static_succ_;
  std::vector<std::vector<std::size_t>> circuit_succ_;  // circuit closure only

  struct RsnEdge {
    rsn::ElemId from_reg, to_reg;
    std::vector<Connection> chain;
  };
  /// Appends the inter-segment chains starting at register `r` (DFS over
  /// mux-only element chains under `fanout`, capped) to `out`. The
  /// emission order is a deterministic function of r's local fanout
  /// structure alone, so the violation index can rebuild one register's
  /// chains and splice them into the full build_rsn_edges order.
  static void append_register_chains(const rsn::Rsn& network,
                                     const rsn::FanoutIndex& fanout,
                                     rsn::ElemId r, std::vector<RsnEdge>& out);
  /// Generalization over the fanout source: `fanout_of(id)` must return a
  /// range of (consumer, port) pairs in FanoutIndex order (consumer
  /// ascending, then port). The returned reference may be invalidated by
  /// the next fanout_of call; each result is fully consumed before the
  /// next lookup. This is what lets the violation index rebuild chains
  /// against a patched committed fanout without indexing a whole trial
  /// network per candidate.
  template <typename FanoutFn>
  static void append_register_chains_fn(const rsn::Rsn& network,
                                        FanoutFn&& fanout_of, rsn::ElemId r,
                                        std::vector<RsnEdge>& out) {
    constexpr std::size_t max_chains_per_register = 256;
    std::size_t emitted = 0;
    // DFS over (element, chain-so-far); chains are short in practice.
    std::vector<std::pair<rsn::ElemId, std::vector<Connection>>> stack;
    stack.push_back({r, {}});
    while (!stack.empty() && emitted < max_chains_per_register) {
      auto [cur, chain] = std::move(stack.back());
      stack.pop_back();
      for (auto [to, port] : fanout_of(cur)) {
        std::vector<Connection> next_chain = chain;
        next_chain.push_back({cur, to, port});
        const rsn::Element& te = network.elem(to);
        if (te.kind == rsn::ElemKind::Register) {
          out.push_back({r, to, std::move(next_chain)});
          ++emitted;
        } else if (te.kind == rsn::ElemKind::Mux) {
          stack.push_back({to, std::move(next_chain)});
        }
        // Scan-out: data leaves the chip; no further segment is reached.
      }
    }
  }
  std::vector<RsnEdge> build_rsn_edges(const rsn::Rsn& network) const;
  /// Node successor lists of `edges`: the last scan FF of each edge's
  /// source register feeds the first scan FF of its target.
  std::vector<std::vector<std::size_t>> rsn_successors(
      const rsn::Rsn& network, const std::vector<RsnEdge>& edges) const;

  /// An adjacency in CSR form: node n's entries are
  /// `adj[off[n] .. off[n + 1])`.
  struct Csr {
    std::vector<std::uint32_t> off;
    std::vector<std::uint32_t> adj;
  };
  /// Static + circuit successors of every node (fixed across rewirings),
  /// per node the static entries before the circuit ones.
  Csr fixed_successors() const;
  /// The transpose of `g`: per node, its sources in ascending order, and
  /// within one source in g's entry order.
  static Csr transpose(const Csr& g);

  /// Predecessor lists in trace_violation's search order: per node, its
  /// fixed predecessors (the transpose of fixed_successors: source
  /// ascending, static before circuit), then its inter-segment in-edges
  /// in build_rsn_edges order, each with the chain it crosses.
  struct Predecessors {
    Csr fixed;
    struct InEdge {
      std::uint32_t from;
      const RsnEdge* edge;
    };
    std::vector<std::uint32_t> rsn_off;
    std::vector<InEdge> rsn;
  };
  /// Rebuilds preds.rsn_off / preds.rsn from the inter-segment edges of
  /// `network`: `for_each_edge(fn)` must call fn(const RsnEdge&) for every
  /// edge in build_rsn_edges order (it is called twice), and the edges
  /// must outlive every use of `preds`.
  template <typename ForEachEdge>
  void index_in_edges(const rsn::Rsn& network, ForEachEdge&& for_each_edge,
                      Predecessors& preds) const {
    const std::size_t nodes = num_nodes();
    preds.rsn_off.assign(nodes + 1, 0);
    for_each_edge(
        [&](const RsnEdge& e) { ++preds.rsn_off[scan_node(e.to_reg, 0) + 1]; });
    for (std::size_t n = 0; n < nodes; ++n)
      preds.rsn_off[n + 1] += preds.rsn_off[n];
    preds.rsn.resize(preds.rsn_off[nodes]);
    std::vector<std::uint32_t> next(preds.rsn_off.begin(),
                                    preds.rsn_off.end() - 1);
    for_each_edge([&](const RsnEdge& e) {
      const std::size_t from =
          scan_node(e.from_reg, network.elem(e.from_reg).ffs.size() - 1);
      preds.rsn[next[scan_node(e.to_reg, 0)]++] = {
          static_cast<std::uint32_t>(from), &e};
    });
  }
  /// The first violation of the fixpoint `state` with its witnessing
  /// path: a backward BFS from the victim over `preds` that carry the
  /// token, to a seed of it. Shared by find_violation and the violation
  /// index, so both return the same Violation for the same state.
  std::optional<Violation> trace_violation(
      const Predecessors& preds, const std::vector<TokenSet>& state) const;

  void build_nodes(const rsn::Rsn& layout);
  void build_static_edges(const rsn::Rsn& layout);
  std::vector<TokenSet> run_worklist(
      const std::vector<std::vector<std::size_t>>& extra_succ,
      bool circuit_only) const;
  std::size_t violating_pairs(const std::vector<TokenSet>& state) const;
};

}  // namespace rsnsec::security
