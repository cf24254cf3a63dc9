#pragma once

#include <algorithm>
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

  /// An adjacency in CSR form: node n's entries are
  /// `adj[off[n] .. off[n + 1])`.
  struct Csr {
    std::vector<std::uint32_t> off;
    std::vector<std::uint32_t> adj;
  };
  /// The fixed token graph: path-dependent edges only, valid across all
  /// rewirings, built once per analyzer. Per node, its static successors
  /// (shift order, capture cones, update connections) in build order,
  /// then, from circuit_begin_[n], its circuit-closure successors
  /// ascending.
  Csr fixed_succ_;
  std::vector<std::uint32_t> circuit_begin_;
  /// The transpose of fixed_succ_: per node, its sources in ascending
  /// order, and within one source in fixed_succ_'s entry order.
  Csr fixed_pred_;

  struct RsnEdge {
    rsn::ElemId from_reg, to_reg;
    std::vector<Connection> chain;
  };
  /// Reusable buffers of the per-register chain DFS (one thread at a
  /// time): its stack of (element, path node), per element the epoch of
  /// the last source register that expanded it, and the chain builder's
  /// path nodes (connection, parent node; node k is path[k - 1], node 0
  /// the source register).
  struct ChainWalk {
    std::vector<std::pair<rsn::ElemId, std::uint32_t>> stack;
    std::vector<std::uint32_t> expanded;
    std::uint32_t epoch = 0;
    std::vector<std::pair<Connection, std::uint32_t>> path;
  };
  /// The inter-segment chains starting at register `r`: a DFS over
  /// mux-only element chains under `fanout_of`, which must return a range
  /// of (consumer, port) pairs in FanoutIndex order (consumer ascending,
  /// then port); the returned reference may be invalidated by the next
  /// fanout_of call, and each result is consumed before the next lookup.
  /// Calls on_register(node, c) for every connection `c` into a register
  /// and pushes every mux it enters with the node on_mux(node, c)
  /// returns, `node` being the path node of c's source. Each mux is
  /// expanded once per source register: a mux popped again was reached
  /// over another path, and its first expansion already reported every
  /// register below it (registers have one input, so each register
  /// reached is reported once). The order is a deterministic function of
  /// r's local fanout structure alone, so the violation index can redo
  /// one register's walk (against a patched committed fanout, without
  /// indexing a whole trial network) and splice it into the full order.
  template <typename FanoutFn, typename OnRegister, typename OnMux>
  static void walk_chains(const rsn::Rsn& network, FanoutFn&& fanout_of,
                          rsn::ElemId r, ChainWalk& w,
                          OnRegister&& on_register, OnMux&& on_mux) {
    if (w.expanded.size() < network.num_elements())
      w.expanded.resize(network.num_elements(), 0);
    if (++w.epoch == 0) {  // epoch wrap: reset marks once per 2^32 walks
      std::fill(w.expanded.begin(), w.expanded.end(), 0u);
      w.epoch = 1;
    }
    w.stack.clear();
    w.stack.push_back({r, 0});
    while (!w.stack.empty()) {
      const auto [cur, node] = w.stack.back();
      w.stack.pop_back();
      if (w.expanded[cur] == w.epoch) continue;
      w.expanded[cur] = w.epoch;
      for (const auto& [to, port] : fanout_of(cur)) {
        const Connection c{cur, to, port};
        const rsn::ElemKind kind = network.elem(to).kind;
        if (kind == rsn::ElemKind::Register)
          on_register(node, c);
        else if (kind == rsn::ElemKind::Mux)
          w.stack.push_back({to, on_mux(node, c)});
        // Scan-out: data leaves the chip; no further segment is reached.
      }
    }
  }
  /// Calls emit(to_reg) for every chain from `r`, in walk_chains order,
  /// without building the chains.
  template <typename FanoutFn, typename Emit>
  static void for_each_chain_target(const rsn::Rsn& network,
                                    FanoutFn&& fanout_of, rsn::ElemId r,
                                    ChainWalk& w, Emit&& emit) {
    walk_chains(
        network, fanout_of, r, w,
        [&emit](std::uint32_t, const Connection& c) { emit(c.to); },
        [](std::uint32_t, const Connection&) { return 0u; });
  }
  /// Appends the chains from `r` to `out`, in walk_chains order, each
  /// with its connections: one allocation per chain.
  template <typename FanoutFn>
  static void append_register_chains(const rsn::Rsn& network,
                                     FanoutFn&& fanout_of, rsn::ElemId r,
                                     ChainWalk& w, std::vector<RsnEdge>& out) {
    w.path.clear();
    walk_chains(
        network, fanout_of, r, w,
        [&](std::uint32_t node, const Connection& c) {
          std::size_t len = 1;
          for (std::uint32_t k = node; k != 0; k = w.path[k - 1].second)
            ++len;
          RsnEdge& e = out.emplace_back(
              RsnEdge{r, c.to, std::vector<Connection>(len)});
          e.chain[--len] = c;
          for (std::uint32_t k = node; k != 0; k = w.path[k - 1].second)
            e.chain[--len] = w.path[k - 1].first;
        },
        [&w](std::uint32_t node, const Connection& c) {
          w.path.push_back({c, node});
          return static_cast<std::uint32_t>(w.path.size());
        });
  }
  /// The `fanout_of` of a FanoutIndex.
  static auto index_fanout(const rsn::FanoutIndex& fanout) {
    return [&fanout](rsn::ElemId id) -> decltype(auto) {
      return fanout.of(id);
    };
  }
  std::vector<RsnEdge> build_rsn_edges(const rsn::Rsn& network) const;
  /// Node successor lists of the inter-segment edges of `network`: the
  /// last scan FF of each chain's source register feeds the first scan FF
  /// of its target. Builds no chains.
  std::vector<std::vector<std::size_t>> rsn_successors(
      const rsn::Rsn& network) const;

  /// The transpose of `g`: per node, its sources in ascending order, and
  /// within one source in g's entry order.
  static Csr transpose(const Csr& g);

  /// The inter-segment in-edges of one network: per node, in
  /// build_rsn_edges order, each with the chain it crosses.
  /// trace_violation searches a node's fixed predecessors (fixed_pred_)
  /// first, then these.
  struct Predecessors {
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
  /// trace_violation's BFS buffers, sized to the node count on first use
  /// and kept by the violation index across its searches. Between
  /// searches every `seen` entry is false: a search clears the entries it
  /// set. `parent` and `parent_edge` are read only where the search wrote.
  struct TraceScratch {
    std::vector<std::size_t> parent;
    std::vector<const RsnEdge*> parent_edge;
    std::vector<bool> seen;
    std::vector<std::size_t> queue;
  };
  /// The first violation of the fixpoint `state` with its witnessing
  /// path: a backward BFS from the victim over `preds` that carry the
  /// token, to a seed of it. Shared by find_violation and the violation
  /// index, so both return the same Violation for the same state.
  std::optional<Violation> trace_violation(const Predecessors& preds,
                                           const std::vector<TokenSet>& state,
                                           TraceScratch& scratch) const;

  void build_nodes(const rsn::Rsn& layout);
  /// Calls on_static(from, to) for every static edge, then
  /// on_circuit(from, to) for every circuit-closure edge, each in
  /// fixed_succ_'s entry order.
  template <typename OnStatic, typename OnCircuit>
  void for_each_fixed_edge(const rsn::Rsn& layout, OnStatic&& on_static,
                           OnCircuit&& on_circuit) const;
  void build_fixed_graph(const rsn::Rsn& layout);
  std::vector<TokenSet> run_worklist(
      const std::vector<std::vector<std::size_t>>& extra_succ,
      bool circuit_only) const;
  std::size_t violating_pairs(const std::vector<TokenSet>& state) const;
};

}  // namespace rsnsec::security
