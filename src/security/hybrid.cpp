#include "security/hybrid.hpp"

#include <stdexcept>

#include "obs/trace.hpp"
#include "security/violation_index.hpp"

namespace rsnsec::security {

using rsn::ElemId;
using rsn::ElemKind;
using rsn::Rsn;

HybridAnalyzer::HybridAnalyzer(const netlist::Netlist& nl,
                               const Rsn& layout_network,
                               const dep::DependencyAnalyzer& deps,
                               const SecuritySpec& spec,
                               const TokenTable& tokens)
    : nl_(nl), deps_(deps), spec_(spec), tokens_(tokens) {
  obs::Span span(obs::TraceSession::active(), "hybrid.build");
  build_nodes(layout_network);
  build_fixed_graph(layout_network);
}

std::size_t HybridAnalyzer::scan_node(ElemId reg, std::size_t ff) const {
  return scan_base_[static_cast<std::size_t>(reg)] + ff;
}

std::size_t HybridAnalyzer::circuit_node(netlist::NodeId ff) const {
  return circuit_base_ + deps_.circuit_index(ff);
}

std::string HybridAnalyzer::node_name(std::size_t node) const {
  if (node < circuit_base_) {
    return "scan:" + std::to_string(node_reg_[node]) + "[" +
           std::to_string(node_ff_[node]) + "]";
  }
  netlist::NodeId ff = deps_.circuit_ff(node - circuit_base_);
  const std::string& n = nl_.node(ff).name;
  return "ff:" + (n.empty() ? std::to_string(ff) : n);
}

void HybridAnalyzer::build_nodes(const Rsn& layout) {
  scan_base_.assign(layout.num_elements(), 0);
  std::size_t next = 0;
  for (ElemId r : layout.registers()) {
    scan_base_[r] = next;
    const rsn::Element& e = layout.elem(r);
    for (std::size_t f = 0; f < e.ffs.size(); ++f) {
      node_reg_.push_back(r);
      node_ff_.push_back(f);
      owner_module_.push_back(e.module);
      ++next;
    }
  }
  circuit_base_ = next;
  for (std::size_t i = 0; i < deps_.num_circuit_ffs(); ++i) {
    owner_module_.push_back(nl_.node(deps_.circuit_ff(i)).module);
  }

  seed_token_.assign(owner_module_.size(), -1);
  for (std::size_t n = 0; n < owner_module_.size(); ++n) {
    // Internal circuit flip-flops are transit-only: they were bridged out
    // of the relation and contribute no tokens (Sec. III-A.2).
    if (n >= circuit_base_ && deps_.is_internal(n - circuit_base_)) continue;
    seed_token_[n] = tokens_.token_of(owner_module_[n]);
  }
}

template <typename OnStatic, typename OnCircuit>
void HybridAnalyzer::for_each_fixed_edge(const Rsn& layout,
                                         OnStatic&& on_static,
                                         OnCircuit&& on_circuit) const {
  for (ElemId r : layout.registers()) {
    const rsn::Element& e = layout.elem(r);
    for (std::size_t f = 0; f < e.ffs.size(); ++f) {
      std::size_t node = scan_node(r, f);
      // Shift order inside the register: data only moves toward scan-out
      // (SF5 -> SF6, never SF6 -> SF5; Sec. III-C).
      if (f + 1 < e.ffs.size()) on_static(node, scan_node(r, f + 1));
      // Capture-cone dependencies (path-dependent only: tokens cannot
      // ride only-structural connections).
      for (const dep::CaptureDep& d : deps_.capture_deps(r, f)) {
        if (d.kind == DepKind::Path)
          on_static(circuit_node(d.circuit_ff), node);
      }
      // Update connection into the circuit.
      if (e.ffs[f].update_dst != netlist::no_node)
        on_static(node, circuit_node(e.ffs[f].update_dst));
    }
  }

  // Multi-cycle circuit closure: one edge per path-dependent pair. The
  // closure is transitively closed, so a single hop covers any number of
  // functional clock cycles. Representation-agnostic access keeps this
  // working at scales where the closure is tiled and a dense matrix is
  // never materialized.
  for (std::size_t i = 0; i < deps_.num_circuit_ffs(); ++i) {
    if (deps_.is_internal(i)) continue;
    deps_.for_each_closure_path_successor(i, [&](std::size_t j) {
      if (i != j) on_circuit(circuit_base_ + i, circuit_base_ + j);
    });
  }
}

void HybridAnalyzer::build_fixed_graph(const Rsn& layout) {
  // Pass 1 counts each node's static entries (into off[n + 1]) and its
  // circuit entries (into circuit_begin_[n]). Pass 2 fills both through
  // one cursor per node: every static edge comes first, so a node's
  // cursor reaches circuit_begin_[n] just as its static entries are in.
  const std::size_t nodes = num_nodes();
  Csr& g = fixed_succ_;
  g.off.assign(nodes + 1, 0);
  circuit_begin_.assign(nodes, 0);
  for_each_fixed_edge(
      layout, [&](std::size_t from, std::size_t) { ++g.off[from + 1]; },
      [&](std::size_t from, std::size_t) { ++circuit_begin_[from]; });
  for (std::size_t n = 0; n < nodes; ++n) {
    const std::uint32_t circuit = circuit_begin_[n];
    circuit_begin_[n] = g.off[n] + g.off[n + 1];
    g.off[n + 1] = circuit_begin_[n] + circuit;
  }
  g.adj.resize(g.off[nodes]);
  std::vector<std::uint32_t> next(g.off.begin(), g.off.end() - 1);
  auto fill = [&](std::size_t from, std::size_t to) {
    g.adj[next[from]++] = static_cast<std::uint32_t>(to);
  };
  for_each_fixed_edge(layout, fill, fill);
  fixed_pred_ = transpose(g);
}

std::vector<HybridAnalyzer::RsnEdge> HybridAnalyzer::build_rsn_edges(
    const Rsn& network) const {
  // For every register, find the registers reachable through mux-only
  // element chains, recording the concrete connections of each chain
  // (cut candidates for the resolution step).
  std::vector<RsnEdge> edges;
  const rsn::FanoutIndex fanout(network);
  ChainWalk walk;
  for (ElemId r : network.registers())
    append_register_chains(network, index_fanout(fanout), r, walk, edges);
  return edges;
}

std::vector<TokenSet> HybridAnalyzer::run_worklist(
    const std::vector<std::vector<std::size_t>>& extra_succ,
    bool circuit_only) const {
  std::vector<TokenSet> state(owner_module_.size());
  std::vector<std::size_t> worklist;
  std::vector<bool> queued(owner_module_.size(), false);
  for (std::size_t n = 0; n < owner_module_.size(); ++n) {
    if (circuit_only && n < circuit_base_) continue;
    if (seed_token_[n] >= 0) {
      state[n].set(static_cast<std::size_t>(seed_token_[n]));
      worklist.push_back(n);
      queued[n] = true;
    }
  }
  auto relax = [&](std::size_t from, std::size_t to) {
    if (state[to].merge(state[from]) && !queued[to]) {
      queued[to] = true;
      worklist.push_back(to);
    }
  };
  const Csr& g = fixed_succ_;
  while (!worklist.empty()) {
    std::size_t n = worklist.back();
    worklist.pop_back();
    queued[n] = false;
    if (!circuit_only) {
      for (std::uint32_t i = g.off[n]; i < circuit_begin_[n]; ++i)
        relax(n, g.adj[i]);
      if (n < extra_succ.size()) {
        for (std::size_t s : extra_succ[n]) relax(n, s);
      }
    }
    for (std::uint32_t i = circuit_begin_[n]; i < g.off[n + 1]; ++i)
      relax(n, g.adj[i]);
  }
  return state;
}

std::vector<std::vector<std::size_t>> HybridAnalyzer::rsn_successors(
    const Rsn& network) const {
  std::vector<std::vector<std::size_t>> succ(owner_module_.size());
  const rsn::FanoutIndex fanout(network);
  ChainWalk walk;
  for (ElemId r : network.registers()) {
    std::vector<std::size_t>& out =
        succ[scan_node(r, network.elem(r).ffs.size() - 1)];
    for_each_chain_target(network, index_fanout(fanout), r, walk,
                          [&](ElemId to) { out.push_back(scan_node(to, 0)); });
  }
  return succ;
}

std::vector<TokenSet> HybridAnalyzer::propagate(const Rsn* network,
                                                bool circuit_only) const {
  if (obs::TraceSession* trace = obs::TraceSession::active())
    trace->counter("hybrid.propagations").add(1);
  std::vector<std::vector<std::size_t>> extra;
  if (network != nullptr && !circuit_only) extra = rsn_successors(*network);
  return run_worklist(extra, circuit_only);
}

std::size_t HybridAnalyzer::violating_pairs(
    const std::vector<TokenSet>& state) const {
  std::size_t count = 0;
  for (std::size_t n = 0; n < state.size(); ++n) {
    if (owner_module_[n] < 0) continue;  // unannotated: transit only
    TrustCategory t = spec_.policy(owner_module_[n]).trust;
    count += state[n].count_common(tokens_.bad(t));
  }
  return count;
}

StaticReport HybridAnalyzer::check_static() const {
  StaticReport report;
  std::vector<TokenSet> circ = propagate(nullptr, /*circuit_only=*/true);
  std::vector<TokenSet> stat = propagate(nullptr, /*circuit_only=*/false);
  for (std::size_t n = 0; n < stat.size(); ++n) {
    if (owner_module_[n] < 0) continue;
    TrustCategory t = spec_.policy(owner_module_[n]).trust;
    const TokenSet& bad = tokens_.bad(t);
    // The circuit-only fixpoint lies below the static one, so a node the
    // static fixpoint leaves clean has nothing to report.
    if (!stat[n].intersects(bad)) continue;
    for (std::size_t k = 0; k < tokens_.num_tokens(); ++k) {
      bool in_circ = circ[n].test(k) && bad.test(k);
      bool in_stat = stat[n].test(k) && bad.test(k);
      if (in_circ) {
        report.insecure_logic = true;
        report.details.push_back("insecure circuit logic: token " +
                                 std::to_string(k) + " reaches " +
                                 node_name(n));
      } else if (in_stat) {
        report.intra_segment = true;
        report.details.push_back("intra-segment flow: token " +
                                 std::to_string(k) + " reaches " +
                                 node_name(n));
      }
    }
  }
  return report;
}

HybridAnalyzer::ViolationCounts HybridAnalyzer::count_violations(
    const Rsn& network) const {
  std::vector<TokenSet> state = propagate(&network);
  ViolationCounts counts;
  counts.pairs = violating_pairs(state);
  for (ElemId r : network.registers()) {
    const rsn::Element& e = network.elem(r);
    if (e.module < 0) continue;
    TrustCategory t = spec_.policy(e.module).trust;
    const TokenSet& bad = tokens_.bad(t);
    for (std::size_t f = 0; f < e.ffs.size(); ++f) {
      if (state[scan_node(r, f)].intersects(bad)) {
        ++counts.registers;
        break;
      }
    }
  }
  return counts;
}

std::size_t HybridAnalyzer::count_violating_pairs(const Rsn& network) const {
  return count_violations(network).pairs;
}

std::size_t HybridAnalyzer::count_violating_registers(
    const Rsn& network) const {
  return count_violations(network).registers;
}

HybridAnalyzer::Csr HybridAnalyzer::transpose(const Csr& g) {
  const std::size_t nodes = g.off.size() - 1;
  Csr t;
  t.off.assign(nodes + 1, 0);
  for (std::uint32_t x : g.adj) ++t.off[x + 1];
  for (std::size_t n = 0; n < nodes; ++n) t.off[n + 1] += t.off[n];
  t.adj.resize(g.adj.size());
  std::vector<std::uint32_t> next(t.off.begin(), t.off.end() - 1);
  for (std::size_t n = 0; n < nodes; ++n)
    for (std::uint32_t i = g.off[n]; i < g.off[n + 1]; ++i)
      t.adj[next[g.adj[i]]++] = static_cast<std::uint32_t>(n);
  return t;
}

std::optional<HybridAnalyzer::Violation> HybridAnalyzer::find_violation(
    const Rsn& network) const {
  std::vector<RsnEdge> rsn_edges = build_rsn_edges(network);
  Predecessors preds;
  index_in_edges(
      network,
      [&rsn_edges](auto&& fn) {
        for (const RsnEdge& e : rsn_edges) fn(e);
      },
      preds);
  TraceScratch scratch;
  return trace_violation(
      preds, run_worklist(rsn_successors(network), false), scratch);
}

std::optional<HybridAnalyzer::Violation> HybridAnalyzer::trace_violation(
    const Predecessors& preds, const std::vector<TokenSet>& state,
    TraceScratch& scratch) const {
  const std::size_t nodes = owner_module_.size();
  if (scratch.seen.size() != nodes) {
    scratch.parent.assign(nodes, 0);
    scratch.parent_edge.assign(nodes, nullptr);
    scratch.seen.assign(nodes, false);
  }
  // BFS parents (node and crossed chain, nullptr for a fixed edge) of the
  // nodes in `queue`, whose `seen` marks are cleared after each victim.
  std::vector<std::size_t>& parent = scratch.parent;
  std::vector<const RsnEdge*>& parent_edge = scratch.parent_edge;
  std::vector<bool>& seen = scratch.seen;
  std::vector<std::size_t>& queue = scratch.queue;
  for (std::size_t victim = 0; victim < nodes; ++victim) {
    if (owner_module_[victim] < 0) continue;
    TrustCategory t = spec_.policy(owner_module_[victim]).trust;
    int tok = state[victim].first_common(tokens_.bad(t));
    if (tok < 0) continue;
    const auto k = static_cast<std::size_t>(tok);

    // Backward BFS to a seed of the token, over predecessors carrying it.
    queue.assign(1, victim);
    seen[victim] = true;
    parent_edge[victim] = nullptr;
    auto visit = [&](std::size_t p, std::size_t cur, const RsnEdge* edge) {
      if (seen[p] || !state[p].test(k)) return;
      seen[p] = true;
      parent[p] = cur;
      parent_edge[p] = edge;
      queue.push_back(p);
    };
    std::size_t seed = nodes;
    for (std::size_t qi = 0; qi < queue.size(); ++qi) {
      std::size_t cur = queue[qi];
      if (seed_token_[cur] == tok && cur != victim) {
        seed = cur;
        break;
      }
      for (std::uint32_t i = fixed_pred_.off[cur];
           i < fixed_pred_.off[cur + 1]; ++i)
        visit(fixed_pred_.adj[i], cur, nullptr);
      for (std::uint32_t i = preds.rsn_off[cur]; i < preds.rsn_off[cur + 1];
           ++i)
        visit(preds.rsn[i].from, cur, preds.rsn[i].edge);
    }
    for (std::size_t n : queue) seen[n] = false;
    // The token can only have been seeded upstream; if no seed was found
    // the victim itself must carry it (cannot happen after spec
    // validation, but keep the analysis robust).
    if (seed == nodes) continue;

    Violation v;
    v.token = tok;
    v.victim_node = victim;
    for (std::size_t cur = seed;; cur = parent[cur]) {
      v.node_path.push_back(cur);
      if (parent_edge[cur] != nullptr)
        for (const Connection& c : parent_edge[cur]->chain)
          v.rsn_connections.push_back(c);
      if (cur == victim) break;
    }
    return v;
  }
  return std::nullopt;
}

HybridStats HybridAnalyzer::detect_and_resolve(
    Rsn& network, std::vector<AppliedChange>* log,
    ResolutionPolicy policy, const ChangeCallback& on_change,
    const ResolveOptions& resolve_options) {
  return resolve_with_index<HybridStats, HybridViolationIndex>(
      "hybrid", *this, network, log, policy, on_change, resolve_options,
      [](const Violation& v) {
        if (v.rsn_connections.empty())
          throw std::runtime_error(
              "hybrid violation without RSN connection on its path; "
              "run check_static() before resolution");
        return v.rsn_connections;
      },
      [&network](const Violation& v) {
        // Isolate the source register of the last RSN hop on the path:
        // rsn_connections were collected walking seed -> victim, so the
        // last chain's first element is the register driving the final
        // inter-segment hop; fall back to any register endpoint.
        ElemId iso = v.rsn_connections.front().from;
        for (auto it = v.rsn_connections.rbegin();
             it != v.rsn_connections.rend(); ++it) {
          if (network.elem(it->from).kind == ElemKind::Register) {
            iso = it->from;
            break;
          }
        }
        if (network.elem(iso).kind != ElemKind::Register)
          throw std::runtime_error(
              "hybrid resolution fallback found no register to isolate");
        return iso;
      });
}

}  // namespace rsnsec::security
