#include "flow/taint.hpp"

#include <algorithm>

#include "flow/ternary.hpp"
#include "obs/trace.hpp"
#include "rsn/access.hpp"

namespace rsnsec::flow {

using netlist::Cone;
using netlist::NodeId;
using rsn::ElemId;
using rsn::ElemKind;
using security::TokenSet;

TaintAnalyzer::TaintAnalyzer(const netlist::Netlist& nl,
                             const rsn::Rsn& network,
                             const security::SecuritySpec& spec,
                             const security::TokenTable& tokens,
                             TaintOptions options)
    : nl_(nl), spec_(spec), tokens_(tokens), options_(options) {
  // Every cone of the construction is extracted through one workspace,
  // so a cone costs its own size rather than a netlist-sized mark array.
  netlist::ConeWorkspace ws(nl_);
  build_nodes(network, ws);
  build_edges(network, ws);
  if (obs::TraceSession* trace = obs::TraceSession::active()) {
    trace->counter("flow.nodes").add(owner_module_.size());
    trace->counter("flow.edges").add(stats_.circuit_edges +
                                     stats_.capture_edges +
                                     stats_.update_edges + stats_.shift_edges +
                                     stats_.rsn_edges);
    trace->counter("flow.ternary_discharged").add(stats_.ternary_discharged);
  }
}

void TaintAnalyzer::build_nodes(const rsn::Rsn& network,
                                netlist::ConeWorkspace& ws) {
  ff_nodes_ = nl_.ffs();
  ff_index_.assign(nl_.num_nodes(), 0);
  for (std::size_t i = 0; i < ff_nodes_.size(); ++i)
    ff_index_[static_cast<std::size_t>(ff_nodes_[i])] = i;

  scan_base_.assign(network.num_elements(), 0);
  std::size_t next = 0;
  for (ElemId r : network.registers()) {
    scan_base_[static_cast<std::size_t>(r)] = next;
    const rsn::Element& e = network.elem(r);
    for (std::size_t f = 0; f < e.ffs.size(); ++f) {
      node_reg_.push_back(r);
      node_ff_.push_back(f);
      owner_module_.push_back(e.module);
      ++next;
    }
  }
  circuit_base_ = next;
  stats_.scan_nodes = next;
  stats_.circuit_nodes = ff_nodes_.size();
  for (NodeId ff : ff_nodes_) owner_module_.push_back(nl_.node(ff).module);

  // A circuit FF is internal iff the RSN touches it neither as an update
  // target nor as a capture-cone leaf. Classified structurally (ternary
  // refinement never changes the node set, only the edges), exactly like
  // the pipeline's bridging.
  std::vector<bool> connected(nl_.num_nodes(), false);
  Cone cone;
  for (ElemId r : network.registers()) {
    for (const rsn::ScanFF& sf : network.elem(r).ffs) {
      if (sf.update_dst != netlist::no_node) connected[sf.update_dst] = true;
      if (sf.capture_src != netlist::no_node) {
        ws.extract_signal_cone(sf.capture_src, cone);
        for (NodeId leaf : cone.leaves)
          if (nl_.is_ff(leaf)) connected[leaf] = true;
      }
    }
  }
  internal_.assign(ff_nodes_.size(), false);
  for (std::size_t i = 0; i < ff_nodes_.size(); ++i) {
    internal_[i] = !connected[static_cast<std::size_t>(ff_nodes_[i])];
    if (internal_[i]) ++stats_.internal_ffs;
  }

  seed_token_.assign(owner_module_.size(), -1);
  for (std::size_t n = 0; n < owner_module_.size(); ++n) {
    if (n >= circuit_base_ && internal_[n - circuit_base_]) continue;
    seed_token_[n] = tokens_.token_of(owner_module_[n]);
  }
}

void TaintAnalyzer::build_edges(const rsn::Rsn& network,
                                netlist::ConeWorkspace& ws) {
  circuit_succ_.assign(owner_module_.size(), {});
  static_succ_.assign(owner_module_.size(), {});
  rsn_succ_.assign(owner_module_.size(), {});

  TernaryEvaluator ternary(nl_);
  auto edge_live = [&](const Cone& cone, std::size_t leaf_idx) {
    if (!options_.ternary_refine) return true;
    if (ternary.proves_independent(cone, leaf_idx)) {
      ++stats_.ternary_discharged;
      return false;
    }
    return true;
  };

  // Circuit next-state edges: FF leaf of j's next-state cone -> j. Every
  // structural connection is an edge (minus what the ternary refinement
  // proves dead); no simulation, no SAT, no bridging — internal FFs stay
  // as transit nodes, which preserves the composed reachability bridging
  // would produce.
  Cone cone;
  for (std::size_t j = 0; j < ff_nodes_.size(); ++j) {
    ws.extract_next_state_cone(ff_nodes_[j], cone);
    for (std::size_t l = 0; l < cone.leaves.size(); ++l) {
      NodeId leaf = cone.leaves[l];
      if (!nl_.is_ff(leaf) || !edge_live(cone, l)) continue;
      circuit_succ_[circuit_base_ + ff_index_[static_cast<std::size_t>(leaf)]]
          .push_back(circuit_base_ + j);
      ++stats_.circuit_edges;
    }
  }

  for (ElemId r : network.registers()) {
    const rsn::Element& e = network.elem(r);
    for (std::size_t f = 0; f < e.ffs.size(); ++f) {
      const std::size_t node = scan_node(r, f);
      // Shift order: data only moves toward scan-out.
      if (f + 1 < e.ffs.size()) {
        static_succ_[node].push_back(scan_node(r, f + 1));
        ++stats_.shift_edges;
      }
      // Capture cone: circuit FF leaf -> scan FF.
      if (e.ffs[f].capture_src != netlist::no_node) {
        ws.extract_signal_cone(e.ffs[f].capture_src, cone);
        for (std::size_t l = 0; l < cone.leaves.size(); ++l) {
          NodeId leaf = cone.leaves[l];
          if (!nl_.is_ff(leaf) || !edge_live(cone, l)) continue;
          static_succ_[circuit_base_ +
                       ff_index_[static_cast<std::size_t>(leaf)]]
              .push_back(node);
          ++stats_.capture_edges;
        }
      }
      // Update connection into the circuit.
      if (e.ffs[f].update_dst != netlist::no_node) {
        static_succ_[node].push_back(
            circuit_base_ +
            ff_index_[static_cast<std::size_t>(e.ffs[f].update_dst)]);
        ++stats_.update_edges;
      }
    }
  }

  // Inter-register RSN edges: registers reachable over mux-only chains.
  // Visited-set BFS per source register — complete (terminates on cyclic
  // mux structures and misses nothing). The resolution engine's chain DFS
  // reaches the same registers, and also records the concrete
  // connections of a chain to each; certify only needs reachability.
  rsn::FanoutIndex fanout(network);
  std::vector<bool> seen(network.num_elements(), false);
  for (ElemId r : network.registers()) {
    const rsn::Element& re = network.elem(r);
    if (re.ffs.empty()) continue;
    std::vector<ElemId> queue{r};
    std::fill(seen.begin(), seen.end(), false);
    seen[static_cast<std::size_t>(r)] = true;
    for (std::size_t qi = 0; qi < queue.size(); ++qi) {
      for (auto [to, port] : fanout.of(queue[qi])) {
        (void)port;
        if (seen[static_cast<std::size_t>(to)]) continue;
        seen[static_cast<std::size_t>(to)] = true;
        const rsn::Element& te = network.elem(to);
        if (te.kind == ElemKind::Register) {
          if (!te.ffs.empty()) {
            rsn_succ_[scan_node(r, re.ffs.size() - 1)].push_back(
                scan_node(to, 0));
            ++stats_.rsn_edges;
          }
        } else if (te.kind == ElemKind::Mux) {
          queue.push_back(to);
        }
        // Scan-out: data leaves the chip; nothing downstream.
      }
    }
  }
}

std::vector<TokenSet> TaintAnalyzer::propagate(TaintTier tier) const {
  const bool circuit_only = tier == TaintTier::CircuitOnly;
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
  while (!worklist.empty()) {
    std::size_t n = worklist.back();
    worklist.pop_back();
    queued[n] = false;
    for (std::size_t s : circuit_succ_[n]) relax(n, s);
    if (circuit_only) continue;
    for (std::size_t s : static_succ_[n]) relax(n, s);
    if (tier == TaintTier::Full)
      for (std::size_t s : rsn_succ_[n]) relax(n, s);
  }
  return state;
}

bool TaintAnalyzer::is_victim(std::size_t node) const {
  if (owner_module_[node] < 0) return false;  // unannotated: transit only
  if (node >= circuit_base_ && internal_[node - circuit_base_]) return false;
  return true;
}

std::string TaintAnalyzer::node_name(std::size_t node) const {
  if (node < circuit_base_) {
    return "scan:" + std::to_string(node_reg_[node]) + "[" +
           std::to_string(node_ff_[node]) + "]";
  }
  NodeId ff = ff_nodes_[node - circuit_base_];
  const std::string& n = nl_.node(ff).name;
  return "ff:" + (n.empty() ? std::to_string(ff) : n);
}

std::vector<std::vector<bool>> TaintAnalyzer::circuit_reachability() const {
  const std::size_t n = ff_nodes_.size();
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  std::vector<std::size_t> queue;
  for (std::size_t src = 0; src < n; ++src) {
    std::vector<bool>& row = reach[src];
    queue.clear();
    // Seed with the direct successors (not src itself): entry (i, j)
    // means "reachable over >= 1 edge", matching the closure matrices.
    for (std::size_t s : circuit_succ_[circuit_base_ + src]) {
      if (!row[s - circuit_base_]) {
        row[s - circuit_base_] = true;
        queue.push_back(s - circuit_base_);
      }
    }
    for (std::size_t qi = 0; qi < queue.size(); ++qi) {
      for (std::size_t s : circuit_succ_[circuit_base_ + queue[qi]]) {
        if (!row[s - circuit_base_]) {
          row[s - circuit_base_] = true;
          queue.push_back(s - circuit_base_);
        }
      }
    }
  }
  return reach;
}

}  // namespace rsnsec::flow
