#include "oracle/dep_oracle.hpp"

#include <algorithm>
#include <stdexcept>

#include "netlist/cone_check.hpp"

namespace rsnsec::oracle {

FreshQuery fresh_cone_query(const netlist::Netlist& nl,
                            const netlist::Cone& cone, std::size_t leaf_idx,
                            std::uint64_t conflict_limit) {
  netlist::ConeDependenceChecker checker(nl, cone, conflict_limit);
  FreshQuery q;
  q.result = checker.query(leaf_idx);
  q.conflicts = checker.solver_stats().conflicts;
  return q;
}

namespace {

/// Dependencies of the cone root on its flip-flop leaves, one fresh
/// checker per leaf.
std::vector<dep::CaptureDep> classify_cone(const netlist::Netlist& nl,
                                           const netlist::Cone& cone,
                                           std::uint64_t conflict_limit,
                                           DepOracle& out) {
  std::vector<dep::CaptureDep> deps;
  for (std::size_t i = 0; i < cone.leaves.size(); ++i) {
    if (!nl.is_ff(cone.leaves[i])) continue;
    ++out.queries;
    DepKind kind = DepKind::Path;
    switch (fresh_cone_query(nl, cone, i, conflict_limit).result) {
      case sat::Result::Sat:
        ++out.functional;
        break;
      case sat::Result::Unsat:
        ++out.structural;
        kind = DepKind::Structural;
        break;
      case sat::Result::Unknown:
        ++out.unknown;
        break;
    }
    deps.push_back({cone.leaves[i], kind});
  }
  return deps;
}

}  // namespace

DepOracle classify_from_scratch(const dep::DependencyAnalyzer& analyzer) {
  const netlist::Netlist& nl = analyzer.circuit();
  const rsn::Rsn& network = analyzer.network();
  const dep::DepOptions& opt = analyzer.options();
  if (opt.mode != dep::DepMode::Exact)
    throw std::logic_error("the dependency oracle is SAT-exact only");
  const std::size_t n = analyzer.num_circuit_ffs();

  DepOracle out;
  out.one_cycle = DepMatrix(n);
  for (std::size_t t = 0; t < n; ++t) {
    netlist::Cone cone = nl.extract_next_state_cone(analyzer.circuit_ff(t));
    for (const dep::CaptureDep& d :
         classify_cone(nl, cone, opt.sat_conflict_limit, out))
      out.one_cycle.upgrade(analyzer.circuit_index(d.circuit_ff), t, d.kind);
  }
  for (rsn::ElemId r : network.registers()) {
    const rsn::Element& e = network.elem(r);
    auto& reg = out.capture_deps.emplace_back(e.ffs.size());
    for (std::size_t f = 0; f < e.ffs.size(); ++f) {
      if (e.ffs[f].capture_src == netlist::no_node) continue;
      netlist::Cone cone = nl.extract_signal_cone(e.ffs[f].capture_src);
      reg[f] = sorted(classify_cone(nl, cone, opt.sat_conflict_limit, out));
    }
  }

  // Bridging and closure exactly as the analyzer's dense path, on the
  // oracle's one-cycle relation.
  out.closure = out.one_cycle;
  std::vector<bool> active(n, true);
  if (opt.bridge_internal) {
    for (std::size_t v = 0; v < n; ++v) {
      if (!analyzer.is_internal(v)) continue;
      out.closure.eliminate(v);
      active[v] = false;
    }
  }
  if (opt.max_cycles > 0) {
    out.closure.bounded_closure(opt.max_cycles);
  } else {
    out.closure.transitive_closure(&active);
  }
  return out;
}

std::vector<dep::CaptureDep> sorted(std::vector<dep::CaptureDep> deps) {
  std::sort(deps.begin(), deps.end(),
            [](const dep::CaptureDep& a, const dep::CaptureDep& b) {
              return a.circuit_ff != b.circuit_ff ? a.circuit_ff < b.circuit_ff
                                                  : a.kind < b.kind;
            });
  return deps;
}

}  // namespace rsnsec::oracle
