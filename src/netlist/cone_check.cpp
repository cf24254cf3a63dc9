#include "netlist/cone_check.hpp"

#include <cassert>
#include <stdexcept>

#include "obs/trace.hpp"
#include "sat/encode.hpp"

namespace rsnsec::netlist {

using sat::Lit;
using sat::mk_lit;

void encode_gate(sat::Solver& s, GateType type, Lit out,
                 std::span<const Lit> ins) {
  switch (type) {
    case GateType::Buf: sat::encode_eq(s, out, ins[0]); return;
    case GateType::Not: sat::encode_eq(s, out, ~ins[0]); return;
    case GateType::And: sat::encode_and(s, out, ins); return;
    case GateType::Nand: sat::encode_and(s, ~out, ins); return;
    case GateType::Or: sat::encode_or(s, out, ins); return;
    case GateType::Nor: sat::encode_or(s, ~out, ins); return;
    case GateType::Xor: sat::encode_xor(s, out, ins); return;
    case GateType::Xnor: sat::encode_xor(s, ~out, ins); return;
    case GateType::Mux:
      sat::encode_mux(s, out, ins[0], ins[1], ins[2]);
      return;
    case GateType::Input:
    case GateType::Const0:
    case GateType::Const1:
    case GateType::FF:
      break;
  }
  throw std::logic_error(std::string("encode_gate on leaf type ") +
                         gate_type_name(type));
}

ConeDependenceChecker::ConeDependenceChecker(ConeWorkspace& ws,
                                             const Cone& cone,
                                             std::uint64_t conflict_limit)
    : ws_(ws), nl_(ws.netlist()), cone_(cone), solver_(ws.solver) {
  encode(conflict_limit);
}

ConeDependenceChecker::ConeDependenceChecker(const Netlist& nl,
                                             const Cone& cone,
                                             std::uint64_t conflict_limit)
    : owned_(std::make_unique<ConeWorkspace>(nl)),
      ws_(*owned_),
      nl_(nl),
      cone_(cone),
      solver_(ws_.solver) {
  encode(conflict_limit);
}

void ConeDependenceChecker::encode(std::uint64_t conflict_limit) {
  solver_.reset();
  solver_.set_conflict_limit(conflict_limit);
  // Literals for the leaves of both copies. Leaf i owns the variable
  // triple (3i = a, 3i+1 = b, 3i+2 = eq), so reuse_core() reads a core's
  // eq selectors back to their leaves by index arithmetic; gate and diff
  // variables follow.
  a_leaf_.reserve(cone_.leaves.size());
  b_leaf_.reserve(cone_.leaves.size());
  eq_sel_.reserve(cone_.leaves.size());
  leaf_is_const_.reserve(cone_.leaves.size());
  for (NodeId leaf : cone_.leaves) {
    GateType t = nl_.node(leaf).type;
    bool is_const = (t == GateType::Const0 || t == GateType::Const1);
    leaf_is_const_.push_back(is_const);
    Lit a = mk_lit(solver_.new_var());
    Lit b = mk_lit(solver_.new_var());
    Lit eq = mk_lit(solver_.new_var());
    if (is_const) {
      bool v = (t == GateType::Const1);
      solver_.add_clause(v ? a : ~a);
      solver_.add_clause(v ? b : ~b);
    }
    // eq -> (a == b)
    solver_.add_clause(~eq, ~a, b);
    solver_.add_clause(~eq, a, ~b);
    a_leaf_.push_back(a);
    b_leaf_.push_back(b);
    eq_sel_.push_back(eq);
  }

  Lit out_a = encode_copy(ws_.lit_a, a_leaf_);
  Lit out_b = encode_copy(ws_.lit_b, b_leaf_);

  diff_ = mk_lit(solver_.new_var());
  // diff -> (out_a != out_b)
  solver_.add_clause(~diff_, out_a, out_b);
  solver_.add_clause(~diff_, ~out_a, ~out_b);

  verdict_.assign(cone_.leaves.size(), 0);
}

Lit ConeDependenceChecker::encode_copy(
    EpochMap<Lit>& node_lit, const std::vector<Lit>& leaf_lits) {
  // A new pass over the stamped map: entries of earlier cones read as
  // lit_undef, so the ordering assert below still catches a gate whose
  // fanin this cone has not encoded yet.
  node_lit.reset(nl_.num_nodes());
  for (std::size_t i = 0; i < cone_.leaves.size(); ++i)
    node_lit.set(cone_.leaves[i], leaf_lits[i]);

  std::vector<Lit> fanin_lits;
  for (NodeId id : cone_.gates) {
    const Node& n = nl_.node(id);
    fanin_lits.clear();
    for (NodeId f : n.fanins) {
      const Lit l = node_lit.get(f, sat::lit_undef);
      assert(l != sat::lit_undef &&
             "cone gates must be topologically ordered");
      fanin_lits.push_back(l);
    }
    Lit out = mk_lit(solver_.new_var());
    encode_gate(solver_, n.type, out, fanin_lits);
    node_lit.set(id, out);
  }

  const Lit root = node_lit.get(cone_.root, sat::lit_undef);
  assert(root != sat::lit_undef);
  return root;
}

sat::Result ConeDependenceChecker::query(std::size_t leaf_idx) {
  assert(leaf_idx < cone_.leaves.size());
  if (leaf_is_const_[leaf_idx]) return sat::Result::Unsat;
  ++sat_calls_;
  if (obs::TraceSession* trace = obs::TraceSession::active()) {
    trace->counter("cone.sat_queries").add(1);
    trace->histogram("cone.leaves_per_query")
        .record(cone_.leaves.size());
  }
  if (verdict_[leaf_idx] != 0) {
    return verdict_[leaf_idx] == 1 ? sat::Result::Sat : sat::Result::Unsat;
  }

  // Canonical assumption order: diff first, then the eq selectors in
  // ascending leaf order, then the flipped leaf's polarity literals.
  // Consecutive queries j, j' thus share an assumption prefix of length
  // 1 + min(j, j'), which the solver keeps on its trail verbatim.
  std::vector<Lit> assumptions;
  assumptions.reserve(cone_.leaves.size() + 3);
  assumptions.push_back(diff_);
  for (std::size_t i = 0; i < cone_.leaves.size(); ++i) {
    if (i != leaf_idx) assumptions.push_back(eq_sel_[i]);
  }
  // WLOG fix the flipped leaf to 1 in copy A and 0 in copy B.
  assumptions.push_back(a_leaf_[leaf_idx]);
  assumptions.push_back(~b_leaf_[leaf_idx]);

  sat::Result r = solver_.solve(assumptions);
  ++solver_solves_;
  if (r == sat::Result::Sat) {
    verdict_[leaf_idx] = 1;
    rotate_model();
  } else if (r == sat::Result::Unsat) {
    verdict_[leaf_idx] = 2;
    reuse_core(leaf_idx);
  }
  return r;
}

void ConeDependenceChecker::reuse_core(std::size_t leaf_idx) {
  // The core is a subset of {diff} ∪ {eq_i : i != j} ∪ {a_j, ~b_j} whose
  // conjunction is already unsatisfiable with the CNF. Leaf k's
  // assumption set contains diff, every eq_i with i != k, a_k and ~b_k —
  // so the core is a subset of it (making k Unsat by the same proof) iff
  // it avoids a_j, ~b_j and eq_k. An empty core means the CNF is
  // unsatisfiable under no assumptions, discharging every leaf.
  const std::size_t num_leaves = cone_.leaves.size();
  const std::vector<Lit>& core = solver_.conflict_core();
  std::vector<bool> eq_in_core(num_leaves, false);
  for (Lit l : core) {
    if (l == a_leaf_[leaf_idx] || l == ~b_leaf_[leaf_idx]) return;
    auto v = static_cast<std::uint32_t>(sat::var(l));
    if (v < 3 * num_leaves && v % 3 == 2) eq_in_core[v / 3] = true;
  }
  for (std::size_t k = 0; k < num_leaves; ++k) {
    if (k == leaf_idx || leaf_is_const_[k] || verdict_[k] != 0) continue;
    if (!eq_in_core[k]) {
      verdict_[k] = 2;
      ++cores_reused_;
    }
  }
}

void ConeDependenceChecker::rotate_model() {
  // Model rotation: the satisfying model assigns every leaf of copy A.
  // Flipping a single undecided leaf u from that assignment and
  // re-evaluating the cone is a direct dependence test — if the root
  // flips, u is a Sat witness (∃ assignment of the other leaves such
  // that toggling u toggles the root). 255 candidate flips ride in one
  // 256-pattern evaluation: bit 0 keeps the unflipped base, bit p >= 1
  // flips exactly candidate p-1.
  const std::size_t num_leaves = cone_.leaves.size();
  rot_cand_.clear();
  for (std::size_t k = 0; k < num_leaves; ++k) {
    if (!leaf_is_const_[k] && verdict_[k] == 0) rot_cand_.push_back(k);
  }
  if (rot_cand_.empty()) return;

  rot_vals_.resize(num_leaves);
  for (std::size_t i = 0; i < num_leaves; ++i)
    rot_vals_[i] = Word256::broadcast(solver_.model_value(a_leaf_[i]));

  for (std::size_t start = 0; start < rot_cand_.size(); start += 255) {
    std::size_t m = std::min<std::size_t>(255, rot_cand_.size() - start);
    for (std::size_t p = 0; p < m; ++p)
      rot_vals_[rot_cand_[start + p]].flip_bit(p + 1);
    Word256 f = eval_cone(nl_, cone_, rot_vals_, ws_.node_values);
    bool base = f.bit(0);
    for (std::size_t p = 0; p < m; ++p) {
      rot_vals_[rot_cand_[start + p]].flip_bit(p + 1);  // restore
      if (f.bit(p + 1) != base) {
        verdict_[rot_cand_[start + p]] = 1;
        ++rotation_witnesses_;
      }
    }
  }
}

}  // namespace rsnsec::netlist
