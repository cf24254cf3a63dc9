#pragma once

#include <memory>
#include <span>
#include <vector>

#include "netlist/cone_workspace.hpp"
#include "netlist/netlist.hpp"
#include "netlist/sim.hpp"
#include "sat/solver.hpp"

namespace rsnsec::netlist {

/// Adds the Tseitin clauses of out <-> type(ins) to `s`, `ins` being the
/// literals of the gate's fanins in order. The one gate-to-CNF mapping of
/// the repository: the dependence checker below and the attack engine's
/// sensitization encode their cones through it. Throws std::logic_error
/// for leaf types (is_comb_leaf), which have no combinational function.
void encode_gate(sat::Solver& s, GateType type, sat::Lit out,
                 std::span<const sat::Lit> ins);

/// Cones with at most this many non-constant leaves have all their leaf
/// assignments (2^8 = 256) in the patterns of one Word256, so
/// exhaustive_dependence() decides them.
inline constexpr std::size_t kExhaustiveLeaves = 8;

/// Decides without a solver, for every leaf of `cone`, the question
/// ConeDependenceChecker::query asks, provided the cone has at most
/// kExhaustiveLeaves non-constant leaves; otherwise returns false and
/// leaves `depends` as it was. Non-constant leaf c (counted in leaf order)
/// gets the truth-table column of variable c over the 256 patterns,
/// constants are pinned, and the cone is evaluated once. Complementing
/// column c turns pattern p into pattern p ^ 2^c, so depends[i] is set
/// exactly when the root differs on some such pair: some assignment of
/// the other leaves lets a flip of leaf i flip the root. That is the
/// Boolean difference the two-copy miter asks the solver, so depends[i]
/// holds exactly when query(i) would answer Sat with an unlimited budget
/// (never for a constant leaf); there is no Unknown. Works in the
/// workspace's simulation buffers (leaf_values, node_values).
bool exhaustive_dependence(ConeWorkspace& ws, const Cone& cone,
                           std::vector<bool>& depends);

/// SAT-based exact functional-dependence check for one combinational cone
/// (the method of [18], Sec. III-A of the paper).
///
/// The checker encodes two copies A and B of the cone into one CNF. Every
/// leaf i gets an equality selector eq_i (eq_i -> a_i == b_i) and a `diff`
/// literal asserts that the two root values differ. Whether the root
/// functionally depends on leaf j is then a single incremental SAT call
/// under assumptions {diff} ∪ {eq_i : i != j} ∪ {a_j, ¬b_j}: satisfiable
/// iff some assignment of the remaining leaves lets a flip of leaf j flip
/// the root — i.e. data can propagate. UNSAT means the structural
/// connection is "only structural" (e.g. cancelled by reconvergence, as
/// the XOR in Fig. 5 of the paper).
///
/// Queries are incremental three ways. The assumption vector is ordered
/// canonically (diff first, then the eq selectors ascending) so
/// consecutive queries share a maximal trail prefix inside the solver and
/// skip re-propagating it. A Sat model is rotated: flipping one undecided
/// leaf at a time from the model assignment (up to 255 leaves per
/// 256-pattern cone evaluation) witnesses further functional dependencies
/// without any solver call. An Unsat answer yields an assumption core; when the core
/// avoids the flipped leaf's literals, every other leaf whose eq selector
/// is outside the core is Unsat by the same proof and is discharged
/// without a solve. Verdicts match a fresh checker per query, except that
/// with a finite conflict_limit a leaf another query already decided
/// cannot come back Unknown.
class ConeDependenceChecker {
 public:
  /// Builds the two-copy CNF for `cone` of the workspace's netlist in the
  /// workspace's solver, which it first reset()s: the checker borrows the
  /// solver, the literal maps and the simulation scratch of `ws` until it
  /// is destroyed, and building another checker on `ws` invalidates it.
  /// Because the reset is exact, verdicts and every counter equal those
  /// of a checker on a fresh workspace. The cone must have been extracted
  /// from the same netlist (ConeWorkspace::extract_signal_cone and
  /// friends). `conflict_limit` is the per-query SAT conflict budget
  /// (0 = unlimited); an exceeded budget makes query() return
  /// sat::Result::Unknown.
  ConeDependenceChecker(ConeWorkspace& ws, const Cone& cone,
                        std::uint64_t conflict_limit = 0);

  /// Convenience for one-off cones: the same checker on a private
  /// workspace of netlist `nl`.
  ConeDependenceChecker(const Netlist& nl, const Cone& cone,
                        std::uint64_t conflict_limit = 0);

  /// Exact query for cone.leaves[leaf_idx]: Sat means the root
  /// functionally depends on the leaf, Unsat means the connection is
  /// only structural, Unknown means the conflict budget ran out before a
  /// proof (callers must treat this conservatively — for security that
  /// means assuming a functional dependency). Constant leaves never
  /// support dependence (Unsat without a solver call).
  sat::Result query(std::size_t leaf_idx);

  /// True if the cone root provably functionally depends on
  /// cone.leaves[leaf_idx] (query() == Sat).
  bool depends_on(std::size_t leaf_idx) {
    return query(leaf_idx) == sat::Result::Sat;
  }

  /// Number of logical SAT queries so far. Cached verdicts (from core
  /// reuse or model rotation) still count: the number measures
  /// classification work, not solver invocations (see solver_solves()).
  std::uint64_t sat_calls() const { return sat_calls_; }

  /// Number of actual solver solve() calls issued.
  std::uint64_t solver_solves() const { return solver_solves_; }

  /// Leaves discharged as Unsat by assumption-core reuse.
  std::uint64_t cores_reused() const { return cores_reused_; }

  /// Leaves discharged as Sat by model rotation.
  std::uint64_t rotation_witnesses() const { return rotation_witnesses_; }

  /// Access to the underlying solver statistics.
  const sat::SolverStats& solver_stats() const { return solver_.stats(); }

 private:
  std::unique_ptr<ConeWorkspace> owned_;  ///< set by the convenience ctor
  ConeWorkspace& ws_;
  const Netlist& nl_;
  const Cone& cone_;
  sat::Solver& solver_;
  std::vector<sat::Lit> a_leaf_, b_leaf_, eq_sel_;
  std::vector<bool> leaf_is_const_;
  sat::Lit diff_{};
  std::uint64_t sat_calls_ = 0;
  std::uint64_t solver_solves_ = 0;
  std::uint64_t cores_reused_ = 0;
  std::uint64_t rotation_witnesses_ = 0;
  // Cached verdicts per leaf: 0 = undecided, 1 = Sat, 2 = Unsat.
  std::vector<std::uint8_t> verdict_;
  // Scratch for model rotation (eval_cone's NodeId-indexed scratch is the
  // workspace's).
  std::vector<Word256> rot_vals_;
  std::vector<std::size_t> rot_cand_;

  void encode(std::uint64_t conflict_limit);
  sat::Lit encode_copy(EpochMap<sat::Lit>& node_lit,
                       const std::vector<sat::Lit>& leaf_lits);
  void reuse_core(std::size_t leaf_idx);
  void rotate_model();
};

}  // namespace rsnsec::netlist
