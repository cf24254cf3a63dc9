#pragma once

#include <cstdint>
#include <vector>

#include "sat/literal.hpp"

namespace rsnsec::sat {

/// Outcome of a solve() call.
enum class Result : std::uint8_t { Sat, Unsat, Unknown };

/// Aggregate solver statistics, exposed for the micro-benchmarks and
/// aggregated into dep::DepStats / the --json report.
struct SolverStats {
  std::uint64_t conflicts = 0;
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learned_clauses = 0;
  /// Glue clauses (LBD <= 2) learned; these are exempt from database
  /// reduction.
  std::uint64_t lbd_protected = 0;
  /// Literals removed from learnt clauses by on-the-fly strengthening
  /// (binary self-subsuming resolution).
  std::uint64_t strengthened_lits = 0;
};

/// Conflict-driven clause-learning (CDCL) SAT solver.
///
/// Implements the standard architecture: two-watched-literal propagation,
/// first-UIP conflict analysis with recursive clause minimization and
/// on-the-fly strengthening through binary clauses, VSIDS-style
/// activity-ordered decisions, phase saving, Luby-sequence restarts and
/// LBD/activity hybrid learned-clause database reduction with glue-clause
/// protection (LBD <= 2). Supports solving under assumptions, which the
/// dependency engine (src/dep) uses to reuse one CNF encoding of a
/// flip-flop's input cone across all candidate source flip-flops
/// (Sec. III-A; method of [18]).
///
/// Incremental use. Consecutive solve() calls whose assumption vectors
/// share a common prefix reuse the corresponding trail prefix: the solver
/// only backtracks to the first differing assumption instead of to the
/// root, skipping the re-propagation of everything implied by the shared
/// prefix. When a solve returns Unsat because an assumption failed,
/// conflict_core() exposes the subset of assumptions the proof used, so a
/// caller can discharge other queries whose assumption sets contain that
/// core without further solves.
///
/// Thread compatibility: a Solver is share-nothing — all state (arena,
/// trail, heap, statistics) lives in instance members and nothing is
/// global or static-mutable, so distinct instances may run concurrently
/// on distinct threads. The parallel dependency engine relies on this by
/// giving every in-flight cone classification its own solver. A single
/// instance is not internally synchronized.
class Solver {
 public:
  Solver();

  /// Creates a fresh unassigned variable and returns its index.
  Var new_var();

  /// Number of variables created so far.
  std::size_t num_vars() const { return assigns_.size(); }

  /// Adds a clause. Returns false if the formula became trivially
  /// unsatisfiable (empty clause or conflicting units at level 0).
  bool add_clause(Clause lits);

  /// Convenience overloads for short clauses.
  bool add_clause(Lit a) { return add_clause(Clause{a}); }
  bool add_clause(Lit a, Lit b) { return add_clause(Clause{a, b}); }
  bool add_clause(Lit a, Lit b, Lit c) { return add_clause(Clause{a, b, c}); }

  /// Solves the formula under the given assumptions.
  Result solve(const std::vector<Lit>& assumptions = {});

  /// Model value of variable `v`; valid only after solve() returned Sat.
  bool model_value(Var v) const { return model_[static_cast<std::size_t>(v)]; }

  /// Model value of a literal; valid only after solve() returned Sat.
  bool model_value(Lit l) const { return model_value(var(l)) != sign(l); }

  /// Limits the number of conflicts of each individual solve() call
  /// (0 = unlimited); exceeding the limit makes that solve() return
  /// Unknown. The budget is per solve — a reused solver gets the full
  /// budget for every call, regardless of how many conflicts earlier
  /// calls consumed.
  void set_conflict_limit(std::uint64_t limit) { conflict_limit_ = limit; }

  /// Assumption core of the last solve() that returned Unsat: a subset of
  /// the passed assumptions whose conjunction is already unsatisfiable
  /// with the formula. Empty when the formula is unsatisfiable regardless
  /// of assumptions. Any assumption superset of the core is Unsat too.
  const std::vector<Lit>& conflict_core() const { return core_; }

  /// Overrides the learnt-database size that triggers reduce_db()
  /// (0 = automatic: 4000 + 8 * num_vars). Exposed for tests that force
  /// heavy database reduction on small formulas.
  void set_max_learnts(std::size_t n) { max_learnts_ = n; }

  /// Cumulative statistics across all solve() calls.
  const SolverStats& stats() const { return stats_; }

 private:
  using CRef = std::uint32_t;
  static constexpr CRef cref_undef = 0xffffffffu;

  struct Watcher {
    CRef cref;
    Lit blocker;
  };

  struct VarData {
    CRef reason = cref_undef;
    std::int32_t level = 0;
  };

  // Clause arena: header word (size << 2 | learnt << 1); learnt clauses
  // carry a float activity word and an LBD word; then literals. Clauses
  // removed by reduce_db() are detached from the watches and stay in the
  // arena unreferenced.
  std::vector<std::uint32_t> arena_;
  std::vector<CRef> learnts_;

  std::vector<LBool> assigns_;
  std::vector<bool> phase_;
  std::vector<VarData> var_data_;
  std::vector<std::vector<Watcher>> watches_;  // indexed by literal code
  std::vector<Lit> trail_;
  std::vector<std::size_t> trail_lim_;
  std::size_t qhead_ = 0;

  std::vector<double> activity_;
  double var_inc_ = 1.0;
  std::vector<Var> heap_;          // binary max-heap on activity
  std::vector<std::int32_t> heap_pos_;  // -1 when not in heap

  double cla_inc_ = 1.0;
  std::vector<bool> seen_;
  std::vector<Lit> analyze_stack_;
  std::vector<Var> analyze_toclear_;   // every seen_ mark of one analyze()
  std::vector<Var> redundant_marked_;  // marks of one lit_redundant() call
  std::vector<std::uint64_t> lbd_stamp_;  // per decision level
  std::uint64_t lbd_counter_ = 0;
  std::vector<std::uint64_t> bin_stamp_;  // per var, binary strengthening
  std::vector<std::int32_t> bin_lit_;     // literal code behind bin_stamp_
  std::uint64_t bin_counter_ = 0;

  std::vector<bool> model_;
  std::vector<Lit> core_;
  std::vector<Lit> prev_assumptions_;  // trail-prefix reuse across solves
  bool ok_ = true;
  std::uint64_t conflict_limit_ = 0;
  std::uint64_t solve_start_conflicts_ = 0;
  std::size_t max_learnts_ = 0;  // 0 = automatic
  SolverStats stats_;

  // --- clause arena helpers ---
  CRef alloc_clause(const Clause& lits, bool learnt, std::uint32_t lbd);
  std::uint32_t clause_size(CRef c) const { return arena_[c] >> 2; }
  bool clause_learnt(CRef c) const { return (arena_[c] & 2) != 0; }
  Lit* clause_lits(CRef c) {
    return reinterpret_cast<Lit*>(&arena_[c + (clause_learnt(c) ? 3 : 1)]);
  }
  const Lit* clause_lits(CRef c) const {
    return reinterpret_cast<const Lit*>(
        &arena_[c + (clause_learnt(c) ? 3 : 1)]);
  }
  float& clause_activity(CRef c) {
    return *reinterpret_cast<float*>(&arena_[c + 1]);
  }
  float clause_activity(CRef c) const {
    union {
      std::uint32_t u;
      float f;
    } cast{arena_[c + 1]};
    return cast.f;
  }
  std::uint32_t clause_lbd(CRef c) const { return arena_[c + 2]; }
  void set_clause_lbd(CRef c, std::uint32_t lbd) { arena_[c + 2] = lbd; }

  // --- core CDCL ---
  LBool value(Lit l) const {
    return lit_value(assigns_[static_cast<std::size_t>(var(l))], l);
  }
  LBool value(Var v) const { return assigns_[static_cast<std::size_t>(v)]; }
  std::int32_t level(Var v) const {
    return var_data_[static_cast<std::size_t>(v)].level;
  }
  std::int32_t decision_level() const {
    return static_cast<std::int32_t>(trail_lim_.size());
  }

  void attach_clause(CRef c);
  void detach_clause(CRef c);
  void enqueue(Lit l, CRef reason);
  CRef propagate();
  void new_decision_level() { trail_lim_.push_back(trail_.size()); }
  void cancel_until(std::int32_t lvl);
  void backtrack_to_root();
  void analyze(CRef confl, Clause& out_learnt, std::int32_t& out_btlevel,
               std::uint32_t& out_lbd);
  void analyze_final(Lit p);
  bool lit_redundant(Lit l, std::uint32_t abstract_levels);
  void strengthen_with_binaries(Clause& out_learnt);
  std::uint32_t compute_lbd(const Clause& lits);
  Lit pick_branch_lit();
  Result solve_impl(const std::vector<Lit>& assumptions);
  Result search(std::uint64_t conflicts_budget,
                const std::vector<Lit>& assumptions);
  void reduce_db();

  // --- VSIDS heap ---
  void var_bump(Var v);
  void var_decay() { var_inc_ *= (1.0 / 0.95); }
  void cla_bump(CRef c);
  void cla_decay() { cla_inc_ *= (1.0 / 0.999); }
  void heap_insert(Var v);
  void heap_sift_up(std::size_t i);
  void heap_sift_down(std::size_t i);
  Var heap_pop();
  bool heap_empty() const { return heap_.empty(); }
  void rescale_var_activity();
};

/// Luby restart sequence value for index i (1, 1, 2, 1, 1, 2, 4, ...).
std::uint64_t luby(std::uint64_t i);

}  // namespace rsnsec::sat
