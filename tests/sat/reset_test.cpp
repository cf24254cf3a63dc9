// Solver::reset(): a reset solver is indistinguishable from a newly
// constructed one. After unrelated work — solves under assumptions, a
// solve the conflict limit stops with Unknown, forced database
// reductions, more variables than the replayed formula — the same random
// CNF and assumption sequence must give the same results, models,
// conflict cores and every SolverStats field as on a fresh solver.

#include <gtest/gtest.h>

#include <vector>

#include "sat/solver.hpp"
#include "util/rng.hpp"

namespace rsnsec::sat {
namespace {

/// A formula plus a sequence of solves: each solve carries its
/// assumptions and the conflict limit it runs under.
struct Script {
  std::size_t num_vars = 0;
  std::vector<Clause> clauses;
  std::size_t max_learnts = 0;
  struct Solve {
    std::vector<Lit> assumptions;
    std::uint64_t conflict_limit = 0;
  };
  std::vector<Solve> solves;
};

/// Random 3-SAT with `ratio_x10` / 10 clauses per variable (near the
/// satisfiability threshold, 4.2, solves conflict, learn and restart),
/// random assumption sets of up to 6 literals, and a small conflict limit
/// on a quarter of the solves.
Script make_script(Rng& rng, std::size_t num_vars, std::size_t num_solves,
                   std::size_t ratio_x10 = 42) {
  Script s;
  s.num_vars = num_vars;
  const std::size_t num_clauses = (num_vars * ratio_x10) / 10;
  for (std::size_t c = 0; c < num_clauses; ++c) {
    Clause cl;
    for (int k = 0; k < 3; ++k)
      cl.push_back(mk_lit(
          static_cast<Var>(rng.below(static_cast<std::uint32_t>(num_vars))),
          rng.chance(0.5)));
    s.clauses.push_back(std::move(cl));
  }
  for (std::size_t i = 0; i < num_solves; ++i) {
    Script::Solve solve;
    const std::size_t n = rng.below(7);
    for (std::size_t k = 0; k < n; ++k)
      solve.assumptions.push_back(mk_lit(
          static_cast<Var>(rng.below(static_cast<std::uint32_t>(num_vars))),
          rng.chance(0.5)));
    solve.conflict_limit = rng.chance(0.25) ? 1 + rng.below(20) : 0;
    s.solves.push_back(std::move(solve));
  }
  return s;
}

/// Everything observable about running a script.
struct Trace {
  std::vector<Result> results;
  std::vector<std::vector<bool>> models;   // per Sat solve
  std::vector<std::vector<Lit>> cores;     // per Unsat solve
  std::vector<SolverStats> stats;          // after every solve
  std::size_t num_vars = 0;
};

void expect_same_stats(const SolverStats& a, const SolverStats& b,
                       const char* what, std::size_t i) {
  EXPECT_EQ(a.conflicts, b.conflicts) << what << " solve " << i;
  EXPECT_EQ(a.decisions, b.decisions) << what << " solve " << i;
  EXPECT_EQ(a.propagations, b.propagations) << what << " solve " << i;
  EXPECT_EQ(a.restarts, b.restarts) << what << " solve " << i;
  EXPECT_EQ(a.learned_clauses, b.learned_clauses) << what << " solve " << i;
  EXPECT_EQ(a.lbd_protected, b.lbd_protected) << what << " solve " << i;
}

Trace run(Solver& s, const Script& script) {
  Trace t;
  for (std::size_t v = 0; v < script.num_vars; ++v) s.new_var();
  if (script.max_learnts != 0) s.set_max_learnts(script.max_learnts);
  for (const Clause& c : script.clauses) s.add_clause(c);
  for (const Script::Solve& solve : script.solves) {
    s.set_conflict_limit(solve.conflict_limit);
    const Result r = s.solve(solve.assumptions);
    t.results.push_back(r);
    if (r == Result::Sat) {
      std::vector<bool> model;
      for (std::size_t v = 0; v < script.num_vars; ++v)
        model.push_back(s.model_value(static_cast<Var>(v)));
      t.models.push_back(std::move(model));
    } else if (r == Result::Unsat) {
      t.cores.push_back(s.conflict_core());
    }
    t.stats.push_back(s.stats());
  }
  t.num_vars = s.num_vars();
  return t;
}

void expect_same_trace(const Trace& fresh, const Trace& reused,
                       const char* what) {
  EXPECT_EQ(fresh.results, reused.results) << what;
  EXPECT_EQ(fresh.models, reused.models) << what;
  EXPECT_EQ(fresh.cores, reused.cores) << what;
  EXPECT_EQ(fresh.num_vars, reused.num_vars) << what;
  ASSERT_EQ(fresh.stats.size(), reused.stats.size()) << what;
  for (std::size_t i = 0; i < fresh.stats.size(); ++i)
    expect_same_stats(fresh.stats[i], reused.stats[i], what, i);
}

/// Pigeonhole PHP(n+1, n): unsatisfiable and hard enough that a
/// conflict limit of a few conflicts stops it with Unknown.
void add_pigeonhole(Solver& s, std::size_t holes) {
  const std::size_t pigeons = holes + 1;
  std::vector<std::vector<Lit>> x(pigeons);
  for (auto& row : x)
    for (std::size_t h = 0; h < holes; ++h) row.push_back(mk_lit(s.new_var()));
  for (const auto& row : x) s.add_clause(Clause(row.begin(), row.end()));
  for (std::size_t h = 0; h < holes; ++h)
    for (std::size_t p = 0; p < pigeons; ++p)
      for (std::size_t q = p + 1; q < pigeons; ++q)
        s.add_clause(~x[p][h], ~x[q][h]);
}

/// Unrelated work that leaves state in every part of the solver: more
/// variables than any replayed script, Sat models and assumption cores of
/// a satisfiable formula under forced database reductions, then a
/// pigeonhole formula that the conflict limit stops with Unknown.
void dirty(Solver& s, Rng& rng) {
  s.set_max_learnts(8);
  run(s, make_script(rng, 140, 12, /*ratio_x10=*/30));
  add_pigeonhole(s, 7);
  s.set_conflict_limit(5);
  EXPECT_EQ(s.solve(), Result::Unknown);
  s.set_conflict_limit(20);
  EXPECT_NE(s.solve({mk_lit(0), ~mk_lit(1)}), Result::Sat);
}

TEST(SolverReset, ResetSolverReplaysLikeAFreshOne) {
  Rng rng(2024);
  std::size_t outcomes[3] = {0, 0, 0};  // by Result
  for (int inst = 0; inst < 25; ++inst) {
    Script script = make_script(rng, 30 + rng.below(60), 16);
    if (inst % 3 == 0) script.max_learnts = 6;

    Solver fresh;
    const Trace want = run(fresh, script);
    for (Result r : want.results) ++outcomes[static_cast<int>(r)];

    Solver reused;
    dirty(reused, rng);
    reused.reset();
    EXPECT_EQ(reused.num_vars(), 0u);
    expect_same_stats(reused.stats(), SolverStats{}, "after reset", 0);
    expect_same_trace(want, run(reused, script), "after dirty work");

    // A second reset, straight after the replayed script itself.
    reused.reset();
    expect_same_trace(want, run(reused, script), "after the script");
  }
  // The replayed scripts cover every outcome: models, cores and budget
  // exhaustion.
  EXPECT_GT(outcomes[static_cast<int>(Result::Sat)], 0u);
  EXPECT_GT(outcomes[static_cast<int>(Result::Unsat)], 0u);
  EXPECT_GT(outcomes[static_cast<int>(Result::Unknown)], 0u);
}

TEST(SolverReset, ResetClearsAnUnsatisfiableFormula) {
  // A formula refuted at level 0 leaves the solver not-ok; reset must
  // bring it back.
  Solver s;
  Var a = s.new_var();
  s.add_clause(mk_lit(a));
  EXPECT_FALSE(s.add_clause(~mk_lit(a)));
  EXPECT_EQ(s.solve(), Result::Unsat);
  s.reset();
  Var b = s.new_var();
  EXPECT_EQ(b, 0);
  s.add_clause(~mk_lit(b));
  EXPECT_EQ(s.solve(), Result::Sat);
  EXPECT_FALSE(s.model_value(b));
}

}  // namespace
}  // namespace rsnsec::sat
