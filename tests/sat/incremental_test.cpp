// Incremental-solving guarantees of the CDCL solver: reused solvers with
// LBD database reduction answer exactly like fresh solvers (cross-checked
// against exhaustive enumeration on small formulas), conflict cores are
// sound, and the conflict budget is per solve() call.

#include "sat/solver.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.hpp"

namespace rsnsec::sat {
namespace {

struct RandomCnf {
  std::size_t num_vars = 0;
  std::vector<Clause> clauses;
};

RandomCnf make_random_cnf(Rng& rng, std::size_t max_vars) {
  RandomCnf cnf;
  cnf.num_vars = 3 + rng.below(static_cast<std::uint32_t>(max_vars - 2));
  // ~3.5 clauses per variable with widths 1..4 lands a healthy mix of
  // satisfiable and unsatisfiable instances.
  std::size_t num_clauses = 2 + (cnf.num_vars * 7) / 2;
  for (std::size_t c = 0; c < num_clauses; ++c) {
    Clause cl;
    std::size_t width = 1 + rng.below(4);
    for (std::size_t k = 0; k < width; ++k) {
      Var v = static_cast<Var>(rng.below(
          static_cast<std::uint32_t>(cnf.num_vars)));
      cl.push_back(mk_lit(v, rng.chance(0.5)));
    }
    cnf.clauses.push_back(std::move(cl));
  }
  return cnf;
}

std::vector<Lit> random_assumptions(Rng& rng, std::size_t num_vars) {
  std::vector<Lit> as;
  std::size_t n = rng.below(5);
  std::vector<bool> used(num_vars, false);
  for (std::size_t i = 0; i < n; ++i) {
    Var v = static_cast<Var>(rng.below(static_cast<std::uint32_t>(num_vars)));
    if (used[static_cast<std::size_t>(v)]) continue;
    used[static_cast<std::size_t>(v)] = true;
    as.push_back(mk_lit(v, rng.chance(0.5)));
  }
  return as;
}

/// Exhaustive satisfiability check of `cnf` under `assumptions`;
/// num_vars must stay <= 20.
bool brute_force_sat(const RandomCnf& cnf, const std::vector<Lit>& as) {
  for (std::uint64_t m = 0; m < (1ull << cnf.num_vars); ++m) {
    auto lit_true = [&](Lit l) {
      bool v = (m >> var(l)) & 1;
      return v != sign(l);
    };
    bool ok = true;
    for (Lit a : as) {
      if (!lit_true(a)) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    for (const Clause& cl : cnf.clauses) {
      bool sat = false;
      for (Lit l : cl) {
        if (lit_true(l)) {
          sat = true;
          break;
        }
      }
      if (!sat) {
        ok = false;
        break;
      }
    }
    if (ok) return true;
  }
  return false;
}

void load(Solver& s, const RandomCnf& cnf) {
  for (std::size_t v = 0; v < cnf.num_vars; ++v) s.new_var();
  for (const Clause& cl : cnf.clauses) {
    if (!s.add_clause(cl)) return;  // root-level Unsat: solve() reports it
  }
}

TEST(SatIncremental, ReusedSolverMatchesBruteForceUnderReduction) {
  Rng rng(101);
  for (int inst = 0; inst < 60; ++inst) {
    RandomCnf cnf = make_random_cnf(rng, 14);
    Solver solver;
    load(solver, cnf);
    // Force aggressive learnt-database reduction so glue protection and
    // the LBD/activity hybrid ordering are actually exercised even on
    // these small formulas.
    solver.set_max_learnts(8);
    for (int q = 0; q < 12; ++q) {
      std::vector<Lit> as = random_assumptions(rng, cnf.num_vars);
      Result got = solver.solve(as);
      ASSERT_NE(got, Result::Unknown);
      bool expect = brute_force_sat(cnf, as);
      EXPECT_EQ(got == Result::Sat, expect)
          << "instance " << inst << " query " << q;
      // The same query on a throwaway solver agrees — the reused
      // solver's learnt clauses never change answers.
      Solver fresh;
      load(fresh, cnf);
      EXPECT_EQ(fresh.solve(as), got) << "instance " << inst;
    }
  }
}

TEST(SatIncremental, ConflictCoreIsSubsetAndSufficient) {
  Rng rng(202);
  int unsat_seen = 0;
  for (int inst = 0; inst < 80 && unsat_seen < 25; ++inst) {
    RandomCnf cnf = make_random_cnf(rng, 12);
    Solver solver;
    load(solver, cnf);
    for (int q = 0; q < 8; ++q) {
      std::vector<Lit> as = random_assumptions(rng, cnf.num_vars);
      if (solver.solve(as) != Result::Unsat) continue;
      ++unsat_seen;
      const std::vector<Lit>& core = solver.conflict_core();
      // Core is a subset of the assumptions.
      for (Lit c : core) {
        bool found = false;
        for (Lit a : as) found = found || a == c;
        EXPECT_TRUE(found) << "core literal not among assumptions";
      }
      // The core alone is already unsatisfiable with the formula.
      Solver fresh;
      load(fresh, cnf);
      EXPECT_EQ(fresh.solve(core), Result::Unsat) << "instance " << inst;
    }
  }
  EXPECT_GE(unsat_seen, 10) << "fuzz generator produced too few Unsat cases";
}

/// Pigeonhole clauses over fresh variables, each clause widened with the
/// relaxation literal `r`, so that assuming ~r activates an
/// unsatisfiable sub-formula without poisoning the solver's root level.
Lit add_relaxed_pigeonhole(Solver& s, int pigeons, int holes) {
  Lit r = mk_lit(s.new_var());
  std::vector<std::vector<Lit>> p(pigeons);
  for (int i = 0; i < pigeons; ++i)
    for (int j = 0; j < holes; ++j) p[i].push_back(mk_lit(s.new_var()));
  for (int i = 0; i < pigeons; ++i) {
    Clause at_least = p[i];
    at_least.push_back(r);
    s.add_clause(std::move(at_least));
  }
  for (int j = 0; j < holes; ++j)
    for (int i = 0; i < pigeons; ++i)
      for (int k = i + 1; k < pigeons; ++k)
        s.add_clause(Clause{~p[i][j], ~p[k][j], r});
  return r;
}

TEST(SatIncremental, ConflictLimitIsPerSolveNotCumulative) {
  Solver solver;
  solver.set_conflict_limit(20);
  // A hard unsatisfiable sub-formula exhausts the budget of its own
  // solve() call...
  Lit hard = add_relaxed_pigeonhole(solver, 8, 7);
  EXPECT_EQ(solver.solve({~hard}), Result::Unknown);
  EXPECT_GE(solver.stats().conflicts, 20u);
  // ...but an easier query afterwards still gets a full fresh budget.
  // Under the old cumulative semantics the spent budget above would make
  // every later solve() return Unknown on its first conflict. Assuming
  // `hard` satisfies every hard clause so the easy query's search cannot
  // drift into the hard instance and burn its budget there.
  Lit easy = add_relaxed_pigeonhole(solver, 4, 3);
  EXPECT_EQ(solver.solve({hard, ~easy}), Result::Unsat);
  // And repeated limited queries never erode the budget either.
  for (int i = 0; i < 20; ++i)
    EXPECT_EQ(solver.solve({hard, ~easy}), Result::Unsat) << "query " << i;
}

}  // namespace
}  // namespace rsnsec::sat
