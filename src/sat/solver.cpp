#include "sat/solver.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/trace.hpp"

namespace rsnsec::sat {

std::uint64_t luby(std::uint64_t i) {
  // Find the finite subsequence that contains index i, then index into it.
  std::uint64_t size = 1;
  std::uint64_t seq = 0;
  while (size < i + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) / 2;
    --seq;
    i = i % size;
  }
  return 1ULL << seq;
}

Solver::Solver() { lbd_stamp_.push_back(0); }

void Solver::reset() {
  // Every member back to its initializer. clear() keeps capacity; the
  // watch lists of the current variables are emptied but stay allocated
  // for new_var() to reuse (lists past them are already empty).
  arena_.clear();
  learnts_.clear();
  for (std::size_t l = 0; l < 2 * num_vars(); ++l) watches_[l].clear();
  assigns_.clear();
  phase_.clear();
  var_data_.clear();
  trail_.clear();
  trail_lim_.clear();
  qhead_ = 0;
  activity_.clear();
  var_inc_ = 1.0;
  heap_.clear();
  heap_pos_.clear();
  cla_inc_ = 1.0;
  seen_.clear();
  analyze_stack_.clear();
  analyze_toclear_.clear();
  redundant_marked_.clear();
  lbd_stamp_.assign(1, 0);
  lbd_counter_ = 0;
  bin_stamp_.clear();
  bin_lit_.clear();
  bin_counter_ = 0;
  model_.clear();
  core_.clear();
  prev_assumptions_.clear();
  ok_ = true;
  conflict_limit_ = 0;
  solve_start_conflicts_ = 0;
  max_learnts_ = 0;
  stats_ = {};
}

Var Solver::new_var() {
  auto v = static_cast<Var>(assigns_.size());
  assigns_.push_back(LBool::Undef);
  phase_.push_back(false);
  var_data_.push_back({});
  activity_.push_back(0.0);
  heap_pos_.push_back(-1);
  seen_.push_back(false);
  lbd_stamp_.push_back(0);
  bin_stamp_.push_back(0);
  bin_lit_.push_back(0);
  if (watches_.size() < 2 * num_vars()) watches_.resize(2 * num_vars());
  model_.push_back(false);
  heap_insert(v);
  return v;
}

Solver::CRef Solver::alloc_clause(const Clause& lits, bool learnt,
                                  std::uint32_t lbd) {
  auto c = static_cast<CRef>(arena_.size());
  arena_.push_back((static_cast<std::uint32_t>(lits.size()) << 2) |
                   (learnt ? 2u : 0u));
  if (learnt) {
    arena_.push_back(0);  // activity slot
    arena_.push_back(lbd);
  }
  for (Lit l : lits) arena_.push_back(static_cast<std::uint32_t>(l.x));
  if (learnt) {
    clause_activity(c) = 0.0f;
    learnts_.push_back(c);
    ++stats_.learned_clauses;
  }
  return c;
}

void Solver::attach_clause(CRef c) {
  Lit* lits = clause_lits(c);
  assert(clause_size(c) >= 2);
  watches_[static_cast<std::size_t>((~lits[0]).x)].push_back(
      {c, lits[1]});
  watches_[static_cast<std::size_t>((~lits[1]).x)].push_back(
      {c, lits[0]});
}

void Solver::detach_clause(CRef c) {
  for (int w = 0; w < 2; ++w) {
    Lit watched = clause_lits(c)[w];
    auto& ws = watches_[static_cast<std::size_t>((~watched).x)];
    for (std::size_t k = 0; k < ws.size(); ++k) {
      if (ws[k].cref == c) {
        ws[k] = ws.back();
        ws.pop_back();
        break;
      }
    }
  }
}

bool Solver::add_clause(Clause lits) {
  backtrack_to_root();
  if (!ok_) return false;

  // Normalize: sort, drop duplicates and level-0-false literals, detect
  // tautologies and level-0-true literals.
  std::sort(lits.begin(), lits.end(),
            [](Lit a, Lit b) { return a.x < b.x; });
  Clause out;
  Lit prev = lit_undef;
  for (Lit l : lits) {
    if (value(l) == LBool::True || (prev != lit_undef && l == ~prev))
      return true;  // satisfied or tautological
    if (value(l) == LBool::False || l == prev) continue;
    out.push_back(l);
    prev = l;
  }

  if (out.empty()) {
    ok_ = false;
    return false;
  }
  if (out.size() == 1) {
    enqueue(out[0], cref_undef);
    ok_ = (propagate() == cref_undef);
    return ok_;
  }
  attach_clause(alloc_clause(out, /*learnt=*/false, /*lbd=*/0));
  return true;
}

void Solver::enqueue(Lit l, CRef reason) {
  auto v = static_cast<std::size_t>(var(l));
  assert(assigns_[v] == LBool::Undef);
  assigns_[v] = lbool_of(!sign(l));
  var_data_[v] = {reason, decision_level()};
  trail_.push_back(l);
}

Solver::CRef Solver::propagate() {
  CRef confl = cref_undef;
  while (qhead_ < trail_.size()) {
    Lit p = trail_[qhead_++];
    ++stats_.propagations;
    auto& ws = watches_[static_cast<std::size_t>(p.x)];
    std::size_t keep = 0;
    for (std::size_t i = 0; i < ws.size(); ++i) {
      Watcher w = ws[i];
      // Fast path: the blocker literal is already true.
      if (value(w.blocker) == LBool::True) {
        ws[keep++] = w;
        continue;
      }
      CRef c = w.cref;
      Lit* lits = clause_lits(c);
      std::uint32_t size = clause_size(c);
      Lit false_lit = ~p;
      // Ensure the false watched literal is at position 1.
      if (lits[0] == false_lit) std::swap(lits[0], lits[1]);
      assert(lits[1] == false_lit);

      if (value(lits[0]) == LBool::True) {
        ws[keep++] = {c, lits[0]};
        continue;
      }
      // Look for a new literal to watch.
      bool moved = false;
      for (std::uint32_t k = 2; k < size; ++k) {
        if (value(lits[k]) != LBool::False) {
          std::swap(lits[1], lits[k]);
          watches_[static_cast<std::size_t>((~lits[1]).x)].push_back(
              {c, lits[0]});
          moved = true;
          break;
        }
      }
      if (moved) continue;

      // Clause is unit or conflicting.
      ws[keep++] = {c, lits[0]};
      if (value(lits[0]) == LBool::False) {
        confl = c;
        qhead_ = trail_.size();
        // Copy remaining watchers.
        for (std::size_t j = i + 1; j < ws.size(); ++j) ws[keep++] = ws[j];
        break;
      }
      enqueue(lits[0], c);
    }
    ws.resize(keep);
    if (confl != cref_undef) break;
  }
  return confl;
}

void Solver::cancel_until(std::int32_t lvl) {
  if (decision_level() <= lvl) return;
  std::size_t bound = trail_lim_[static_cast<std::size_t>(lvl)];
  for (std::size_t i = trail_.size(); i-- > bound;) {
    auto v = static_cast<std::size_t>(var(trail_[i]));
    phase_[v] = (assigns_[v] == LBool::True);
    assigns_[v] = LBool::Undef;
    if (heap_pos_[v] < 0) heap_insert(static_cast<Var>(v));
  }
  trail_.resize(bound);
  trail_lim_.resize(static_cast<std::size_t>(lvl));
  qhead_ = trail_.size();
}

void Solver::backtrack_to_root() {
  cancel_until(0);
  prev_assumptions_.clear();
}

bool Solver::lit_redundant(Lit l, std::uint32_t abstract_levels) {
  // A literal is redundant in the learnt clause if it is implied by other
  // clause literals (standard recursive minimization with an explicit
  // stack; `seen_` marks clause literals and proven-redundant ones). On
  // success the marks stay set — they memoize the proof for the remaining
  // candidates — and analyze() clears them through analyze_toclear_; on
  // failure only this call's own marks are rolled back.
  analyze_stack_.clear();
  analyze_stack_.push_back(l);
  std::size_t top = 0;
  redundant_marked_.clear();
  while (top < analyze_stack_.size()) {
    Lit q = analyze_stack_[top++];
    CRef reason = var_data_[static_cast<std::size_t>(var(q))].reason;
    if (reason == cref_undef) {
      for (Var v : redundant_marked_)
        seen_[static_cast<std::size_t>(v)] = false;
      return false;
    }
    const Lit* lits = clause_lits(reason);
    std::uint32_t size = clause_size(reason);
    for (std::uint32_t k = 0; k < size; ++k) {
      Lit r = lits[k];
      if (r == q || r == ~q) continue;
      Var v = var(r);
      if (seen_[static_cast<std::size_t>(v)] || level(v) == 0) continue;
      std::uint32_t lv_abs = 1u << (level(v) & 31);
      if ((lv_abs & abstract_levels) == 0) {
        for (Var u : redundant_marked_)
          seen_[static_cast<std::size_t>(u)] = false;
        return false;
      }
      seen_[static_cast<std::size_t>(v)] = true;
      redundant_marked_.push_back(v);
      analyze_stack_.push_back(r);
    }
  }
  for (Var v : redundant_marked_) analyze_toclear_.push_back(v);
  return true;
}

void Solver::strengthen_with_binaries(Clause& out_learnt) {
  // On-the-fly strengthening (binary self-subsuming resolution): for the
  // asserting literal l0, a binary clause (l0 v q) lets us drop ~q from
  // the learnt clause — the resolvent on ~q is the strengthened clause
  // itself. Binaries containing l0 as a watched literal live in the watch
  // list of ~l0.
  if (out_learnt.size() < 3 || out_learnt.size() > 30) return;
  ++bin_counter_;
  for (std::size_t i = 1; i < out_learnt.size(); ++i) {
    auto v = static_cast<std::size_t>(var(out_learnt[i]));
    bin_stamp_[v] = bin_counter_;
    bin_lit_[v] = out_learnt[i].x;
  }
  const Lit l0 = out_learnt[0];
  bool any = false;
  const auto& ws = watches_[static_cast<std::size_t>((~l0).x)];
  for (const Watcher& w : ws) {
    if (clause_size(w.cref) != 2) continue;
    const Lit q = w.blocker;
    auto v = static_cast<std::size_t>(var(q));
    if (bin_stamp_[v] == bin_counter_ && bin_lit_[v] == (~q).x) {
      bin_lit_[v] = lit_undef.x;  // mark ~q for removal
      any = true;
    }
  }
  if (!any) return;
  std::size_t keep = 1;
  for (std::size_t i = 1; i < out_learnt.size(); ++i) {
    auto v = static_cast<std::size_t>(var(out_learnt[i]));
    if (bin_stamp_[v] == bin_counter_ && bin_lit_[v] == lit_undef.x)
      continue;
    out_learnt[keep++] = out_learnt[i];
  }
  out_learnt.resize(keep);
}

std::uint32_t Solver::compute_lbd(const Clause& lits) {
  // Literal block distance: number of distinct decision levels in the
  // clause (Glucose). Low LBD predicts a clause that keeps propagating.
  ++lbd_counter_;
  std::uint32_t lbd = 0;
  for (Lit l : lits) {
    auto lv = static_cast<std::size_t>(level(var(l)));
    if (lv == 0) continue;
    if (lbd_stamp_[lv] != lbd_counter_) {
      lbd_stamp_[lv] = lbd_counter_;
      ++lbd;
    }
  }
  return lbd;
}

void Solver::analyze(CRef confl, Clause& out_learnt,
                     std::int32_t& out_btlevel, std::uint32_t& out_lbd) {
  // First-UIP conflict analysis.
  out_learnt.clear();
  out_learnt.push_back(lit_undef);  // placeholder for the asserting literal
  std::int32_t path_count = 0;
  Lit p = lit_undef;
  std::size_t index = trail_.size();
  assert(analyze_toclear_.empty());

  do {
    assert(confl != cref_undef);
    if (clause_learnt(confl)) cla_bump(confl);
    const Lit* lits = clause_lits(confl);
    std::uint32_t size = clause_size(confl);
    for (std::uint32_t k = (p == lit_undef ? 0u : 1u); k < size; ++k) {
      // For reason clauses, lits[0] is the implied literal (== p).
      Lit q = lits[k];
      if (p != lit_undef && q == p) continue;
      Var v = var(q);
      if (seen_[static_cast<std::size_t>(v)] || level(v) == 0) continue;
      seen_[static_cast<std::size_t>(v)] = true;
      analyze_toclear_.push_back(v);
      var_bump(v);
      if (level(v) >= decision_level()) {
        ++path_count;
      } else {
        out_learnt.push_back(q);
      }
    }
    // Select the next literal on the trail to resolve on.
    while (!seen_[static_cast<std::size_t>(var(trail_[index - 1]))]) --index;
    p = trail_[--index];
    confl = var_data_[static_cast<std::size_t>(var(p))].reason;
    seen_[static_cast<std::size_t>(var(p))] = false;
    --path_count;
  } while (path_count > 0);
  out_learnt[0] = ~p;

  // Minimize: remove redundant literals.
  std::uint32_t abstract_levels = 0;
  for (std::size_t i = 1; i < out_learnt.size(); ++i)
    abstract_levels |= 1u << (level(var(out_learnt[i])) & 31);
  std::size_t keep = 1;
  for (std::size_t i = 1; i < out_learnt.size(); ++i) {
    Lit l = out_learnt[i];
    if (var_data_[static_cast<std::size_t>(var(l))].reason == cref_undef ||
        !lit_redundant(l, abstract_levels)) {
      out_learnt[keep++] = l;
    }
  }
  out_learnt.resize(keep);

  strengthen_with_binaries(out_learnt);
  out_lbd = compute_lbd(out_learnt);

  // Compute the backtrack level and put a literal of that level at index 1.
  if (out_learnt.size() == 1) {
    out_btlevel = 0;
  } else {
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < out_learnt.size(); ++i) {
      if (level(var(out_learnt[i])) > level(var(out_learnt[max_i])))
        max_i = i;
    }
    std::swap(out_learnt[1], out_learnt[max_i]);
    out_btlevel = level(var(out_learnt[1]));
  }

  // Clear every mark this analysis planted (clause literals, resolved-away
  // literals, and successful redundancy proofs). Leaking any of them would
  // silently drop literals from later learnt clauses — an unsound,
  // over-strong clause database.
  for (Var v : analyze_toclear_) seen_[static_cast<std::size_t>(v)] = false;
  analyze_toclear_.clear();
}

void Solver::analyze_final(Lit p) {
  // Assumption-failure analysis: `p` is an assumption found false during
  // assumption re-establishment. Walks the implication trail backwards and
  // collects the assumptions (the only decisions on the trail at this
  // point) that support the failure. The returned core is a subset of the
  // passed assumptions that is unsatisfiable with the formula on its own.
  core_.clear();
  core_.push_back(p);
  if (decision_level() == 0 || level(var(p)) == 0) return;
  seen_[static_cast<std::size_t>(var(p))] = true;
  for (std::size_t i = trail_.size(); i-- > trail_lim_[0];) {
    auto x = static_cast<std::size_t>(var(trail_[i]));
    if (!seen_[x]) continue;
    seen_[x] = false;
    CRef reason = var_data_[x].reason;
    if (reason == cref_undef) {
      core_.push_back(trail_[i]);
    } else {
      const Lit* lits = clause_lits(reason);
      std::uint32_t size = clause_size(reason);
      for (std::uint32_t k = 1; k < size; ++k) {
        Var v = var(lits[k]);
        if (level(v) > 0) seen_[static_cast<std::size_t>(v)] = true;
      }
    }
  }
  seen_[static_cast<std::size_t>(var(p))] = false;
}

void Solver::var_bump(Var v) {
  auto i = static_cast<std::size_t>(v);
  activity_[i] += var_inc_;
  if (activity_[i] > 1e100) rescale_var_activity();
  if (heap_pos_[i] >= 0) heap_sift_up(static_cast<std::size_t>(heap_pos_[i]));
}

void Solver::rescale_var_activity() {
  for (double& a : activity_) a *= 1e-100;
  var_inc_ *= 1e-100;
}

void Solver::cla_bump(CRef c) {
  float& act = clause_activity(c);
  act += static_cast<float>(cla_inc_);
  if (act > 1e20f) {
    for (CRef lc : learnts_) clause_activity(lc) *= 1e-20f;
    cla_inc_ *= 1e-20;
  }
}

void Solver::heap_insert(Var v) {
  heap_pos_[static_cast<std::size_t>(v)] =
      static_cast<std::int32_t>(heap_.size());
  heap_.push_back(v);
  heap_sift_up(heap_.size() - 1);
}

void Solver::heap_sift_up(std::size_t i) {
  Var v = heap_[i];
  double act = activity_[static_cast<std::size_t>(v)];
  while (i > 0) {
    std::size_t parent = (i - 1) / 2;
    if (activity_[static_cast<std::size_t>(heap_[parent])] >= act) break;
    heap_[i] = heap_[parent];
    heap_pos_[static_cast<std::size_t>(heap_[i])] =
        static_cast<std::int32_t>(i);
    i = parent;
  }
  heap_[i] = v;
  heap_pos_[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(i);
}

void Solver::heap_sift_down(std::size_t i) {
  Var v = heap_[i];
  double act = activity_[static_cast<std::size_t>(v)];
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= heap_.size()) break;
    if (child + 1 < heap_.size() &&
        activity_[static_cast<std::size_t>(heap_[child + 1])] >
            activity_[static_cast<std::size_t>(heap_[child])])
      ++child;
    if (activity_[static_cast<std::size_t>(heap_[child])] <= act) break;
    heap_[i] = heap_[child];
    heap_pos_[static_cast<std::size_t>(heap_[i])] =
        static_cast<std::int32_t>(i);
    i = child;
  }
  heap_[i] = v;
  heap_pos_[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(i);
}

Var Solver::heap_pop() {
  Var v = heap_[0];
  heap_pos_[static_cast<std::size_t>(v)] = -1;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_pos_[static_cast<std::size_t>(heap_[0])] = 0;
    heap_sift_down(0);
  }
  return v;
}

Lit Solver::pick_branch_lit() {
  while (!heap_empty()) {
    Var v = heap_pop();
    if (value(v) == LBool::Undef) {
      return mk_lit(v, !phase_[static_cast<std::size_t>(v)]);
    }
  }
  return lit_undef;
}

void Solver::reduce_db() {
  // LBD/activity hybrid reduction: remove the worst half of the learnt
  // clauses — highest LBD first, ties broken by lowest activity — keeping
  // glue clauses (LBD <= 2), binaries and clauses that are currently a
  // propagation reason.
  std::sort(learnts_.begin(), learnts_.end(), [this](CRef a, CRef b) {
    std::uint32_t la = clause_lbd(a);
    std::uint32_t lb = clause_lbd(b);
    if (la != lb) return la > lb;
    return clause_activity(a) < clause_activity(b);
  });
  std::size_t removed = 0;
  std::size_t half = learnts_.size() / 2;
  std::vector<CRef> kept;
  kept.reserve(learnts_.size());
  for (std::size_t i = 0; i < learnts_.size(); ++i) {
    CRef c = learnts_[i];
    Lit first = clause_lits(c)[0];
    bool locked =
        value(first) == LBool::True &&
        var_data_[static_cast<std::size_t>(var(first))].reason == c;
    if (removed < half && !locked && clause_size(c) > 2 &&
        clause_lbd(c) > 2) {
      detach_clause(c);
      ++removed;
    } else {
      kept.push_back(c);
    }
  }
  learnts_ = std::move(kept);
}

Result Solver::search(std::uint64_t conflicts_budget,
                      const std::vector<Lit>& assumptions) {
  std::uint64_t conflicts_here = 0;
  Clause learnt;
  for (;;) {
    CRef confl = propagate();
    if (confl != cref_undef) {
      ++stats_.conflicts;
      ++conflicts_here;
      if (decision_level() == 0) {
        ok_ = false;
        return Result::Unsat;
      }
      std::int32_t bt = 0;
      std::uint32_t lbd = 0;
      analyze(confl, learnt, bt, lbd);
      cancel_until(bt);
      if (learnt.size() == 1) {
        enqueue(learnt[0], cref_undef);
      } else {
        CRef c = alloc_clause(learnt, /*learnt=*/true, lbd);
        attach_clause(c);
        cla_bump(c);
        enqueue(learnt[0], c);
        if (lbd <= 2) ++stats_.lbd_protected;
      }
      var_decay();
      cla_decay();
      if (conflict_limit_ != 0 &&
          stats_.conflicts - solve_start_conflicts_ >= conflict_limit_)
        return Result::Unknown;
      if (conflicts_here >= conflicts_budget) {
        cancel_until(0);
        return Result::Unknown;  // restart
      }
      std::size_t limit =
          max_learnts_ != 0 ? max_learnts_ : 4000 + 8 * num_vars();
      if (learnts_.size() > limit) reduce_db();
    } else {
      // Re-establish assumptions, then decide.
      Lit next = lit_undef;
      while (static_cast<std::size_t>(decision_level()) <
             assumptions.size()) {
        Lit a = assumptions[static_cast<std::size_t>(decision_level())];
        if (value(a) == LBool::True) {
          new_decision_level();  // already implied; dummy level
        } else if (value(a) == LBool::False) {
          analyze_final(a);
          return Result::Unsat;  // conflicts with the formula
        } else {
          next = a;
          break;
        }
      }
      if (next == lit_undef) {
        next = pick_branch_lit();
        if (next == lit_undef) {
          // All variables assigned: model found.
          for (std::size_t v = 0; v < assigns_.size(); ++v)
            model_[v] = (assigns_[v] == LBool::True);
          return Result::Sat;
        }
        ++stats_.decisions;
      }
      new_decision_level();
      enqueue(next, cref_undef);
    }
  }
}

Result Solver::solve(const std::vector<Lit>& assumptions) {
  obs::TraceSession* trace = obs::TraceSession::active();
  if (trace == nullptr) return solve_impl(assumptions);
  const std::uint64_t conflicts_before = stats_.conflicts;
  const std::uint64_t propagations_before = stats_.propagations;
  Result result = solve_impl(assumptions);
  trace->counter("sat.solve_calls").add(1);
  trace->counter(result == Result::Sat      ? "sat.results_sat"
                 : result == Result::Unsat  ? "sat.results_unsat"
                                            : "sat.results_unknown")
      .add(1);
  trace->counter("sat.conflicts").add(stats_.conflicts - conflicts_before);
  trace->counter("sat.propagations")
      .add(stats_.propagations - propagations_before);
  trace->histogram("sat.conflicts_per_call")
      .record(stats_.conflicts - conflicts_before);
  return result;
}

Result Solver::solve_impl(const std::vector<Lit>& assumptions) {
  core_.clear();
  if (!ok_) return Result::Unsat;  // empty core: unsat without assumptions
  solve_start_conflicts_ = stats_.conflicts;

  // Incremental trail reuse: decision level i+1 holds assumption i (as a
  // dummy level when it was already implied), so the longest prefix the
  // new assumption vector shares with the previous one is a trail prefix
  // whose propagation can be kept verbatim. Only backtrack to the first
  // differing assumption instead of to the root.
  std::size_t established = std::min(
      static_cast<std::size_t>(decision_level()), prev_assumptions_.size());
  std::size_t keep = 0;
  while (keep < established && keep < assumptions.size() &&
         prev_assumptions_[keep] == assumptions[keep])
    ++keep;
  cancel_until(static_cast<std::int32_t>(keep));
  prev_assumptions_ = assumptions;

  std::uint64_t restart = 0;
  for (;;) {
    Result r = search(luby(restart) * 100, assumptions);
    if (r == Result::Sat) return r;  // trail kept for the next solve
    if (r == Result::Unsat) {
      if (!ok_) core_.clear();
      return r;  // assumption-failure trail kept for the next solve
    }
    if (conflict_limit_ != 0 &&
        stats_.conflicts - solve_start_conflicts_ >= conflict_limit_) {
      // The budget can run out with an un-propagated asserting literal on
      // the trail; a clean root state is the only safe thing to hand to
      // the next solve.
      backtrack_to_root();
      return Result::Unknown;
    }
    ++restart;
    ++stats_.restarts;
  }
}

}  // namespace rsnsec::sat
