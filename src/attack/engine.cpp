#include "attack/engine.hpp"

#include <algorithm>
#include <sstream>

#include "attack/gf2.hpp"
#include "attack/scansat.hpp"
#include "dep/analyzer.hpp"
#include "flow/certify.hpp"
#include "obs/trace.hpp"
#include "rsn/pathfind.hpp"
#include "security/hybrid.hpp"
#include "util/dep_matrix.hpp"

namespace rsnsec::attack {

bool ScenarioResult::any_recovered() const {
  return std::any_of(outcomes.begin(), outcomes.end(),
                     [](const AttackOutcome& o) { return o.recovered(); });
}

bool ScenarioResult::any_inconclusive() const {
  return std::any_of(outcomes.begin(), outcomes.end(),
                     [](const AttackOutcome& o) {
                       return o.verdict == Verdict::Inconclusive;
                     });
}

bool AttackReport::any_recovered() const {
  return std::any_of(scenarios.begin(), scenarios.end(),
                     [](const ScenarioResult& s) { return s.any_recovered(); });
}

bool AttackReport::any_inconclusive() const {
  return std::any_of(
      scenarios.begin(), scenarios.end(),
      [](const ScenarioResult& s) { return s.any_inconclusive(); });
}

bool AttackReport::soundness_bug() const {
  return std::any_of(scenarios.begin(), scenarios.end(),
                     [](const ScenarioResult& s) {
                       return s.cross.ran && !s.cross.consistent;
                     });
}

namespace {

/// Verdict-vs-static-analysis consistency for one scenario. A recovered
/// secret comes with a replayed witness, so the static side must agree on
/// every layer: the dependency matrix must contain the witness's first hop,
/// token propagation must report a violating pair, and the certifier must
/// refuse to certify. An Inconclusive verdict constrains nothing (that is
/// the point of not laundering Unknown into NotRecovered).
CrossCheck cross_check_scenario(const netlist::Netlist& nl,
                                const rsn::Rsn& network,
                                const benchgen::RedTeamScenario& scenario,
                                const std::vector<AttackOutcome>& outcomes,
                                const AttackOptions& options) {
  obs::Span span(obs::TraceSession::active(), "attack.cross_check");
  CrossCheck cross;
  cross.ran = true;

  dep::DepOptions dopt;
  dopt.seed = options.seed;
  dopt.sat_conflict_limit = options.sat_conflict_limit;
  dep::DependencyAnalyzer deps(nl, network, dopt);
  deps.run();

  security::TokenTable tokens(scenario.spec, scenario.spec.num_modules());
  security::HybridAnalyzer hybrid(nl, network, deps, scenario.spec, tokens);
  cross.violating_pairs = hybrid.count_violating_pairs(network);
  cross.certified = flow::certify(nl, network, scenario.spec).certified();

  for (const dep::CaptureDep& d :
       deps.capture_deps(scenario.carrier_reg, scenario.carrier_ff)) {
    if (d.circuit_ff == scenario.secret_ff && d.kind == DepKind::Path) {
      cross.dep_secret_edge = true;
      break;
    }
  }

  for (const AttackOutcome& o : outcomes) {
    if (!o.recovered()) continue;
    if (!o.differential.leaks) {
      cross.consistent = false;
      cross.notes.push_back(o.method +
                            ": Recovered verdict without a replayed "
                            "differential witness");
    }
    if (cross.violating_pairs == 0) {
      cross.consistent = false;
      cross.notes.push_back(o.method +
                            ": secret recovered but the dependency-matrix "
                            "propagation reports no violating pair");
    }
    if (cross.certified) {
      cross.consistent = false;
      cross.notes.push_back(o.method +
                            ": secret recovered from a network the SAT-free "
                            "certifier certified as secure");
    }
    if (!cross.dep_secret_edge) {
      cross.consistent = false;
      cross.notes.push_back(o.method +
                            ": secret recovered but the capture-dependency "
                            "matrix misses the secret-to-carrier edge");
    }
  }
  if (!cross.consistent) obs::bump("attack.soundness_bugs");
  return cross;
}

}  // namespace

AttackReport run_attacks(const netlist::Netlist& nl, const rsn::Rsn& network,
                         const std::vector<benchgen::RedTeamScenario>& scenarios,
                         const AttackOptions& options) {
  obs::Span span(obs::TraceSession::active(), "attack.run");
  AttackReport report;
  for (const benchgen::RedTeamScenario& scenario : scenarios) {
    ScenarioResult res;
    res.scenario = scenario.name;
    res.kind = scenario.kind;
    {
      obs::Span s(obs::TraceSession::active(), "attack.scansat");
      ScanSatOptions sopt;
      sopt.seed = options.seed;
      sopt.conflict_limit = options.sat_conflict_limit;
      res.outcomes.push_back(scansat_attack(nl, network, scenario, sopt));
    }
    {
      obs::Span s(obs::TraceSession::active(), "attack.gf_flush");
      GfFlushOptions gopt;
      gopt.seed = options.seed;
      gopt.rounds = options.gf_rounds;
      gopt.max_unknowns = options.gf_max_unknowns;
      res.outcomes.push_back(gf_flush_attack(nl, network, scenario, gopt));
    }
    if (options.cross_check)
      res.cross =
          cross_check_scenario(nl, network, scenario, res.outcomes, options);
    report.scenarios.push_back(std::move(res));
  }
  return report;
}

namespace {

/// Generic capture/flush/update schedule moving data from `carrier` toward
/// `victim`: one configuration covering both if it exists, else a carrier
/// flush phase followed by a victim observation phase.
Schedule make_flush_schedule(const rsn::Rsn& network, rsn::ElemId carrier,
                             rsn::ElemId victim, std::size_t rounds,
                             std::size_t max_shift) {
  auto plan = rsn::find_path_through(network, {carrier, victim});
  std::optional<rsn::PathPlan> plan2;
  if (!plan) {
    plan = rsn::find_path_through(network, {carrier});
    plan2 = rsn::find_path_through(network, {victim});
  }
  Schedule sched;
  if (!plan) return sched;
  for (const rsn::MuxSetting& m : plan->settings)
    sched.push_back(ScanOp::set_mux(m.mux, m.sel));
  std::size_t depth = std::min(plan->chain.size(), max_shift);
  for (std::size_t r = 0; r < std::max<std::size_t>(1, rounds); ++r) {
    sched.push_back(ScanOp::capture());
    for (std::size_t t = 0; t < depth; ++t) sched.push_back(ScanOp::shift());
    sched.push_back(ScanOp::update());
    sched.push_back(ScanOp::clock(1));
  }
  if (plan2) {
    for (const rsn::MuxSetting& m : plan2->settings)
      sched.push_back(ScanOp::set_mux(m.mux, m.sel));
    sched.push_back(ScanOp::capture());
    std::size_t d2 = std::min(plan2->chain.size(), max_shift);
    for (std::size_t t = 0; t < d2; ++t) sched.push_back(ScanOp::shift());
  }
  return sched;
}

struct ProbeSecret {
  SecretLoc loc;
  rsn::ElemId carrier = rsn::no_elem;  ///< flush phase start register
  std::string what;
  std::size_t token = 0;  ///< token of the source module
};

}  // namespace

std::optional<std::string> verify_no_leakage(
    const netlist::Netlist& nl, const rsn::Rsn& network,
    const security::SecuritySpec& spec, const ProbeOptions& options,
    ProbeStats* stats) {
  obs::Span span(obs::TraceSession::active(), "attack.verify_no_leakage");
  security::TokenTable tokens(spec, spec.num_modules());

  // Victim registers: owned by a module whose trust category rejects at
  // least one token of the spec.
  std::vector<rsn::ElemId> victims;
  for (rsn::ElemId reg : network.registers()) {
    netlist::ModuleId m = network.elem(reg).module;
    if (m == netlist::no_module) continue;
    if (tokens.bad(spec.policy(m).trust).any()) victims.push_back(reg);
  }
  if (victims.empty()) return std::nullopt;

  // Secret candidates per token-generating source module: the scan state
  // of its registers plus a few of its circuit flip-flops.
  std::vector<ProbeSecret> secrets;
  for (std::size_t m = 0; m < spec.num_modules(); ++m) {
    netlist::ModuleId mod = static_cast<netlist::ModuleId>(m);
    const int token = tokens.token_of(mod);
    if (token < 0) continue;  // permissive data: no token
    std::size_t reg_picks = 0;
    for (rsn::ElemId reg : network.registers()) {
      if (network.elem(reg).module != mod || reg_picks >= 2) continue;
      ++reg_picks;
      secrets.push_back({SecretLoc::scan_ff(reg, 0), reg,
                         "scan FF 0 of register " + network.elem(reg).name,
                         static_cast<std::size_t>(token)});
    }
    std::size_t ff_picks = 0;
    rsn::ElemId carrier =
        reg_picks > 0 ? secrets[secrets.size() - reg_picks].carrier
                      : rsn::no_elem;
    for (netlist::NodeId ff : nl.ffs()) {
      if (nl.node(ff).module != mod || ff_picks >= 2) continue;
      ++ff_picks;
      secrets.push_back({SecretLoc::circuit_ff(ff), carrier,
                         "circuit FF " + nl.node(ff).name,
                         static_cast<std::size_t>(token)});
    }
  }

  std::size_t probes = 0;
  for (const ProbeSecret& secret : secrets) {
    for (rsn::ElemId victim : victims) {
      // Only a victim whose trust rejects this secret's module can suffer
      // a violation; data its policy accepts may legally reach it.
      const netlist::ModuleId vm = network.elem(victim).module;
      if (!tokens.bad(spec.policy(vm).trust).test(secret.token)) continue;
      if (probes >= options.max_probes) return std::nullopt;
      rsn::ElemId carrier =
          secret.carrier != rsn::no_elem ? secret.carrier : victim;
      Schedule sched = make_flush_schedule(network, carrier, victim,
                                           options.rounds, options.max_shift);
      if (sched.empty()) continue;
      ++probes;
      if (stats) ++stats->probes;
      obs::bump("attack.probes");
      DifferentialResult diff = differential_replay(
          nl, network, sched, secret.loc, victim, options.seed);
      if (diff.leaks) {
        if (stats) ++stats->leaks;
        std::ostringstream os;
        os << secret.what << " leaks into register "
           << network.elem(victim).name << " (differential at "
           << diff.witness.diff_ops.size() << " schedule ops over "
           << diff.shifts << " shifts)";
        return os.str();
      }
    }
  }
  return std::nullopt;
}

}  // namespace rsnsec::attack
