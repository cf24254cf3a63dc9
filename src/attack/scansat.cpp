#include "attack/scansat.hpp"

#include <algorithm>
#include <array>
#include <chrono>

#include "netlist/cone_check.hpp"
#include "obs/trace.hpp"
#include "rsn/pathfind.hpp"
#include "sat/encode.hpp"

namespace rsnsec::attack {

SensitizeOutcome sensitize_cone(const netlist::Netlist& nl,
                                netlist::NodeId root,
                                netlist::NodeId toggle_leaf,
                                std::uint64_t conflict_limit) {
  SensitizeOutcome out;
  if (root == toggle_leaf) {
    // Degenerate cone: the victim captures the toggle node directly.
    out.result = sat::Result::Sat;
    return out;
  }
  netlist::Cone cone = nl.extract_signal_cone(root);
  if (std::find(cone.leaves.begin(), cone.leaves.end(), toggle_leaf) ==
      cone.leaves.end()) {
    out.result = sat::Result::Unsat;
    return out;
  }

  sat::Solver solver;
  if (conflict_limit) solver.set_conflict_limit(conflict_limit);
  sat::Lit lit_false = sat::mk_lit(solver.new_var());
  solver.add_clause(~lit_false);
  sat::Lit lit_true = ~lit_false;

  // Two cone copies: toggle_leaf fixed to 0/1, every other leaf shared.
  std::vector<sat::Lit> shared(nl.num_nodes(), sat::lit_undef);
  std::array<std::vector<sat::Lit>, 2> copy;
  copy[0].assign(nl.num_nodes(), sat::lit_undef);
  copy[1].assign(nl.num_nodes(), sat::lit_undef);
  for (netlist::NodeId leaf : cone.leaves) {
    const netlist::Node& n = nl.node(leaf);
    std::size_t i = static_cast<std::size_t>(leaf);
    if (leaf == toggle_leaf) {
      copy[0][i] = lit_false;
      copy[1][i] = lit_true;
    } else if (n.type == netlist::GateType::Const0) {
      copy[0][i] = copy[1][i] = lit_false;
    } else if (n.type == netlist::GateType::Const1) {
      copy[0][i] = copy[1][i] = lit_true;
    } else {
      sat::Lit l = sat::mk_lit(solver.new_var());
      shared[i] = l;
      copy[0][i] = copy[1][i] = l;
    }
  }
  for (netlist::NodeId g : cone.gates) {
    const netlist::Node& n = nl.node(g);
    for (std::size_t c = 0; c < 2; ++c) {
      std::vector<sat::Lit> ins;
      ins.reserve(n.fanins.size());
      for (netlist::NodeId f : n.fanins)
        ins.push_back(copy[c][static_cast<std::size_t>(f)]);
      sat::Lit o = sat::mk_lit(solver.new_var());
      netlist::encode_gate(solver, n.type, o, ins);
      copy[c][static_cast<std::size_t>(g)] = o;
    }
  }
  sat::Lit diff = sat::mk_lit(solver.new_var());
  std::array<sat::Lit, 2> roots{copy[0][static_cast<std::size_t>(root)],
                                copy[1][static_cast<std::size_t>(root)]};
  sat::encode_xor(solver, diff, roots);
  solver.add_clause(diff);

  out.result = solver.solve();
  if (out.result == sat::Result::Sat) {
    for (netlist::NodeId leaf : cone.leaves) {
      std::size_t i = static_cast<std::size_t>(leaf);
      if (leaf == toggle_leaf || shared[i] == sat::lit_undef) continue;
      bool v = solver.model_value(shared[i]);
      if (nl.node(leaf).type == netlist::GateType::Input)
        out.inputs.push_back({leaf, v});
      else if (nl.node(leaf).type == netlist::GateType::FF)
        out.ff_leaves.push_back({leaf, v});
    }
  }
  return out;
}

namespace {

void finish_with_replay(const netlist::Netlist& nl, const rsn::Rsn& network,
                        const Schedule& schedule,
                        const benchgen::RedTeamScenario& scenario,
                        std::uint64_t seed, AttackOutcome& out) {
  out.differential = differential_replay(
      nl, network, schedule, SecretLoc::circuit_ff(scenario.secret_ff),
      scenario.victim_reg, seed);
  if (!out.differential.leaks) {
    out.verdict = Verdict::NotRecovered;
    out.note = "schedule produced no differential at the victim register";
    return;
  }
  int est = match_secret(nl, network, out.differential.witness,
                         scenario.secret_value);
  if (est < 0) {
    out.verdict = Verdict::NotRecovered;
    out.note = "differential leak present but the secret value could not "
               "be matched against the replay templates";
    return;
  }
  out.recovered_value = est == 1;
  out.verdict = out.recovered_value == scenario.secret_value
                    ? Verdict::Recovered
                    : Verdict::NotRecovered;
  if (out.verdict == Verdict::NotRecovered)
    out.note = "recovered value disagrees with the planted secret";
}

}  // namespace

AttackOutcome scansat_attack(const netlist::Netlist& nl,
                             const rsn::Rsn& network,
                             const benchgen::RedTeamScenario& scenario,
                             const ScanSatOptions& options) {
  auto t0 = std::chrono::steady_clock::now();
  AttackOutcome out;
  out.method = "scansat";
  out.scenario = scenario.name;
  out.secret_value = scenario.secret_value;
  obs::bump("attack.scansat_runs");

  if (scenario.kind == benchgen::ScenarioKind::PureScanPath) {
    auto plan = rsn::find_path_through(
        network, {scenario.carrier_reg, scenario.victim_reg});
    if (!plan) {
      out.verdict = Verdict::NotRecovered;
      out.note = "no single-configuration scan path places the carrier "
                 "upstream of the victim";
    } else {
      std::size_t pa =
          plan->position_of(scenario.carrier_reg, scenario.carrier_ff);
      std::size_t pb = plan->position_of(scenario.victim_reg, 0);
      Schedule sched;
      for (const rsn::MuxSetting& m : plan->settings)
        sched.push_back(ScanOp::set_mux(m.mux, m.sel));
      sched.push_back(ScanOp::capture());
      for (std::size_t t = 0; t < pb - pa; ++t)
        sched.push_back(ScanOp::shift());
      finish_with_replay(nl, network, sched, scenario, options.seed, out);
    }
  } else {
    auto plan1 = rsn::find_path_through(
        network, {scenario.carrier_reg, scenario.staging_reg});
    if (!plan1) {
      out.verdict = Verdict::NotRecovered;
      out.note = "no single-configuration scan path places the carrier "
                 "upstream of the staging register";
    } else {
      // Find a victim capture cone that depends on the staging FF and a
      // primary-input assignment sensitizing it.
      const rsn::Element& victim = network.elem(scenario.victim_reg);
      bool saw_unknown = false;
      std::size_t target_ff = 0;
      SensitizeOutcome sens;
      bool found = false;
      for (std::size_t f = 0; f < victim.ffs.size() && !found; ++f) {
        netlist::NodeId src = victim.ffs[f].capture_src;
        if (src == netlist::no_node) continue;
        ++out.sat_calls;
        SensitizeOutcome r = sensitize_cone(nl, src, scenario.staging_node,
                                            options.conflict_limit);
        if (r.result == sat::Result::Unknown) {
          saw_unknown = true;
          obs::bump("attack.sat_unknown");
        } else if (r.result == sat::Result::Sat) {
          sens = std::move(r);
          target_ff = f;
          found = true;
        }
      }
      if (!found) {
        // An exhausted conflict budget means "undecided", never "attack
        // infeasible" (the Unknown-laundering invariant).
        out.verdict =
            saw_unknown ? Verdict::Inconclusive : Verdict::NotRecovered;
        out.note = saw_unknown
                       ? "SAT conflict budget exhausted while sensitizing "
                         "the victim capture cone; feasibility undecided"
                       : "no victim capture cone is sensitizable from the "
                         "staging flip-flop";
      } else {
        std::size_t pa =
            plan1->position_of(scenario.carrier_reg, scenario.carrier_ff);
        std::size_t pc =
            plan1->position_of(scenario.staging_reg, scenario.staging_ff);
        auto plan2 =
            rsn::find_path_through(network, {scenario.victim_reg});
        Schedule sched;
        for (const rsn::MuxSetting& m : plan1->settings)
          sched.push_back(ScanOp::set_mux(m.mux, m.sel));
        for (const auto& [node, v] : sens.inputs)
          sched.push_back(ScanOp::set_input(node, v ? ~0ull : 0));
        sched.push_back(ScanOp::capture());
        for (std::size_t t = 0; t < pc - pa; ++t)
          sched.push_back(ScanOp::shift());
        sched.push_back(ScanOp::update());
        if (plan2)
          for (const rsn::MuxSetting& m : plan2->settings)
            sched.push_back(ScanOp::set_mux(m.mux, m.sel));
        sched.push_back(ScanOp::capture());
        (void)target_ff;
        finish_with_replay(nl, network, sched, scenario, options.seed, out);
      }
    }
  }
  out.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  if (out.recovered()) obs::bump("attack.recovered");
  return out;
}

}  // namespace rsnsec::attack
