// `rsnsec bench <experiment>`: the paper's evaluation and the repository's
// own sweeps, each printed through one emitter as a text table or in the
// google-benchmark JSON layout the CI validator checks.
//
// Grid experiments run the Table I (circuit, spec) grid through
// bench::run_grid: table1 (Table I), bridging (Sec. III-A.2), ablation
// (Sec. IV-C), filter (the Sec. I case against access filters) and policy
// (repair-candidate selection, not from the paper). attack, scale and
// serve measure the attack engine, the tiled dependency matrices and the
// daemon.

#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <thread>
#include <utility>

#include "bench/common.hpp"
#include "core/report.hpp"
#include "dep/analyzer.hpp"
#include "netlist/verilog.hpp"
#include "rsn/io.hpp"
#include "security/filter.hpp"
#include "security/hybrid.hpp"
#include "security/pure.hpp"
#include "security/spec_io.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "tools/cli_args.hpp"
#include "util/minijson.hpp"
#include "util/socket.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"

namespace rsnsec::cli {

namespace {

// ---------------------------------------------------------------------------
// The emitter

/// One named value of a result row. `decimals` is the text precision; 0
/// marks an integer, written without a fraction in both outputs.
struct Counter {
  std::string name;
  double value = 0.0;
  int decimals = 0;
};

/// One result row: a name, a time in milliseconds (google-benchmark's real
/// and CPU time) and named counters.
struct Row {
  std::string name;
  double ms = 0.0;
  std::uint64_t iterations = 1;
  std::vector<Counter> counters;
};

/// The whole output of one experiment.
struct Report {
  std::string experiment;
  /// Run parameters as (key, JSON value) pairs.
  std::vector<std::pair<std::string, std::string>> context;
  std::vector<Row> rows;
  /// Values over all rows: averages, totals and the paper's figures.
  std::vector<Counter> summary;
};

void write_json_value(std::ostream& out, const Counter& c) {
  if (c.decimals == 0)
    out << std::llround(c.value);
  else
    out << c.value;
}

std::string text_value(const Counter& c) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(c.decimals) << c.value;
  return os.str();
}

void write_counters_json(std::ostream& out,
                         const std::vector<Counter>& counters) {
  for (std::size_t i = 0; i < counters.size(); ++i) {
    out << (i ? ", \"" : "\"") << counters[i].name << "\": ";
    write_json_value(out, counters[i]);
  }
}

void emit_json(std::ostream& out, const Report& r) {
  // Provenance: the build type and revision this binary was configured
  // from (tools/CMakeLists.txt), and the host's CPU count.
  out << "{\"context\": {\"executable\": \"rsnsec\", \"experiment\": \""
      << r.experiment << "\", \"build_type\": \"" << RSNSEC_BUILD_TYPE
      << "\", \"git\": \"" << json_escape(RSNSEC_GIT_DESCRIBE)
      << "\", \"nproc\": " << std::thread::hardware_concurrency();
  for (const auto& [key, value] : r.context)
    out << ", \"" << key << "\": " << value;
  out << "},\n\"benchmarks\": [";
  for (std::size_t i = 0; i < r.rows.size(); ++i) {
    const Row& row = r.rows[i];
    out << (i ? ",\n" : "\n") << "  {\"name\": \"" << json_escape(row.name)
        << "\", \"run_type\": \"iteration\", \"iterations\": "
        << row.iterations << ", \"real_time\": " << row.ms
        << ", \"cpu_time\": " << row.ms << ", \"time_unit\": \"ms\"";
    if (!row.counters.empty()) out << ", ";
    write_counters_json(out, row.counters);
    out << "}";
  }
  out << "\n]";
  if (!r.summary.empty()) {
    out << ", \"summary\": {";
    write_counters_json(out, r.summary);
    out << "}";
  }
  out << "}\n";
}

/// Fixed-width table: one column per counter name (first-appearance
/// order; a row without that counter leaves the cell blank), then the
/// time, then the summary as `name: value` lines.
void emit_text(std::ostream& out, const Report& r) {
  out << r.experiment << ":";
  for (std::size_t i = 0; i < r.context.size(); ++i)
    out << (i ? ", " : " ") << r.context[i].first << " "
        << r.context[i].second;
  out << "\n\n";

  std::vector<std::string> columns;
  for (const Row& row : r.rows)
    for (const Counter& c : row.counters)
      if (std::find(columns.begin(), columns.end(), c.name) == columns.end())
        columns.push_back(c.name);
  columns.emplace_back("time[ms]");
  std::vector<std::vector<std::string>> cells(r.rows.size());
  std::vector<std::size_t> width(columns.size());
  for (std::size_t k = 0; k < columns.size(); ++k)
    width[k] = columns[k].size();
  std::size_t name_width = 9;
  for (std::size_t i = 0; i < r.rows.size(); ++i) {
    const Row& row = r.rows[i];
    name_width = std::max(name_width, row.name.size());
    cells[i].assign(columns.size(), "");
    for (const Counter& c : row.counters) {
      auto k = static_cast<std::size_t>(
          std::find(columns.begin(), columns.end(), c.name) -
          columns.begin());
      cells[i][k] = text_value(c);
    }
    cells[i].back() = text_value({"", row.ms, 3});
    for (std::size_t k = 0; k < columns.size(); ++k)
      width[k] = std::max(width[k], cells[i][k].size());
  }

  out << std::left << std::setw(static_cast<int>(name_width)) << "Benchmark"
      << std::right;
  std::size_t line = name_width;
  for (std::size_t k = 0; k < columns.size(); ++k) {
    out << std::setw(static_cast<int>(width[k] + 2)) << columns[k];
    line += width[k] + 2;
  }
  out << "\n" << std::string(line, '-') << "\n";
  for (std::size_t i = 0; i < r.rows.size(); ++i) {
    out << std::left << std::setw(static_cast<int>(name_width))
        << r.rows[i].name << std::right;
    for (std::size_t k = 0; k < columns.size(); ++k)
      out << std::setw(static_cast<int>(width[k] + 2)) << cells[i][k];
    out << "\n";
  }
  if (!r.summary.empty()) out << "\n";
  for (const Counter& c : r.summary)
    out << c.name << ": " << text_value(c) << "\n";
}

std::string quoted(const std::string& s) {
  return "\"" + json_escape(s) + "\"";
}

// ---------------------------------------------------------------------------
// Options shared by the experiments

/// --families bastion|mbist|NAME,...: "bastion" and "mbist" stand for the
/// 13 BASTION families and the 9 MBIST configurations of Table I, any
/// other name is one BASTION family or an MBIST_n_m_o network.
std::vector<std::string> families_option(
    const Args& args, const std::vector<std::string>& fallback) {
  const std::optional<std::string> list = args.get("families");
  std::vector<std::string> names;
  for (const std::string& n : list ? split(*list, ',') : fallback) {
    if (n == "bastion") {
      for (const benchgen::BenchmarkProfile& p : benchgen::bastion_profiles())
        names.push_back(p.name);
    } else if (n == "mbist") {
      for (const auto& c : benchgen::mbist_configs())
        names.push_back("MBIST_" + std::to_string(c[0]) + "_" +
                        std::to_string(c[1]) + "_" + std::to_string(c[2]));
    } else if (mbist_dimensions(n)) {
      names.push_back(n);
    } else {
      names.push_back(attack_benchmark(n).name);
    }
  }
  if (names.empty()) throw UsageError("--families needs at least one name");
  return names;
}

bench::SweepOptions sweep_options(const Args& args) {
  bench::SweepOptions opt;
  opt.circuits_per_benchmark =
      count_option(args, "circuits", opt.circuits_per_benchmark);
  opt.specs_per_circuit = count_option(args, "specs", opt.specs_per_circuit);
  opt.target_ffs = static_cast<std::size_t>(
      count_option(args, "target-ffs", static_cast<int>(opt.target_ffs)));
  opt.target_regs = static_cast<std::size_t>(
      count_option(args, "target-regs", static_cast<int>(opt.target_regs)));
  opt.base_seed = u64_or_usage(args.get("seed").value_or("1"), "--seed");
  opt.jobs = jobs_option(args);
  return opt;
}

Report grid_report(const char* experiment, const bench::SweepOptions& opt) {
  return {experiment,
          {{"circuits", std::to_string(opt.circuits_per_benchmark)},
           {"specs", std::to_string(opt.specs_per_circuit)},
           {"target_ffs", std::to_string(opt.target_ffs)},
           {"target_regs", std::to_string(opt.target_regs)},
           {"seed", std::to_string(opt.base_seed)}},
          {},
          {}};
}

double pct(double part, double whole) {
  return whole > 0.0 ? 100.0 * part / whole : 0.0;
}

/// The families the paper's ablations use: small BASTION networks and the
/// smallest MBIST configurations.
const std::vector<std::string> kAblationFamilies = {
    "BasicSCB", "Mingle",      "TreeFlat",    "TreeBalanced",
    "q12710",   "MBIST_1_5_5", "MBIST_2_5_5", "MBIST_5_5_5"};

/// The families of the resolution-policy ablation.
const std::vector<std::string> kPolicyFamilies = {
    "BasicSCB", "Mingle", "TreeFlatEx", "q12710", "MBIST_2_5_5",
    "MBIST_5_5_5"};

PipelineResult secure_copy(const bench::GridCell& cell,
                           const PipelineOptions& options) {
  rsn::Rsn network = cell.instance.doc.network;
  SecureFlowTool tool(cell.instance.circuit, network, cell.spec, options);
  return tool.run();
}

// ---------------------------------------------------------------------------
// Grid experiments

/// Table I: structure, violating registers, applied changes (pure /
/// hybrid / total) and the per-phase runtimes, averaged over the specs
/// whose runs find a violation in secure circuit logic (the paper averages
/// "over all security specifications, where a security violation
/// occurred, but the circuit logic itself is not insecure").
Report bench_table1(const std::vector<std::string>& families,
                    const bench::SweepOptions& opt) {
  Report r = grid_report("table1", opt);
  int runs = 0, skipped_insecure = 0, skipped_none = 0;
  double pure = 0.0, total = 0.0;
  for (const std::string& name : families) {
    struct Cell {
      PipelineResult result;
      std::size_t registers = 0, muxes = 0, scan_ffs = 0;
    };
    std::vector<Cell> cells =
        bench::run_grid(name, opt, [](const bench::GridCell& c) {
          const rsn::Rsn& net = c.instance.doc.network;
          return Cell{secure_copy(c, c.pipeline), net.registers().size(),
                      net.muxes().size(), net.num_scan_ffs()};
        });
    RowAccumulator acc(name);
    acc.set_structure(cells[0].registers, cells[0].scan_ffs, cells[0].muxes);
    for (const Cell& cell : cells) {
      if (!cell.result.static_report.clean())
        acc.add_skipped_insecure();
      else if (cell.result.initial_violating_registers == 0)
        acc.add_skipped_no_violation();
      else
        acc.add(cell.result);
    }
    const BenchRow b = acc.finish();
    Row row{name,
            b.t_total * 1e3,
            1,
            {{"regs", double(b.registers)},
             {"scan_ffs", double(b.scan_ffs)},
             {"muxes", double(b.muxes)},
             {"viol_regs", b.avg_violating_registers, 2},
             {"pure", b.avg_changes_pure, 1},
             {"hybrid", b.avg_changes_hybrid, 1},
             {"total", b.avg_changes_total, 1},
             {"t_dep_ms", b.t_dependency * 1e3, 3},
             {"t_pure_ms", b.t_pure * 1e3, 3},
             {"t_hybrid_ms", b.t_hybrid * 1e3, 3},
             {"runs", double(b.runs)}}};
    // The paper's full-size averages (10 circuits x 16 specs, runtimes in
    // seconds on an Intel Xeon 3.3 GHz), whose shape (not size) the scaled
    // grid reproduces: on MBIST, hybrid changes dominate pure ones.
    if (std::optional<bench::PaperRow> p = bench::paper_row(name)) {
      row.counters.insert(row.counters.end(),
                          {{"paper_viol_regs", p->viol_regs, 2},
                           {"paper_pure", p->pure, 1},
                           {"paper_hybrid", p->hybrid, 1},
                           {"paper_total", p->total, 1},
                           {"paper_t_dep_s", p->t_dep, 2},
                           {"paper_t_pure_s", p->t_pure, 2},
                           {"paper_t_hybrid_s", p->t_hybrid, 2},
                           {"paper_t_total_s", p->t_total, 2}});
    }
    r.rows.push_back(std::move(row));
    runs += b.runs;
    skipped_insecure += b.skipped_insecure;
    skipped_none += b.skipped_no_violation;
    pure += b.avg_changes_pure * b.runs;
    total += b.avg_changes_total * b.runs;
  }
  r.summary = {{"runs", double(runs)},
               {"skipped_no_violation", double(skipped_none)},
               {"skipped_insecure", double(skipped_insecure)},
               {"pure_share_pct", pct(pure, total), 1},
               {"paper_pure_share_pct", 43.0, 1}};
  return r;
}

/// Sec. III-A.2: bridging internal flip-flops reduces the denoted
/// flip-flops by 41.72% and the denoted dependencies by 65.37% on average
/// in the paper. Spec-independent, so each circuit runs once. A row shows
/// circuit 0; the summary averages over every circuit.
Report bench_bridging(const bench::SweepOptions& opt) {
  Report r = grid_report("bridging", opt);
  bench::SweepOptions grid = opt;
  grid.specs_per_circuit = 1;
  double ff_red_sum = 0.0, dep_red_sum = 0.0;
  int count = 0;
  for (const std::string& name : kAblationFamilies) {
    struct Cell {
      dep::DepStats stats;
      double t_bridged = 0.0, t_plain = 0.0, ff_red = 0.0, dep_red = 0.0;
    };
    std::vector<Cell> cells =
        bench::run_grid(name, grid, [](const bench::GridCell& c) {
          Cell cell;
          Stopwatch sw;
          dep::DependencyAnalyzer bridged(c.instance.circuit,
                                          c.instance.doc.network,
                                          c.pipeline.dep);
          bridged.run();
          cell.t_bridged = sw.seconds();
          dep::DepOptions plain_opt = c.pipeline.dep;
          plain_opt.bridge_internal = false;
          sw.restart();
          dep::DependencyAnalyzer plain(c.instance.circuit,
                                        c.instance.doc.network, plain_opt);
          plain.run();
          cell.t_plain = sw.seconds();
          cell.stats = bridged.stats();
          // Signed differences: bridging a high-fanin node could in
          // principle add more composed pairs than it removes.
          const dep::DepStats& s = cell.stats;
          cell.ff_red = pct(double(s.denoted_ffs_before) -
                                double(s.denoted_ffs_after),
                            double(s.denoted_ffs_before));
          cell.dep_red = pct(double(s.deps_before_bridging) -
                                 double(s.deps_after_bridging),
                             double(s.deps_before_bridging));
          return cell;
        });
    for (const Cell& cell : cells) {
      ff_red_sum += cell.ff_red;
      dep_red_sum += cell.dep_red;
      ++count;
    }
    const Cell& c0 = cells[0];
    r.rows.push_back({name,
                      c0.t_bridged * 1e3,
                      1,
                      {{"circuit_ffs", double(c0.stats.circuit_ffs)},
                       {"internal_ffs", double(c0.stats.internal_ffs)},
                       {"ff_red_pct", c0.ff_red, 2},
                       {"dep_red_pct", c0.dep_red, 2},
                       {"t_plain_ms", c0.t_plain * 1e3, 3}}});
  }
  r.summary = {{"avg_ff_red_pct", ff_red_sum / count, 2},
               {"avg_dep_red_pct", dep_red_sum / count, 2},
               {"paper_ff_red_pct", 41.72, 2},
               {"paper_dep_red_pct", 65.37, 2}};
  return r;
}

/// Sec. IV-C: securing with the structural over-approximation of the
/// dependencies instead of the exact analysis. The paper reports +61%
/// changes and 6.21% of benchmarks falsely classified as insecure circuit
/// logic. Change counts are sums over the runs both modes secured.
Report bench_ablation(const bench::SweepOptions& opt) {
  Report r = grid_report("ablation", opt);
  double total_exact = 0.0, total_struct = 0.0;
  int total_attempts = 0, total_false_insecure = 0;
  for (const std::string& name : kAblationFamilies) {
    struct Cell {
      bool attempted = false, false_insecure = false;
      double exact_changes = 0.0, struct_changes = 0.0, exact_s = 0.0;
    };
    std::vector<Cell> cells =
        bench::run_grid(name, opt, [](const bench::GridCell& c) {
          Cell cell;
          PipelineResult re = secure_copy(c, c.pipeline);
          // Genuinely insecure circuit logic is no attempt.
          if (!re.static_report.clean()) return cell;
          cell.attempted = true;
          cell.exact_s = re.t_total;
          if (re.initial_violating_registers == 0) return cell;
          PipelineOptions po = c.pipeline;
          po.dep.mode = dep::DepMode::StructuralOnly;
          PipelineResult ro = secure_copy(c, po);
          // The exact analysis proved the logic secure; the structural
          // over-approximation disagrees: a false insecure classification.
          cell.false_insecure = !ro.static_report.clean();
          if (!cell.false_insecure) {
            cell.exact_changes = re.total_changes();
            cell.struct_changes = ro.total_changes();
          }
          return cell;
        });
    double exact = 0.0, structural = 0.0, seconds = 0.0;
    int attempts = 0, false_insecure = 0;
    for (const Cell& cell : cells) {
      exact += cell.exact_changes;
      structural += cell.struct_changes;
      seconds += cell.exact_s;
      attempts += cell.attempted ? 1 : 0;
      false_insecure += cell.false_insecure ? 1 : 0;
    }
    r.rows.push_back(
        {name,
         attempts > 0 ? seconds / attempts * 1e3 : 0.0,
         1,
         {{"exact_changes", exact, 1},
          {"structural_changes", structural, 1},
          {"extra_changes_pct", pct(structural - exact, exact), 1},
          {"false_insecure_pct", pct(false_insecure, attempts), 1},
          {"attempts", double(attempts)}}});
    total_exact += exact;
    total_struct += structural;
    total_attempts += attempts;
    total_false_insecure += false_insecure;
  }
  r.summary = {
      {"extra_changes_pct", pct(total_struct - total_exact, total_exact), 1},
      {"false_insecure_pct", pct(total_false_insecure, total_attempts), 2},
      {"paper_extra_changes_pct", 61.0, 1},
      {"paper_false_insecure_pct", 6.21, 2}};
  return r;
}

/// Sec. I: access filters ([13], [14]) forbid insecure scan configurations
/// instead of transforming the network. Two costs, on the runs the
/// transformation secures: registers a filter must lock out for good
/// ("forcing a filter to make every such pair inaccessible for debug and
/// diagnosis"), and the hybrid violations a pure-path filter cannot see.
/// The transformation keeps every register accessible.
Report bench_filter(const bench::SweepOptions& opt) {
  Report r = grid_report("filter", opt);
  double total_regs = 0.0, total_locked = 0.0;
  int runs_total = 0, runs_hybrid_missed = 0;
  for (const std::string& name : kAblationFamilies) {
    struct Cell {
      bool included = false, hybrid_missed = false, accessible = true;
      double locked = 0.0, regs = 0.0, changes = 0.0, seconds = 0.0;
    };
    std::vector<Cell> cells =
        bench::run_grid(name, opt, [](const bench::GridCell& c) {
          Cell cell;
          const rsn::Rsn& original = c.instance.doc.network;
          rsn::Rsn network = original;
          SecureFlowTool tool(c.instance.circuit, network, c.spec,
                              c.pipeline);
          PipelineResult result = tool.run();
          if (!result.static_report.clean() ||
              result.initial_violating_registers == 0)
            return cell;
          cell.included = true;
          // The filter baseline works on the original network.
          security::TokenTable tokens(c.spec, c.spec.num_modules());
          security::AccessFilterBaseline filter(original, c.spec, tokens);
          cell.locked = double(filter.analyze().inaccessible.size());
          cell.regs = double(original.registers().size());
          // Hybrid blindness: violations beyond the pure-path ones, which
          // a pure filter does not model.
          dep::DependencyAnalyzer deps(c.instance.circuit, original,
                                       c.pipeline.dep);
          deps.run();
          security::HybridAnalyzer hybrid(c.instance.circuit, original, deps,
                                          c.spec, tokens);
          security::PureScanAnalyzer pure(c.spec, tokens);
          cell.hybrid_missed = hybrid.count_violating_pairs(original) >
                               pure.count_violating_pairs(original);
          cell.changes = result.total_changes();
          cell.seconds = result.t_total;
          const rsn::ScanAccess access = network.scan_access();
          cell.accessible = std::all_of(
              network.registers().begin(), network.registers().end(),
              [&](rsn::ElemId r) { return access.accessible(r); });
          return cell;
        });
    double locked = 0.0, regs = 0.0, changes = 0.0, seconds = 0.0;
    int runs = 0, hybrid_missed = 0;
    bool accessible = true;
    for (const Cell& cell : cells) {
      if (!cell.included) continue;
      locked += cell.locked;
      regs += cell.regs;
      changes += cell.changes;
      seconds += cell.seconds;
      hybrid_missed += cell.hybrid_missed ? 1 : 0;
      accessible &= cell.accessible;
      ++runs;
    }
    if (runs == 0) continue;
    r.rows.push_back({name,
                      seconds / runs * 1e3,
                      1,
                      {{"regs", regs / runs},
                       {"filter_lock", locked / runs, 1},
                       {"lock_pct", pct(locked, regs), 1},
                       {"hybrid_missed", double(hybrid_missed)},
                       {"our_changes", changes / runs, 1},
                       {"our_all_accessible", accessible ? 1.0 : 0.0}}});
    total_regs += regs;
    total_locked += locked;
    runs_total += runs;
    runs_hybrid_missed += hybrid_missed;
  }
  r.summary = {{"filter_lock_pct", pct(total_locked, total_regs), 1},
               {"runs", double(runs_total)},
               {"runs_hybrid_missed", double(runs_hybrid_missed)}};
  return r;
}

/// Design-choice ablation (not from the paper): how the repair-candidate
/// selection strategy affects repair quality and runtime. [17] evaluates
/// multiple candidates per violation and applies the cheapest; BestGlobal
/// reproduces that, FirstImproving/PreferScanIn trade trial-propagation
/// cost against the number of applied changes.
Report bench_policy(const bench::SweepOptions& opt) {
  Report r = grid_report("policy", opt);
  struct Policy {
    const char* name;
    security::ResolutionPolicy policy;
  };
  static constexpr std::array<Policy, 3> kPolicies = {{
      {"BestGlobal", security::ResolutionPolicy::BestGlobal},
      {"FirstImproving", security::ResolutionPolicy::FirstImproving},
      {"PreferScanIn", security::ResolutionPolicy::PreferScanIn},
  }};
  std::array<double, 3> total_changes{}, total_seconds{};
  for (const std::string& name : kPolicyFamilies) {
    struct Run {
      bool included = false;
      double changes = 0.0, seconds = 0.0;
    };
    using Cell = std::array<Run, 3>;
    std::vector<Cell> cells =
        bench::run_grid(name, opt, [](const bench::GridCell& c) {
          Cell cell;
          for (std::size_t pi = 0; pi < kPolicies.size(); ++pi) {
            PipelineOptions po = c.pipeline;
            po.resolution = kPolicies[pi].policy;
            PipelineResult res = secure_copy(c, po);
            if (!res.secured || res.initial_violating_registers == 0)
              continue;
            cell[pi] = {true, double(res.total_changes()),
                        res.t_pure + res.t_hybrid};
          }
          return cell;
        });
    for (std::size_t pi = 0; pi < kPolicies.size(); ++pi) {
      double changes = 0.0, seconds = 0.0;
      int runs = 0;
      for (const Cell& cell : cells) {
        if (!cell[pi].included) continue;
        changes += cell[pi].changes;
        seconds += cell[pi].seconds;
        ++runs;
      }
      r.rows.push_back({name + "/" + kPolicies[pi].name,
                        runs > 0 ? seconds / runs * 1e3 : 0.0,
                        1,
                        {{"changes", runs > 0 ? changes / runs : 0.0, 1},
                         {"runs", double(runs)}}});
      total_changes[pi] += changes;
      total_seconds[pi] += seconds;
    }
  }
  for (std::size_t pi = 0; pi < kPolicies.size(); ++pi) {
    const std::string policy = kPolicies[pi].name;
    r.summary.push_back({policy + "_changes", total_changes[pi]});
    r.summary.push_back({policy + "_resolve_ms", total_seconds[pi] * 1e3, 3});
  }
  return r;
}

// ---------------------------------------------------------------------------
// Attack, scale and serve sweeps

/// Wall-clock of the full attack engine on the red-team workload of each
/// BASTION family. Cross-checks are off: this measures the attacks, not the
/// analyses they are checked against.
Report bench_attack(const Args& args) {
  AttackCliOptions o = attack_cli_options(args);
  o.engine.cross_check = false;
  Report r{"attack", {{"seed", std::to_string(o.seed)}}, {}, {}};
  // Red-team workloads exist for the BASTION families only; every name is
  // checked before the first attack runs.
  const std::vector<std::string> names = families_option(args, {"bastion"});
  for (const std::string& name : names) attack_benchmark(name);
  for (const std::string& name : names) {
    benchgen::RedTeamWorkload w =
        benchgen::make_redteam_workload(name, o.seed, o.redteam);
    for (const benchgen::RedTeamScenario& sc : w.scenarios) {
      attack::AttackReport rep =
          attack::run_attacks(w.circuit, w.doc.network, {sc}, o.engine);
      const attack::ScenarioResult& res = rep.scenarios.at(0);
      double seconds = 0.0, sat_calls = 0.0, recovered = 0.0, shifts = 0.0;
      for (const attack::AttackOutcome& oc : res.outcomes) {
        seconds += oc.seconds;
        sat_calls += double(oc.sat_calls);
        recovered += oc.recovered() ? 1.0 : 0.0;
        shifts += double(oc.differential.shifts);
      }
      r.rows.push_back({"Attack_" + name + "/" + sc.name,
                        seconds * 1e3,
                        1,
                        {{"recovered", recovered},
                         {"methods", double(res.outcomes.size())},
                         {"sat_calls", sat_calls},
                         {"replay_shifts", shifts}}});
    }
  }
  return r;
}

/// Dependency-analysis wall-clock and matrix footprint across MBIST sizes,
/// tiled representation vs. the dense oracle. Runs in
/// DepMode::StructuralOnly so the numbers measure the matrix machinery
/// (construction, bridging, closure) rather than the SAT portfolio in front
/// of it; both representations produce bit-identical matrices (pinned by
/// the partitioned-oracle tests), so the deltas are pure representation
/// cost. The dense oracle only runs up to --dense-max flip-flops — beyond
/// that its quadratic footprint is the problem this benchmark exists to
/// demonstrate.
Report bench_scale(const Args& args) {
  const std::uint64_t seed =
      u64_or_usage(args.get("seed").value_or("1"), "--seed");
  // A count, so the decade loop below cannot wrap past 2^64.
  const auto max_ffs =
      static_cast<std::uint64_t>(count_option(args, "max-ffs", 100000));
  const std::uint64_t dense_max =
      u64_or_usage(args.get("dense-max").value_or("10000"), "--dense-max");
  Report r{"scale",
           {{"seed", std::to_string(seed)},
            {"max_ffs", std::to_string(max_ffs)},
            {"dense_max", std::to_string(dense_max)}},
           {},
           {}};

  // Decades of circuit flip-flops from 1000 up to --max-ffs.
  std::vector<std::uint64_t> sizes;
  for (std::uint64_t s = 1000; s < max_ffs; s *= 10) sizes.push_back(s);
  sizes.push_back(max_ffs);

  auto run_one = [&](const netlist::Netlist& circuit, const rsn::Rsn& network,
                     dep::PartitionMode mode, const char* variant) {
    dep::DepOptions dopt;
    dopt.mode = dep::DepMode::StructuralOnly;
    dopt.partition = mode;
    dep::DependencyAnalyzer deps(circuit, network, dopt);
    deps.run();
    const dep::DepStats& s = deps.stats();
    return Row{"Scale_MBIST/" + std::to_string(s.circuit_ffs) + "/" + variant,
               (s.t_one_cycle + s.t_bridge + s.t_closure) * 1e3,
               1,
               {{"closure_ms", s.t_closure * 1e3, 3},
                {"circuit_ffs", double(s.circuit_ffs)},
                {"matrix_bytes", double(s.matrix_bytes)},
                {"tiles_nonzero", double(s.tiles_nonzero)},
                {"regions", double(s.regions)}}};
  };
  for (std::uint64_t target : sizes) {
    // MBIST_n_4_4 has 5 + 383 n scan FFs and the random circuit attaches
    // ~0.85 circuit FFs per scan FF, so n ~ target / 325 lands the
    // *circuit* FF count (what the matrices are over) near the target.
    const std::size_t n = std::max<std::size_t>(1, target / 325);
    Rng rng(seed);
    rsn::RsnDocument doc = benchgen::generate_mbist(n, 4, 4, 1.0);
    netlist::Netlist circuit = benchgen::attach_random_circuit(doc, {}, rng);

    const bool with_dense =
        static_cast<std::uint64_t>(circuit.ffs().size()) <= dense_max;
    if (with_dense)
      r.rows.push_back(run_one(circuit, doc.network,
                               dep::PartitionMode::Dense, "dense"));
    Row tiled =
        run_one(circuit, doc.network, dep::PartitionMode::Tiled, "tiled");
    if (with_dense) {
      // The headline pair: closure wall-clock speedup and matrix-memory
      // reduction of the tiled representation over the dense oracle at
      // the same size.
      // Counters 0 and 2 are closure_ms and matrix_bytes (run_one).
      const Row& dense = r.rows.back();
      const double dense_closure = dense.counters[0].value;
      const double dense_bytes = dense.counters[2].value;
      const double tiled_closure = tiled.counters[0].value;
      const double tiled_bytes = tiled.counters[2].value;
      tiled.counters.push_back(
          {"closure_speedup_vs_dense",
           tiled_closure > 0.0 ? dense_closure / tiled_closure : 0.0, 2});
      tiled.counters.push_back(
          {"matrix_bytes_reduction_vs_dense",
           tiled_bytes > 0.0 ? dense_bytes / tiled_bytes : 0.0, 2});
    }
    r.rows.push_back(std::move(tiled));
  }
  return r;
}

/// Load generator against an in-process daemon on a private unix socket.
/// N client connections replay a mixed stream (analyze of one fixed
/// design + pings); the daemon gets a temporary artifact store, so the
/// first analyze publishes and the rest warm-start — the replay measures
/// daemon overhead (framing, admission, scheduling), not repeated SAT
/// work. Every analyze reply is compared byte-for-byte against a one-shot
/// run of the same design: concurrency must not change results.
Report bench_serve(const Args& args) {
  // Every option is checked before the first thread starts.
  const std::uint64_t seed =
      u64_or_usage(args.get("seed").value_or("1"), "--seed");
  const std::size_t clients = threads_option(args, "clients", 4);
  const auto total_requests =
      static_cast<std::size_t>(count_option(args, "requests", 2000));
  const std::string benchmark = args.get("benchmark").value_or("Mingle");
  attack_benchmark(benchmark);
  const double scale =
      double_or_usage(args.get("scale").value_or("1.0"), "--scale");
  serve::ServiceOptions sopt;
  sopt.analysis_threads = jobs_option(args);
  serve::ServerOptions opt;
  serve_tuning(args, opt);

  // One fixed workload, serialized to the inline payload strings the
  // protocol carries.
  Rng rng(seed);
  rsn::RsnDocument doc = benchgen::generate_bastion(
      benchgen::bastion_profile(benchmark), scale, rng);
  netlist::Netlist circuit = benchgen::attach_random_circuit(doc, {}, rng);
  benchgen::SpecOptions spec_opt;
  security::SecuritySpec spec =
      benchgen::random_spec(doc.module_names.size(), spec_opt, rng);
  std::string rsn_text, verilog_text, spec_text;
  {
    std::ostringstream os;
    rsn::write_rsn(os, doc.network, doc.module_names, &circuit);
    rsn_text = os.str();
  }
  {
    std::ostringstream os;
    netlist::verilog::write(os, circuit, doc.network.name());
    verilog_text = os.str();
  }
  {
    std::ostringstream os;
    security::write_spec(os, spec, doc.module_names);
    spec_text = os.str();
  }

  // Private daemon: temp store + temp unix socket, removed afterwards.
  const std::filesystem::path scratch =
      std::filesystem::temp_directory_path() /
      ("rsnsec-bench-serve-" + std::to_string(::getpid()));
  std::filesystem::create_directories(scratch);
  sopt.store_dir = (scratch / "store").string();
  serve::AnalysisService service(sopt);

  opt.socket_path = (scratch / "daemon.sock").string();
  serve::Server server(service, opt);
  server.bind();
  std::thread server_thread([&server] { server.serve(); });

  // The one-shot reference result every analyze reply must match
  // byte-for-byte (same emitter the CLI's `analyze --json` uses).
  serve::Request ref;
  ref.command = serve::Command::Analyze;
  ref.rsn = rsn_text;
  ref.verilog = verilog_text;
  ref.spec = spec_text;
  serve::ExecResult expected = service.execute(ref);
  if (!expected.ok()) {
    server.request_stop();
    server_thread.join();
    throw std::runtime_error("bench serve: reference analyze failed: " +
                             expected.message);
  }

  const std::string analyze_body =
      std::string("\"rsn\": \"") + json_escape(rsn_text) +
      "\", \"verilog\": \"" + json_escape(verilog_text) +
      "\", \"spec\": \"" + json_escape(spec_text) + "\"";

  struct ClientStats {
    std::vector<double> analyze_us;
    std::vector<double> ping_us;
    std::uint64_t busy = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t errors = 0;
  };
  std::vector<ClientStats> per_client(clients);

  auto client_fn = [&](std::size_t ci, std::size_t n_requests) {
    ClientStats& cs = per_client[ci];
    try {
      Socket sock = Socket::connect_unix(opt.socket_path);
      LineReader reader(sock, 4u << 20);
      for (std::size_t i = 0; i < n_requests; ++i) {
        const bool is_ping = i % 16 == 15;
        std::string line;
        if (is_ping) {
          line = "{\"command\": \"ping\", \"id\": \"" + std::to_string(i) +
                 "\", \"tenant\": \"client-" + std::to_string(ci) + "\"}\n";
        } else {
          line = "{\"command\": \"analyze\", \"id\": \"" +
                 std::to_string(i) + "\", \"tenant\": \"client-" +
                 std::to_string(ci) + "\", " + analyze_body + "}\n";
        }
        for (;;) {
          auto t0 = std::chrono::steady_clock::now();
          sock.write_all(line);
          std::optional<LineReader::Line> reply = reader.next();
          if (!reply || reply->oversize) {
            ++cs.errors;
            return;
          }
          double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
          JsonParseResult parsed = parse_json(reply->text);
          if (!parsed.ok() || !parsed.value->is_object()) {
            ++cs.errors;
            break;
          }
          std::optional<bool> ok = parsed.value->bool_field("ok");
          if (ok.value_or(false)) {
            (is_ping ? cs.ping_us : cs.analyze_us).push_back(us);
            if (!is_ping) {
              // Byte-identity: the "result" object must equal the
              // one-shot reference exactly.
              std::size_t begin = reply->text.find("\"result\": ");
              std::size_t end = reply->text.rfind(", \"server\": ");
              if (begin == std::string::npos || end == std::string::npos ||
                  reply->text.substr(begin + 10, end - begin - 10) !=
                      expected.result_json)
                ++cs.mismatches;
            }
            break;
          }
          // Error reply: back off and retry on SRV005, count anything
          // else as a hard error.
          const JsonValue* error = parsed.value->find("error");
          std::string code;
          std::uint64_t retry_ms = 5;
          if (error != nullptr && error->is_object()) {
            code = error->string_field("code").value_or("");
            if (auto rm = error->number_field("retry_after_ms"))
              retry_ms = static_cast<std::uint64_t>(*rm);
          }
          if (code != "SRV005") {
            ++cs.errors;
            break;
          }
          ++cs.busy;
          std::this_thread::sleep_for(std::chrono::milliseconds(retry_ms));
        }
      }
    } catch (const SocketError&) {
      ++cs.errors;
    }
  };

  auto bench_t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (std::size_t ci = 0; ci < clients; ++ci) {
    std::size_t share = total_requests / clients +
                        (ci < total_requests % clients ? 1 : 0);
    threads.emplace_back(client_fn, ci, share);
  }
  for (std::thread& t : threads) t.join();
  double wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - bench_t0)
                      .count();

  // Cache effectiveness straight from the daemon, then shut it down.
  std::string store_stats = service.store_stats_json();
  server.request_stop();
  server_thread.join();
  std::filesystem::remove_all(scratch);

  std::vector<double> analyze_us, ping_us;
  std::uint64_t busy = 0, mismatches = 0, errors = 0;
  for (const ClientStats& cs : per_client) {
    analyze_us.insert(analyze_us.end(), cs.analyze_us.begin(),
                      cs.analyze_us.end());
    ping_us.insert(ping_us.end(), cs.ping_us.begin(), cs.ping_us.end());
    busy += cs.busy;
    mismatches += cs.mismatches;
    errors += cs.errors;
  }
  std::sort(analyze_us.begin(), analyze_us.end());
  std::sort(ping_us.begin(), ping_us.end());
  auto quantile_ms = [](const std::vector<double>& v, double q) {
    if (v.empty()) return 0.0;
    return v[static_cast<std::size_t>(q * double(v.size() - 1))] / 1e3;
  };
  if (mismatches > 0)
    throw std::runtime_error(
        "bench serve: " + std::to_string(mismatches) +
        " analyze replies differ from the one-shot reference");
  if (errors > 0)
    throw std::runtime_error("bench serve: " + std::to_string(errors) +
                             " client(s) hit hard errors");

  const std::size_t served = analyze_us.size() + ping_us.size();
  const std::string prefix = "ServeReplay_" + benchmark + "/";
  return {"serve",
          {{"seed", std::to_string(seed)},
           {"benchmark", quoted(benchmark)},
           {"clients", std::to_string(clients)},
           {"requests", std::to_string(served)},
           {"workers", std::to_string(opt.workers)},
           {"queue_depth", std::to_string(opt.queue_capacity)},
           {"store", store_stats}},
          {{prefix + "analyze",
            quantile_ms(analyze_us, 0.5),
            analyze_us.size(),
            {{"p50_ms", quantile_ms(analyze_us, 0.5), 3},
             {"p99_ms", quantile_ms(analyze_us, 0.99), 3},
             {"busy_replies", double(busy)},
             {"result_mismatches", double(mismatches)}}},
           {prefix + "ping",
            quantile_ms(ping_us, 0.5),
            ping_us.size(),
            {{"p50_ms", quantile_ms(ping_us, 0.5), 3},
             {"p99_ms", quantile_ms(ping_us, 0.99), 3}}},
           {prefix + "throughput",
            wall_s * 1e3,
            served,
            {{"requests_per_second",
              wall_s > 0.0 ? double(served) / wall_s : 0.0, 1}}}},
          {}};
}

/// Runs a grid experiment on the invocation's sweep options and store.
template <typename Run>
Report on_grid(const Args& args, Run&& run) {
  bench::SweepOptions opt = sweep_options(args);
  std::unique_ptr<store::ArtifactStore> store = open_store(args);
  opt.pipeline.store = store.get();
  return run(opt);
}

struct Experiment {
  std::string_view name;
  Report (*run)(const Args&);
  OptionTable options;
};

/// Every experiment and the options it reads. table1 is the one grid
/// experiment that reads --families; the others run the fixed family
/// lists of their paper sections.
const std::vector<Experiment>& experiments() {
  static const OptionTable grid = {
      {"circuits", "specs", "target-ffs", "target-regs", "seed", "store"},
      {"json"}};
  static const std::vector<Experiment> all = {
      {"table1",
       [](const Args& args) {
         const std::vector<std::string> families =
             families_option(args, {"bastion", "mbist"});
         return on_grid(args, [&](const bench::SweepOptions& opt) {
           return bench_table1(families, opt);
         });
       },
       {{"families", "circuits", "specs", "target-ffs", "target-regs", "seed",
         "store"},
        {"json"}}},
      {"bridging", [](const Args& a) { return on_grid(a, bench_bridging); },
       grid},
      {"ablation", [](const Args& a) { return on_grid(a, bench_ablation); },
       grid},
      {"filter", [](const Args& a) { return on_grid(a, bench_filter); }, grid},
      {"policy", [](const Args& a) { return on_grid(a, bench_policy); }, grid},
      {"attack", bench_attack,
       {{"families", "seed", "scale", "target-ffs", "target-regs", "scenario",
         "conflict-limit"},
        {"json"}}},
      {"scale", bench_scale, {{"seed", "max-ffs", "dense-max"}, {"json"}}},
      {"serve", bench_serve,
       {{"seed", "clients", "requests", "benchmark", "scale", "workers",
         "queue-depth", "max-request-bytes"},
        {"json"}}},
  };
  return all;
}

const Experiment& find_experiment(const std::string& name) {
  std::string known;
  for (const Experiment& e : experiments()) {
    if (e.name == name) return e;
    known += (known.empty() ? "" : ", ") + std::string(e.name);
  }
  throw UsageError((name.empty() ? std::string("bench needs an experiment name")
                                 : "unknown bench experiment '" + name + "'") +
                   " (try: " + known + ")");
}

}  // namespace

const OptionTable& bench_options(const std::string& experiment) {
  return find_experiment(experiment).options;
}

int cmd_bench(const Args& args, std::ostream& out) {
  const std::string& name = args.positionals.at(0);
  Report report;
  // A benchmark too large for the generators (they refuse with
  // std::overflow_error, see benchgen/families.cpp) is the caller's
  // mistake, as in `rsnsec generate`: exit 2.
  try {
    report = find_experiment(name).run(args);
  } catch (const std::overflow_error& e) {
    throw UsageError("bench " + name + ": benchmark too large: " + e.what());
  }
  if (args.has_flag("json"))
    emit_json(out, report);
  else
    emit_text(out, report);
  return 0;
}

}  // namespace rsnsec::cli
