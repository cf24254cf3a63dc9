#include "bench/common.hpp"

#include <algorithm>
#include <cstdlib>

#include "util/thread_pool.hpp"

namespace rsnsec::bench {

namespace {

/// Parses "MBIST_n_m_o" into its dimensions; returns false otherwise.
bool parse_mbist(const std::string& name, std::size_t dims[3]) {
  if (name.rfind("MBIST_", 0) != 0) return false;
  std::size_t pos = 6;
  for (int i = 0; i < 3; ++i) {
    std::size_t next = name.find('_', pos);
    std::string piece = name.substr(pos, next == std::string::npos
                                             ? std::string::npos
                                             : next - pos);
    dims[i] = std::strtoull(piece.c_str(), nullptr, 10);
    if (dims[i] == 0) return false;
    pos = next + 1;
  }
  return true;
}

}  // namespace

Instance make_instance(const std::string& name, const SweepOptions& opt,
                       int circuit_idx) {
  Instance inst;
  // Per-benchmark seed (FNV-1a over the name) so same-sized profiles
  // still get distinct instances.
  std::uint64_t h = 1469598103934665603ULL;
  for (char c : name) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  Rng rng(opt.base_seed * 7919 + h + static_cast<std::uint64_t>(circuit_idx));
  std::size_t dims[3];
  if (parse_mbist(name, dims)) {
    // Full register count without building the network:
    // regs = 2 + n*(11 + m*(5 + 3o)).
    double full_regs = 2.0 + static_cast<double>(dims[0]) *
                                 (11.0 + static_cast<double>(dims[1]) *
                                             (5.0 + 3.0 * dims[2]));
    double scale = std::min(
        1.0, 2.0 * static_cast<double>(opt.target_regs) / full_regs);
    inst.doc = benchgen::generate_mbist(dims[0], dims[1], dims[2], scale);
  } else {
    // Scale registers and FFs independently so FF-heavy benchmarks keep
    // their register structure.
    benchgen::BenchmarkProfile p = benchgen::bastion_profile(name);
    std::size_t orig_regs = p.registers;
    if (p.topology == benchgen::Topology::SerialMux) {
      // FlexScan's identity is "many 1-FF registers": the FF budget is
      // the register budget.
      p.registers = std::min(p.registers,
                             std::max(opt.target_regs, opt.target_ffs));
      p.scan_ffs = p.registers;
    } else {
      p.registers = std::min(p.registers, opt.target_regs);
      p.scan_ffs = std::min(p.scan_ffs, std::max(p.registers,
                                                 opt.target_ffs));
    }
    p.muxes = std::max<std::size_t>(
        1, p.muxes * p.registers / std::max<std::size_t>(1, orig_regs));
    inst.doc = benchgen::generate_bastion(p, 1.0, rng);
  }
  // Cross-module circuit connectivity grows with the module count so
  // hybrid-path substrate exists at every network size.
  benchgen::CircuitOptions copt;
  double modules = static_cast<double>(inst.doc.module_names.size());
  copt.target_cross_functional = std::clamp(1.0 * modules, 4.0, 128.0);
  copt.target_cross_structural = std::clamp(0.6 * modules, 5.0, 80.0);
  inst.circuit = benchgen::attach_random_circuit(inst.doc, copt, rng);
  return inst;
}

security::SecuritySpec make_spec(const Instance& inst,
                                 const benchgen::SpecOptions& options,
                                 std::uint64_t spec_base_seed,
                                 std::size_t circuit_idx,
                                 std::size_t spec_idx) {
  Rng rng(spec_base_seed * 104729 + circuit_idx * 1000 + spec_idx);
  return benchgen::random_spec(inst.doc.module_names.size(), options, rng);
}

void for_each_cell(
    const std::string& name, const SweepOptions& opt,
    const std::function<void(const GridCell&, std::size_t)>& run) {
  ThreadPool pool(ThreadPool::resolve_num_threads(opt.jobs));

  // The sweep parallelizes at the (circuit, spec) granularity: the
  // outermost independent unit, mirroring how the paper's 10 x 16 grid
  // is embarrassingly parallel.
  PipelineOptions popt = opt.pipeline;
  if (pool.num_threads() > 1 && popt.resolve.num_threads == 0)
    popt.resolve.num_threads = 1;

  const auto circuits = static_cast<std::size_t>(opt.circuits_per_benchmark);
  const auto specs = static_cast<std::size_t>(opt.specs_per_circuit);
  std::vector<Instance> instances(circuits);
  pool.parallel_for(
      0, circuits,
      [&](std::size_t ci) {
        instances[ci] = make_instance(name, opt, static_cast<int>(ci));
      },
      /*grain=*/1);
  pool.parallel_for(
      0, circuits * specs,
      [&](std::size_t t) {
        const std::size_t ci = t / specs;
        const security::SecuritySpec spec =
            make_spec(instances[ci], opt.spec, opt.base_seed, ci, t % specs);
        run(GridCell{instances[ci], spec, ci, popt}, t);
      },
      /*grain=*/1);
}

std::optional<PaperRow> paper_row(const std::string& name) {
  // Table I of the paper (averages over 10 circuits x 16 specs on an
  // Intel Xeon 3.3 GHz).
  static const PaperRow rows[] = {
      {"BasicSCB", 1.56, 1.4, 0.6, 2.0, 0.13, 0.00, 0.00, 0.13},
      {"Mingle", 2.21, 1.8, 0.8, 2.5, 0.18, 0.00, 0.00, 0.19},
      {"TreeFlat", 3.65, 3.0, 1.7, 4.7, 0.05, 0.01, 0.01, 0.06},
      {"TreeFlatEx", 8.45, 5.8, 6.3, 12.1, 26.48, 0.07, 0.09, 26.65},
      {"TreeBalanced", 7.22, 4.7, 4.3, 9.0, 43.12, 0.04, 0.05, 43.21},
      {"TreeUnbalanced", 6.27, 3.9, 3.7, 7.6, 16686.78, 0.02, 0.08,
       16686.87},
      {"q12710", 5.20, 3.8, 3.3, 7.1, 5703.16, 0.02, 0.04, 5703.22},
      {"t512505", 12.44, 9.2, 15.7, 24.9, 28702.78, 0.32, 1.14, 28704.23},
      {"p22810", 21.75, 17.2, 24.6, 41.9, 1082.98, 1.02, 1.91, 1085.91},
      {"a586710", 5.89, 4.3, 4.2, 8.4, 14724.12, 0.01, 0.08, 14724.21},
      {"p34392", 11.26, 8.2, 13.3, 21.4, 1072.99, 0.07, 0.21, 1073.27},
      {"p93791", 40.51, 35.4, 44.1, 79.5, 14592.50, 1.83, 5.32, 14599.64},
      {"FlexScan", 207.22, 203.7, 247.7, 451.4, 32.73, 827.54, 1012.72,
       1872.99},
      {"MBIST_1_5_5", 6.64, 2.3, 10.8, 13.2, 0.21, 0.01, 0.03, 0.25},
      {"MBIST_1_5_20", 9.00, 3.3, 36.2, 39.5, 1.13, 0.04, 0.38, 1.55},
      {"MBIST_1_20_20", 7.60, 2.4, 38.2, 40.6, 13.90, 0.15, 1.25, 15.29},
      {"MBIST_2_5_5", 6.18, 3.6, 8.1, 11.7, 0.46, 0.04, 0.08, 0.58},
      {"MBIST_2_5_20", 8.88, 4.7, 38.9, 43.6, 3.28, 0.17, 1.05, 4.50},
      {"MBIST_2_20_20", 2.45, 1.6, 1.0, 2.6, 67.86, 0.44, 0.52, 68.82},
      {"MBIST_5_5_5", 9.64, 6.6, 15.1, 21.7, 1.51, 0.15, 0.35, 2.02},
      {"MBIST_5_20_20", 4.56, 2.8, 10.1, 12.9, 465.85, 2.70, 6.40, 474.95},
      {"MBIST_20_20_20", 19.62, 15.1, 89.8, 104.8, 9359.48, 0.87, 73.19,
       9433.54},
  };
  for (const PaperRow& r : rows) {
    if (name == r.name) return r;
  }
  return std::nullopt;
}

}  // namespace rsnsec::bench
