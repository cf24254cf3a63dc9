#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "benchgen/circuit.hpp"
#include "benchgen/families.hpp"
#include "benchgen/specgen.hpp"
#include "core/tool.hpp"

namespace rsnsec::bench {

/// Sweep parameters of the Table I reproduction. The paper uses 10 random
/// circuits x 16 random specifications per benchmark on server hardware;
/// the defaults here are scaled down so the whole grid runs in minutes
/// (`rsnsec bench` sets them with --circuits, --specs, --target-ffs,
/// --target-regs, --seed, --jobs and --store).
struct SweepOptions {
  int circuits_per_benchmark = 3;   ///< paper: 10
  int specs_per_circuit = 6;        ///< paper: 16
  /// Networks are scaled so their scan-FF count is at most this value.
  std::size_t target_ffs = 400;
  /// ... and their register count is at most this value. Registers and
  /// FFs scale independently: FF-heavy benchmarks (q12710, a586710, ...)
  /// keep their register structure while register widths shrink.
  std::size_t target_regs = 48;
  std::uint64_t base_seed = 1;
  /// Concurrent (circuit, spec) runs (0 = auto from RSNSEC_JOBS /
  /// hardware concurrency). Runs are independent — each works on its own
  /// network copy — and run_grid returns them in (circuit, spec) order,
  /// so every reduction over them is identical for any value.
  std::size_t jobs = 0;
  /// Sparse specifications: a couple of protected instruments and few
  /// low-trust ones, matching the violating-register densities of Table I.
  benchgen::SpecOptions spec{.expected_sensitive_modules = 2.5,
                             .low_trust_prob = 0.1};
  PipelineOptions pipeline;
};

/// A generated (network, circuit) instance ready for specification runs.
struct Instance {
  rsn::RsnDocument doc;
  netlist::Netlist circuit;
};

/// Generates instance `circuit_idx` of the named benchmark ("BasicSCB"
/// ... "FlexScan" or "MBIST_n_m_o").
Instance make_instance(const std::string& name, const SweepOptions& opt,
                       int circuit_idx);

/// Specification `spec_idx` of circuit `circuit_idx` in the Table I spec
/// stream: every grid experiment draws its specifications here with
/// `spec_base_seed` = SweepOptions::base_seed. The spec seed is an
/// explicit argument because the benchmark harness draws the specs of
/// every grid with base seed 1, whatever the grid's circuit seed.
security::SecuritySpec make_spec(const Instance& inst,
                                 const benchgen::SpecOptions& options,
                                 std::uint64_t spec_base_seed,
                                 std::size_t circuit_idx,
                                 std::size_t spec_idx);

/// Published Table I reference values for side-by-side printing.
struct PaperRow {
  const char* name;
  double viol_regs, pure, hybrid, total;  ///< columns 5-8
  double t_dep, t_pure, t_hybrid, t_total;
};

/// Reference row for `name`, if the paper reports one.
std::optional<PaperRow> paper_row(const std::string& name);

/// One (circuit, spec) run of a benchmark's grid.
struct GridCell {
  const Instance& instance;
  const security::SecuritySpec& spec;
  std::size_t circuit = 0;
  /// SweepOptions::pipeline, with the resolution trials on one thread
  /// when the grid itself runs concurrently, so the host is not
  /// oversubscribed quadratically (an explicit resolve.num_threads is
  /// kept).
  const PipelineOptions& pipeline;
};

/// Calls `run(cell, index)` once for every (circuit, spec) cell of
/// benchmark `name`, index = circuit * specs_per_circuit + spec, on a pool
/// of SweepOptions::jobs threads. Instances are generated once per circuit
/// and shared read-only by that circuit's cells.
void for_each_cell(
    const std::string& name, const SweepOptions& opt,
    const std::function<void(const GridCell&, std::size_t)>& run);

/// Runs `run` on every cell of benchmark `name`'s grid and returns the
/// results in (circuit, spec) order, whatever thread finished first.
template <class Fn>
auto run_grid(const std::string& name, const SweepOptions& opt, Fn&& run) {
  using Result = std::invoke_result_t<Fn&, const GridCell&>;
  std::vector<Result> results(
      static_cast<std::size_t>(opt.circuits_per_benchmark) *
      static_cast<std::size_t>(opt.specs_per_circuit));
  for_each_cell(name, opt, [&](const GridCell& cell, std::size_t index) {
    results[index] = run(cell);
  });
  return results;
}

}  // namespace rsnsec::bench
