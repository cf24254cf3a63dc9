#include "lint/registry.hpp"

#include "lint/passes.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace rsnsec::lint {

Registry Registry::with_default_passes() {
  Registry r;
  r.add(make_netlist_multi_driver_pass());
  r.add(make_netlist_dangling_input_pass());
  r.add(make_netlist_dead_logic_pass());
  r.add(make_rsn_acyclicity_pass());
  r.add(make_rsn_connectivity_pass());
  r.add(make_rsn_reachability_pass());
  r.add(make_rsn_dead_mux_pass());
  r.add(make_spec_consistency_pass());
  r.add(make_spec_cross_reference_pass());
  return r;
}

void Registry::add(std::unique_ptr<Pass> pass) {
  passes_.push_back(std::move(pass));
}

std::vector<Diagnostic> Registry::run(const LintInput& input,
                                      ThreadPool* pool) const {
  // Per-pass buffers keep each pass's findings contiguous and make the
  // concatenation order (= registration order) independent of how the
  // passes were scheduled across threads.
  std::vector<std::vector<Diagnostic>> per_pass(passes_.size());
  obs::TraceSession* trace = obs::TraceSession::active();
  obs::Span lint_span(trace, "lint.run");
  auto run_pass = [&](std::size_t p) {
    if (passes_[p]->applicable(input)) {
      obs::Span span(trace,
                     std::string("lint.pass.") + passes_[p]->name());
      Sink sink(per_pass[p]);
      passes_[p]->run(input, sink);
      if (trace != nullptr) {
        trace->counter("lint.passes_run").add(1);
        trace->counter("lint.diagnostics").add(per_pass[p].size());
      }
    }
  };
  if (pool != nullptr && pool->num_threads() > 1) {
    pool->parallel_for(0, passes_.size(), run_pass, /*grain=*/1);
  } else {
    for (std::size_t p = 0; p < passes_.size(); ++p) run_pass(p);
  }
  std::vector<Diagnostic> diags;
  for (std::vector<Diagnostic>& d : per_pass)
    diags.insert(diags.end(), std::make_move_iterator(d.begin()),
                 std::make_move_iterator(d.end()));
  return diags;
}

}  // namespace rsnsec::lint
