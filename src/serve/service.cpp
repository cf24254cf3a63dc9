#include "serve/service.hpp"

#include <cstdint>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "attack/engine.hpp"
#include "benchgen/families.hpp"
#include "benchgen/redteam.hpp"
#include "core/analyze.hpp"
#include "core/report.hpp"
#include "core/tool.hpp"
#include "dep/analyzer.hpp"
#include "flow/certify.hpp"
#include "obs/trace.hpp"
#include "rsn/io.hpp"
#include "store/artifact_store.hpp"
#include "util/strings.hpp"

namespace rsnsec::serve {

namespace {

/// A latency histogram as a stats reply reports it.
void write_hist_json(std::ostream& os, const obs::Histogram& h) {
  const std::uint64_t count = h.count();
  os << "{\"count\": " << count << ", \"mean_us\": "
     << (count ? static_cast<double>(h.sum()) / count : 0.0)
     << ", \"max_us\": " << h.max()
     << ", \"p50_us\": " << obs::quantile_upper_bound(h, 0.5)
     << ", \"p99_us\": " << obs::quantile_upper_bound(h, 0.99) << "}";
}

struct TenantStats {
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  std::uint64_t busy = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  // Microseconds. Per-service, not the ambient trace session's.
  obs::Histogram latency_us{"latency_us"};
  obs::Histogram queue_wait_us{"queue_wait_us"};
};

/// The inline payloads as one design's texts; a request carries `.rsn`.
DesignText design_text(const Request& req) {
  DesignText text;
  text.network = req.rsn;
  text.verilog = req.verilog;
  text.spec = req.spec;
  return text;
}

std::uint64_t to_us(double seconds) {
  if (seconds <= 0.0) return 0;
  return static_cast<std::uint64_t>(seconds * 1e6);
}

dep::DepOptions analyze_options(const Request& req) {
  dep::DepOptions dopt;
  if (req.structural) dopt.mode = dep::DepMode::StructuralOnly;
  dopt.ternary_prefilter = !req.no_ternary;
  return dopt;
}

ExecResult analyze_reply(const AnalyzeResult& analysis) {
  std::ostringstream os;
  write_analyze_json(os, analysis.report);
  ExecResult r;
  r.cache_hit = analysis.cache_hit;
  r.result_json = os.str();
  return r;
}

/// A payload that does not read is the client's mistake (SRV004); an
/// analysis that fails on one that does is ours (SRV007).
ExecResult run_analyze(const Request& req, store::ArtifactStore* store) {
  ExecResult r;
  try {
    return analyze_reply(
        analyze(design_text(req), analyze_options(req), store));
  } catch (const AnalysisError& e) {
    r.code = ServeCode::Internal;
    r.message = e.what();
  } catch (const std::exception& e) {
    r.code = ServeCode::BadField;
    r.message = std::string("payload: ") + e.what();
  }
  return r;
}

ExecResult run_secure(const Request& req, Workload& w, ThreadPool& pool,
                      store::ArtifactStore* store) {
  PipelineOptions popt;
  if (req.structural) popt.dep.mode = dep::DepMode::StructuralOnly;
  popt.dep.ternary_prefilter = !req.no_ternary;
  popt.resolve.pool = &pool;
  popt.store = store;
  popt.verify = req.verify;
  SecureFlowTool tool(w.circuit, w.doc.network, w.spec, popt);
  PipelineResult result = tool.run();

  // Deterministic subset of the report (the full write_json carries
  // phase timings); the secured network rides along as .rsn text so the
  // client needs no server-side filesystem.
  std::ostringstream os;
  os << "{\"secured\": " << (result.secured ? "true" : "false")
     << ", \"insecure_logic\": "
     << (result.static_report.insecure_logic ? "true" : "false")
     << ", \"intra_segment\": "
     << (result.static_report.intra_segment ? "true" : "false")
     << ", \"initial_violating_registers\": "
     << result.initial_violating_registers << ", \"changes\": {\"pure\": "
     << result.pure.applied_changes
     << ", \"hybrid\": " << result.hybrid.applied_changes
     << ", \"total\": " << result.total_changes() << ", \"log\": [";
  for (std::size_t i = 0; i < result.changes.size(); ++i) {
    if (i) os << ", ";
    os << "{\"note\": \"" << json_escape(result.changes[i].note)
       << "\", \"rewire_operations\": "
       << result.changes[i].rewire_operations << "}";
  }
  os << "]}, \"rsn\": ";
  if (result.secured) {
    std::ostringstream net;
    rsn::write_rsn(net, w.doc.network, w.doc.module_names, &w.circuit);
    os << '"' << json_escape(net.str()) << '"';
  } else {
    os << "null";
  }
  os << "}";

  ExecResult r;
  r.cache_hit = result.cache_hit;
  r.result_json = os.str();
  return r;
}

ExecResult run_certify(const Request& req, Workload& w) {
  flow::CertifyOptions opt;
  opt.ternary_refine = !req.no_ternary;
  flow::CertifyResult result =
      flow::certify(w.circuit, w.doc.network, w.spec, opt);
  std::ostringstream os;
  os << "{\"certified\": " << (result.certified() ? "true" : "false")
     << ", \"violating_pairs\": " << result.stats.violating_pairs
     << ", \"nodes\": " << result.stats.nodes
     << ", \"edges\": " << result.stats.edges
     << ", \"ternary_discharged\": " << result.stats.ternary_discharged
     << ", \"diagnostics\": " << result.diagnostics.size() << "}";
  ExecResult r;
  r.result_json = os.str();
  return r;
}

ExecResult run_attack(const Request& req) {
  // Validate the family name before generating anything; an unknown
  // name is the client's mistake (SRV004), with the catalog listed.
  try {
    benchgen::bastion_profile(req.benchmark);
  } catch (const std::exception&) {
    std::string known;
    for (const benchgen::BenchmarkProfile& p : benchgen::bastion_profiles())
      known += (known.empty() ? "" : ", ") + p.name;
    ExecResult r;
    r.code = ServeCode::BadField;
    r.message = "unknown benchmark '" + req.benchmark + "' (try: " + known +
                ")";
    return r;
  }

  benchgen::RedTeamOptions ropt;
  benchgen::RedTeamWorkload w =
      benchgen::make_redteam_workload(req.benchmark, req.seed, ropt);
  attack::AttackOptions aopt;
  aopt.seed = req.seed;
  // No cross-check: the reply is a deterministic function of
  // (benchmark, seed), replayable for regression diffs.
  aopt.cross_check = false;
  attack::AttackReport rep =
      attack::run_attacks(w.circuit, w.doc.network, w.scenarios, aopt);

  std::ostringstream os;
  os << "{\"benchmark\": \"" << json_escape(req.benchmark)
     << "\", \"seed\": " << req.seed << ", \"scenarios\": [";
  for (std::size_t i = 0; i < rep.scenarios.size(); ++i) {
    const attack::ScenarioResult& sc = rep.scenarios[i];
    if (i) os << ", ";
    os << "{\"scenario\": \"" << json_escape(sc.scenario)
       << "\", \"outcomes\": [";
    for (std::size_t j = 0; j < sc.outcomes.size(); ++j) {
      const attack::AttackOutcome& oc = sc.outcomes[j];
      if (j) os << ", ";
      os << "{\"method\": \"" << json_escape(oc.method)
         << "\", \"verdict\": \"" << attack::verdict_name(oc.verdict)
         << "\", \"recovered\": " << (oc.recovered() ? "true" : "false")
         << ", \"leaks\": "
         << (oc.differential.leaks ? "true" : "false")
         << ", \"sat_calls\": " << oc.sat_calls << "}";
    }
    os << "]}";
  }
  os << "], \"recovered\": " << (rep.any_recovered() ? "true" : "false")
     << "}";
  ExecResult r;
  r.result_json = os.str();
  return r;
}

}  // namespace

struct AnalysisService::Stats {
  mutable std::mutex mutex;
  std::map<std::string, TenantStats> tenants;
};

AnalysisService::AnalysisService(ServiceOptions options)
    : options_(std::move(options)),
      pool_(ThreadPool::resolve_num_threads(options_.analysis_threads)),
      stats_(std::make_unique<Stats>()) {
  if (!options_.store_dir.empty())
    store_ = std::make_unique<store::ArtifactStore>(options_.store_dir);
}

AnalysisService::~AnalysisService() = default;

ExecResult AnalysisService::execute(const Request& req) {
  obs::TraceSession* trace = obs::TraceSession::active();
  obs::Span span(trace,
                 std::string("serve.") + command_name(req.command));
  if (req.command == Command::Analyze) return run_analyze(req, store_.get());
  Workload w;
  if (req.command == Command::Secure || req.command == Command::Certify) {
    try {
      // The readers' line-numbered messages reach the client as SRV004.
      w = load_design(design_text(req));
    } catch (const std::exception& e) {
      ExecResult r;
      r.code = ServeCode::BadField;
      r.message = std::string("payload: ") + e.what();
      return r;
    }
  }
  try {
    switch (req.command) {
      case Command::Secure:
        return run_secure(req, w, pool_, store_.get());
      case Command::Certify:
        return run_certify(req, w);
      case Command::Attack:
        return run_attack(req);
      default: {
        ExecResult r;
        r.code = ServeCode::Internal;
        r.message = std::string("command '") + command_name(req.command) +
                    "' is not schedulable";
        return r;
      }
    }
  } catch (const std::exception& e) {
    ExecResult r;
    r.code = ServeCode::Internal;
    r.message = e.what();
    return r;
  }
}

std::optional<ExecResult> AnalysisService::answer_from_store(
    const Request& req) {
  obs::Span span(obs::TraceSession::active(), "serve.analyze");
  try {
    ReportLookup lookup =
        lookup_report(design_text(req), analyze_options(req), *store_);
    if (lookup.hit) return analyze_reply(*lookup.hit);
  } catch (const std::exception&) {
    // A miss: execute looks up again and reports the error.
  }
  return std::nullopt;
}

std::string AnalysisService::store_stats_json() const {
  std::ostringstream os;
  if (store_ == nullptr) {
    os << "{\"enabled\": false}";
    return os.str();
  }
  store::DiskStats disk = store_->disk_stats();
  store::StoreCounters c = store_->counters();
  os << "{\"enabled\": true, \"objects\": " << disk.objects
     << ", \"bytes\": " << disk.bytes
     << ", \"quarantined\": " << disk.quarantined << ", \"hits\": " << c.hits
     << ", \"misses\": " << c.misses << "}";
  return os.str();
}

std::string AnalysisService::stats_json() const {
  std::ostringstream os;
  os << "{\"tenants\": {";
  {
    std::lock_guard<std::mutex> lock(stats_->mutex);
    bool first = true;
    for (const auto& [name, t] : stats_->tenants) {
      if (!first) os << ", ";
      first = false;
      os << '"' << json_escape(name) << "\": {\"requests\": " << t.requests
         << ", \"ok\": " << t.ok << ", \"errors\": " << t.errors
         << ", \"busy\": " << t.busy << ", \"cache_hits\": " << t.cache_hits
         << ", \"cache_misses\": " << t.cache_misses << ", \"latency_us\": ";
      write_hist_json(os, t.latency_us);
      os << ", \"queue_wait_us\": ";
      write_hist_json(os, t.queue_wait_us);
      os << "}";
    }
  }
  os << "}, \"queue_depth\": "
     << (queue_probe_ ? queue_probe_() : 0)
     << ", \"analysis_threads\": " << pool_.num_threads() << "}";
  return os.str();
}

void AnalysisService::record_queue_wait(const std::string& tenant,
                                        double seconds) {
  std::lock_guard<std::mutex> lock(stats_->mutex);
  stats_->tenants[tenant].queue_wait_us.record(to_us(seconds));
}

void AnalysisService::record_result(const std::string& tenant,
                                    const ExecResult& result,
                                    double latency_seconds) {
  std::lock_guard<std::mutex> lock(stats_->mutex);
  TenantStats& t = stats_->tenants[tenant];
  ++t.requests;
  if (result.ok()) {
    ++t.ok;
    if (result.cache_hit)
      ++t.cache_hits;
    else
      ++t.cache_misses;
  } else {
    ++t.errors;
  }
  t.latency_us.record(to_us(latency_seconds));
}

void AnalysisService::record_busy(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(stats_->mutex);
  TenantStats& t = stats_->tenants[tenant];
  ++t.requests;
  ++t.busy;
}

void AnalysisService::set_queue_probe(std::function<std::size_t()> probe) {
  queue_probe_ = std::move(probe);
}

}  // namespace rsnsec::serve
