#include "serve/service.hpp"

#include <array>
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

/// Log2-bucketed histogram over microseconds (bucket 0 holds value 0,
/// bucket b >= 1 holds [2^(b-1), 2^b)), same layout as obs::Histogram
/// but plain data under the service's stats mutex — tenant stats are
/// per-service, not ambient.
struct LocalHist {
  static constexpr std::size_t kBuckets = 64;
  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;

  void record(std::uint64_t v) {
    std::size_t b = 0;
    while ((std::uint64_t{1} << b) <= v && b + 1 < kBuckets) ++b;
    ++buckets[b];
    ++count;
    sum += v;
    if (v > max) max = v;
  }

  /// Upper bound of the bucket holding quantile q (2^b microseconds) —
  /// a factor-of-two estimate, which is all a retry/back-off consumer
  /// needs.
  std::uint64_t quantile(double q) const {
    if (count == 0) return 0;
    std::uint64_t rank = static_cast<std::uint64_t>(q * count);
    if (rank >= count) rank = count - 1;
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      seen += buckets[b];
      if (seen > rank) return b == 0 ? 0 : (std::uint64_t{1} << b);
    }
    return max;
  }

  void write_json(std::ostream& os) const {
    os << "{\"count\": " << count << ", \"mean_us\": "
       << (count ? static_cast<double>(sum) / count : 0.0)
       << ", \"max_us\": " << max << ", \"p50_us\": " << quantile(0.5)
       << ", \"p99_us\": " << quantile(0.99) << "}";
  }
};

struct TenantStats {
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  std::uint64_t busy = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  LocalHist latency_us;
  LocalHist queue_wait_us;
};

/// Parses the inline payloads. Throws std::runtime_error with the
/// parser's line-numbered message (surfaced to the client as SRV004).
Workload parse_workload(const Request& req) {
  std::istringstream rsn_text(req.rsn), verilog(req.verilog), spec(req.spec);
  return attach_design(rsn::read_rsn(rsn_text), verilog, spec);
}

std::uint64_t to_us(double seconds) {
  if (seconds <= 0.0) return 0;
  return static_cast<std::uint64_t>(seconds * 1e6);
}

ExecResult run_analyze(const Request& req, const Workload& w,
                       ThreadPool& pool, store::ArtifactStore* store) {
  dep::DepOptions dopt;
  if (req.structural) dopt.mode = dep::DepMode::StructuralOnly;
  dopt.ternary_prefilter = !req.no_ternary;
  dopt.pool = &pool;
  AnalyzeResult analysis = analyze(w, dopt, store);
  std::ostringstream os;
  write_analyze_json(os, analysis.report);
  ExecResult r;
  r.cache_hit = analysis.cache_hit;
  r.result_json = os.str();
  return r;
}

ExecResult run_secure(const Request& req, Workload& w, ThreadPool& pool,
                      store::ArtifactStore* store) {
  PipelineOptions popt;
  if (req.structural) popt.dep.mode = dep::DepMode::StructuralOnly;
  popt.dep.ternary_prefilter = !req.no_ternary;
  popt.dep.pool = &pool;
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
  r.cache_hit = result.dep_stats.sat_calls == 0 && store != nullptr;
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
  // Single-threaded, no cross-check: the reply is a deterministic
  // function of (benchmark, seed), replayable for regression diffs.
  aopt.num_threads = 1;
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
  Workload w;
  bool needs_workload = req.command == Command::Analyze ||
                        req.command == Command::Secure ||
                        req.command == Command::Certify;
  if (needs_workload) {
    try {
      w = parse_workload(req);
    } catch (const std::exception& e) {
      ExecResult r;
      r.code = ServeCode::BadField;
      r.message = std::string("payload: ") + e.what();
      return r;
    }
  }
  try {
    switch (req.command) {
      case Command::Analyze:
        return run_analyze(req, w, pool_, store_.get());
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
      t.latency_us.write_json(os);
      os << ", \"queue_wait_us\": ";
      t.queue_wait_us.write_json(os);
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
