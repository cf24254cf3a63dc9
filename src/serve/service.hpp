#pragma once

// Execution + shared-state layer of the serve daemon. One AnalysisService
// owns everything every tenant shares:
//
//   - one ThreadPool — each request's dependency analysis and resolution
//     fan out onto it (DepOptions::pool / ResolveOptions::pool), so total
//     analysis threads stay bounded regardless of tenant count;
//   - one ArtifactStore (optional) — repeated designs warm-start across
//     tenants: the second analyze of a design makes zero SAT calls no
//     matter who sent the first;
//   - per-tenant counters (requests, errors, busy rejections, cache
//     hits) and log2 latency/queue-wait histograms, reported by the
//     `stats` request.
//
// It owns no trace session: requests record spans and counters into the
// caller's session when one is active (`serve --trace` / `--metrics`, a
// benchmark's traced run) and nowhere otherwise, so an untraced daemon
// keeps no per-request trace state.
//
// execute() is fully re-entrant: any number of scheduler workers may run
// requests concurrently. All per-request state (parsed workload,
// analyzer, result text) is local; results are bit-identical to one-shot
// CLI runs because the analyze body (core/analyze) and the emitters are
// shared and carry no timings (wall clock lives only in the separate
// "server" reply object and the stats).

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "serve/protocol.hpp"
#include "util/thread_pool.hpp"

namespace rsnsec::store {
class ArtifactStore;
}

namespace rsnsec::serve {

struct ServiceOptions {
  /// Artifact-store directory shared by all tenants ("" = no store;
  /// every request recomputes).
  std::string store_dir;
  /// Threads of the shared analysis pool (0 = auto: RSNSEC_JOBS, else
  /// hardware concurrency).
  std::size_t analysis_threads = 0;
};

/// Outcome of executing one heavy request.
struct ExecResult {
  ServeCode code = ServeCode::Ok;
  std::string message;          ///< error detail when code != Ok
  std::string result_json;      ///< single-line JSON value when code == Ok
  bool cache_hit = false;       ///< dependency analysis served from store

  bool ok() const { return code == ServeCode::Ok; }
};

class AnalysisService {
 public:
  explicit AnalysisService(ServiceOptions options);
  ~AnalysisService();

  AnalysisService(const AnalysisService&) = delete;
  AnalysisService& operator=(const AnalysisService&) = delete;

  /// Runs one analyze / secure / certify / attack request. Never throws:
  /// unparsable payloads come back as BadField (SRV004), execution
  /// failures as Internal (SRV007).
  ExecResult execute(const Request& request);

  /// Result bodies of the cheap introspection commands (handled inline
  /// on the connection thread, bypassing the scheduler).
  std::string store_stats_json() const;
  std::string stats_json() const;

  /// Per-tenant accounting, called by the connection/scheduler layer.
  void record_queue_wait(const std::string& tenant, double seconds);
  void record_result(const std::string& tenant, const ExecResult& result,
                     double latency_seconds);
  void record_busy(const std::string& tenant);

  /// Lets stats_json() report the live admission-queue depth without a
  /// dependency cycle onto the scheduler.
  void set_queue_probe(std::function<std::size_t()> probe);

  ThreadPool& pool() { return pool_; }
  store::ArtifactStore* store() { return store_.get(); }

 private:
  struct Stats;

  ServiceOptions options_;
  ThreadPool pool_;
  std::unique_ptr<store::ArtifactStore> store_;
  std::unique_ptr<Stats> stats_;
  std::function<std::size_t()> queue_probe_;
};

}  // namespace rsnsec::serve
