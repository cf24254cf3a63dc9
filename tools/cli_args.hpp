#pragma once

// Option parsing shared by the commands of tools/cli.cpp and the
// experiments of tools/bench.cpp; internal to the rsnsec CLI.

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "attack/engine.hpp"
#include "benchgen/families.hpp"
#include "benchgen/redteam.hpp"
#include "serve/server.hpp"
#include "store/artifact_store.hpp"

namespace rsnsec::cli {

/// Bad command-line *input* (unknown command or option, missing value or
/// required option, malformed numbers, bad benchmark syntax). Distinct
/// from plain runtime_error so run() can exit 2 — "your invocation is
/// wrong" — instead of 1 ("the tool failed").
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The options one command, or one `bench` experiment, reads besides
/// --jobs, --trace and --metrics, which every command takes. Any other
/// option is a UsageError, raised before the command runs.
struct OptionTable {
  std::vector<std::string_view> values;  ///< --key VALUE
  std::vector<std::string_view> flags;   ///< --key
};

struct Args {
  std::string command;
  std::map<std::string, std::string> options;
  std::vector<std::string> flags;
  /// lint's input files, store's action, bench's experiment (always the
  /// first argument after `bench`).
  std::vector<std::string> positionals;

  bool has_flag(const std::string& f) const {
    for (const std::string& x : flags)
      if (x == f) return true;
    return false;
  }
  std::optional<std::string> get(const std::string& key) const {
    auto it = options.find(key);
    if (it == options.end()) return std::nullopt;
    return it->second;
  }
  std::string require(const std::string& key) const {
    auto v = get(key);
    if (!v) throw UsageError("missing required option --" + key);
    return *v;
  }
};

/// Guarded numeric parses: any malformed or overflowing number in the
/// invocation is a UsageError (exit 2) with the offending token quoted,
/// never an uncaught std::sto* exception.
std::uint64_t u64_or_usage(const std::string& s, const std::string& what);
double double_or_usage(const std::string& s, const std::string& what);

/// --key N as a count in [1, INT_MAX]; `fallback` when the flag is absent.
int count_option(const Args& args, const std::string& key, int fallback);

/// --key N as a thread count in [1, ThreadPool::kMaxThreads]; `fallback`
/// (0 = auto) when the flag is absent. Checked before any thread starts.
std::size_t threads_option(const Args& args, const std::string& key,
                           std::size_t fallback);

/// --jobs N; without the flag, commands default to auto (RSNSEC_JOBS,
/// else hardware concurrency) — results are bit-identical for any value.
std::size_t jobs_option(const Args& args);

/// The artifact-store directory: --store wins over RSNSEC_STORE (the same
/// precedence --jobs has over RSNSEC_JOBS). Empty = no store.
std::string store_dir(const Args& args);

/// Opens the invocation's artifact store, or nullptr when neither --store
/// nor RSNSEC_STORE is set.
std::unique_ptr<store::ArtifactStore> open_store(const Args& args);

/// The dimensions (n, m, o) of an "MBIST_n_m_o" benchmark name, or
/// nullopt for any other name. A malformed name or a zero dimension is a
/// UsageError. Shared by `generate --benchmark` and `bench --families`.
std::optional<std::array<std::size_t, 3>> mbist_dimensions(
    const std::string& name);

/// Validates a BASTION family name; an unknown family is the caller's
/// mistake (exit 2), with the catalog listed.
const benchgen::BenchmarkProfile& attack_benchmark(const std::string& name);

/// Shared option parsing of `rsnsec attack` and `rsnsec bench attack`.
struct AttackCliOptions {
  std::uint64_t seed = 1;
  benchgen::RedTeamOptions redteam;
  attack::AttackOptions engine;
};
AttackCliOptions attack_cli_options(const Args& args);

/// Shared tuning knobs of `rsnsec serve` and `rsnsec bench serve`.
void serve_tuning(const Args& args, serve::ServerOptions& opt);

/// The options `rsnsec bench EXPERIMENT` reads; a UsageError listing
/// the experiments when `experiment` names none (tools/bench.cpp).
const OptionTable& bench_options(const std::string& experiment);

/// `rsnsec bench <experiment>` (tools/bench.cpp).
int cmd_bench(const Args& args, std::ostream& out);

}  // namespace rsnsec::cli
