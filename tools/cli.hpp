#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace rsnsec::cli {

/// Entry point of the `rsnsec` command-line tool (separated from main()
/// so tests can drive it in-process).
///
/// Commands:
///   rsnsec generate --benchmark NAME [--scale S] [--seed N]
///                   --out-rsn F [--out-verilog F] [--out-spec F]
///   rsnsec info     (--rsn F | --icl F [--top NAME])
///   rsnsec analyze  NETWORK --verilog F --spec F [--json] [--filter-baseline]
///                   [DEP...]
///   rsnsec secure   NETWORK --verilog F --spec F --out F [--json]
///                   [--verify] [DEP...]
///   rsnsec certify  NETWORK --verilog F --spec F [--json] [--no-ternary]
///                   [--max-findings N]
///   rsnsec attack   --benchmark NAME [--seed N] [--scenario pure|hybrid|all]
///                   [--no-secure] [--json] [REDTEAM...]
///   rsnsec lint     FILE... [--json] [--top NAME]
///   rsnsec store    stats|verify|gc --store DIR [--max-bytes N] [--json]
///   rsnsec serve    (--socket PATH | --port N) [--workers N]
///                   [--queue-depth N] [--max-request-bytes N] [--store DIR]
///   rsnsec bench    table1 [--families bastion|mbist|NAME,...]
///                   [--circuits N] [--specs N] [--target-ffs N]
///                   [--target-regs N] [--seed N] [--store DIR] [--json]
///   rsnsec bench    bridging|ablation|filter|policy (table1's options
///                   but --families)
///   rsnsec bench    attack [--families NAME,...] [--seed N]
///                   [--scenario pure|hybrid|all] [--json] [REDTEAM...]
///   rsnsec bench    scale [--max-ffs N] [--dense-max N] [--seed N] [--json]
///   rsnsec bench    serve [--clients N] [--requests N] [--benchmark NAME]
///                   [--scale S] [--workers N] [--queue-depth N]
///                   [--max-request-bytes N] [--seed N] [--json]
///
/// where NETWORK is --rsn F or --icl F [--top NAME]; DEP is --store DIR,
/// --mode exact|structural (--structural for short), --no-ternary,
/// --partition auto|dense|tiled or --tile-spill-budget BYTES (which needs
/// a store); and REDTEAM is --scale S, --target-ffs N, --target-regs N or
/// --conflict-limit N.
///
/// Every command takes --jobs N (1 to 1024; omitted = auto), --trace FILE
/// and --metrics, and no option it does not list: anything else is a
/// usage error (exit 2) that names the option, before the command reads
/// a file. `bench` takes its experiment as its first argument.
///
/// `lint` statically checks the given files (.rsn/.icl network,
/// .v circuit, .spec specification — any subset, cross-checked when
/// combined) with the src/lint diagnostics passes. `certify`
/// independently re-verifies a (secured) design against its spec with
/// the SAT-free abstract interpreter of src/flow (CERT0xx diagnostics).
/// `secure --verify` (PipelineOptions::verify) additionally runs the lint
/// invariant pass after every applied RSN change, and the certifier and
/// the differential attack probes on the final network. `bench` runs the
/// paper's evaluation (Table I, Sec. III-A.2 bridging, the Sec. IV-C
/// ablation, the Sec. I access-filter baseline, a resolution-policy
/// ablation) on the Table I grid, and the attack, scale and serve sweeps;
/// each prints a text table or, with --json, the google-benchmark layout.
///
/// Returns the process exit code (0 = success; 1 = the run failed, e.g.
/// an unreadable file; 2 = a usage error: an unknown command or option, a
/// missing value or required option, a malformed number; for `analyze`,
/// 0 also means "no violations found" and 2 means "violations found"; for
/// `lint` and `certify`, 0 means "no error-severity diagnostics" and 2
/// means at least one error was reported).
int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err);

}  // namespace rsnsec::cli
