#!/usr/bin/env python3
"""End-to-end benchmark of rsnsec (see README.md).

    python3 perfbench/run.py --workload cli_mbist --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --selftest

Builds the rsnsec CLI and the benchmark harness from source into
.bench_build/perfbench, runs one seeded workload for --seconds, checks every
output, prints a table of metrics (median, tail, sample count) and, as the
last line of standard output, one JSON object: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import stats  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD, "perfbench_harness")
RSNSEC = os.path.join(BUILD, "tools", "rsnsec")
TRACES = os.path.join(ROOT, ".bench_build", "traces")

# The workloads' other parameters are constants of harness.cpp.
JOBS = 2  # --jobs of every rsnsec process (and of its replica); below nproc
# cli_mbist: a run makes one session per SESSION_S of --seconds, a
# session's wall-clock (with its output check) on the 4-core development
# host.
SESSION_S = 10.0
# cli_mbist: the processes of a session, in order, and those whose time the
# gated p50_ms sums. `secure` is timed and checked but not gated: whether
# its hybrid phase has to rewire anything is a property of the circuit
# (0.1 s on some, 3-4 s on others; the pure phase takes a steady 2 s), so
# the median `secure` of a run's three circuits read 3.4 to 7.1 s over ten
# seeds. Resolution is gated by table1_sweep, over 234 networks a grid.
SESSION = ("info", "cold", "warm", "secure")
GATED = ("info", "cold", "warm")
# serve_open: the latency limit of serve_slo_share and serve_max_rps.
SERVE_SLO_MS = 20.0
# Seed that later performance claims must also hold on; never tuned on.
HELD_OUT_SEED = 9173
PINS = os.path.join(HERE, "pins.json")

WORKLOADS = ("cli_mbist", "table1_sweep", "serve_open")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    """The benchmark cannot produce a result (build, guard, harness)."""


# --------------------------------------------------------------------------
# build, provenance and the optimisation guard

def build():
    for d in ("src", "tools", "bench"):
        if not os.path.isdir(os.path.join(ROOT, d)):
            raise BenchError(f"no {d}/ next to perfbench/: not a checkout "
                             "of the repository")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                  "--target", "perfbench_harness", "rsnsec"])
    for cmd in steps:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if p.returncode != 0:
            log(p.stdout[-4000:] + p.stderr[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))


def cache_value(key):
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def source_digest():
    """SHA-256 over the sources the build used (the checkout has no git)."""
    h = hashlib.sha256()
    for d in ("src", "tools", "bench", "perfbench"):
        for path in sorted(glob.glob(os.path.join(ROOT, d, "**", "*"),
                                     recursive=True)):
            if os.path.isfile(path):
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def provenance(seed):
    info = json.loads(run_harness(["build-info"]))
    build_type = cache_value("CMAKE_BUILD_TYPE")
    if not info["optimized"] or build_type not in ("Release",
                                                   "RelWithDebInfo"):
        raise BenchError(f"refusing to time an unoptimised build "
                         f"(CMAKE_BUILD_TYPE={build_type!r})")
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    return {"nproc": os.cpu_count(), "build_type": build_type,
            "compiler": info["compiler"], "source_sha256": source_digest(),
            "git": git.stdout.strip() if git.returncode == 0 else "none",
            "seed": seed}


# --------------------------------------------------------------------------
# processes

def run_harness(args, with_rss=False):
    """Runs the harness; returns its stdout (and its peak RSS in MB)."""
    err_path = os.path.join(ROOT, ".bench_build", "harness.err")
    _, code, rss, out = timed([HARNESS] + args, stderr_path=err_path)
    if code != 0:
        with open(err_path) as f:
            raise BenchError(f"harness {args[0]} failed: {f.read().strip()}")
    return (out.decode(), rss) if with_rss else out.decode()


def timed(cmd, stderr_path=os.devnull):
    """Runs `cmd`; returns (seconds, exit code, peak RSS in MB, stdout).

    The child is reaped with wait4 so its own peak RSS is known."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=err)
        data = p.stdout.read()
        _, status, usage = os.wait4(p.pid, 0)
        seconds = time.perf_counter() - t0
    p.stdout.close()
    p.returncode = os.waitstatus_to_exitcode(status)
    return seconds, p.returncode, usage.ru_maxrss / 1024.0, data


def load_pins():
    """Output digests of the seed program for the seeds the benchmark was
    written on, keyed like a run's `outputs` line."""
    with open(PINS) as f:
        return json.load(f)


class Tally:
    """Attempted operations and failures, with the reason of each, and the
    digests of the outputs checked against `pins`."""

    def __init__(self, pins=None):
        self.attempted = 0
        self.failures = []
        self.pins = pins or {}
        self.outputs = {}

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def output(self, key, digest):
        """Records an output digest; where it is pinned, it must match."""
        self.outputs[key] = digest
        if key in self.pins:
            self.check(self.pins[key] == digest, f"{key} differs from its pin")


# --------------------------------------------------------------------------
# cli_mbist

def design_paths(d):
    return [os.path.join(d, n) for n in ("design.rsn", "design.v",
                                         "design.spec")]


def gen_mbist(design_seed, d):
    """Generates the design into `d`; returns the set-up times the harness
    measured (one per generation) and the digest of the files."""
    shutil.rmtree(d, ignore_errors=True)
    out = json.loads(run_harness(["gen-mbist", "--seed", str(design_seed),
                                  "--out", d]))
    return out["setup_s"], stats.file_digest(design_paths(d))


def cli_session(d, store, tally, design_seed):
    """info, cold analyze, warm analyze and secure as separate processes."""
    rsn, v, spec = design_paths(d)
    shutil.rmtree(store, ignore_errors=True)
    files = ["--rsn", rsn, "--verilog", v, "--spec", spec]
    analyze = [RSNSEC, "analyze", "--json", "--jobs", str(JOBS)] + files + [
        "--store", store]
    secured = os.path.join(d, "secured.rsn")
    info = timed([RSNSEC, "info", "--rsn", rsn])
    cold = timed(analyze)
    warm = timed(analyze)
    secure = timed([RSNSEC, "secure", "--jobs", str(JOBS)] + files
                   + ["--store", store, "--out", secured])
    tally.check(info[1] == 0, f"info exit {info[1]}")
    report = json.loads(cold[3] or b"{}")
    violations = (report.get("insecure_logic") or report.get("intra_segment")
                  or report.get("hybrid_violating_pairs", 0) > 0)
    tally.check(cold[1] == (2 if violations else 0),
                f"cold analyze exit {cold[1]}")
    tally.check(warm[1] == cold[1] and warm[3] == cold[3],
                "warm analyze output differs from cold")
    tally.output(f"analyze-{design_seed}",
                 stats.text_digest(cold[3].decode()))
    tally.check(secure[1] == 0, f"secure exit {secure[1]}")
    # The SAT-free certifier over-approximates; a network it cannot
    # certify must then be clean under a fresh exact analysis. Whether it
    # certified is pinned, so a secured network it no longer certifies
    # fails the check even when the exact analysis finds it clean.
    sec_files = ["--rsn", secured, "--verilog", v, "--spec", spec]
    cert = timed([RSNSEC, "certify"] + sec_files)
    tally.output(f"certify-{design_seed}", f"exit {cert[1]}")
    if cert[1] == 2:
        cert = timed([RSNSEC, "analyze", "--jobs", str(JOBS)] + sec_files)
    tally.check(cert[1] == 0, f"secured network of design {design_seed} "
                              f"fails the check (exit {cert[1]})")
    return {"info": info, "cold": cold, "warm": warm, "secure": secure,
            "certify": cert}


def run_cli_mbist(seed, seconds, trace, work):
    tally = Tally(load_pins())
    d = os.path.join(work, "design")
    store = os.path.join(work, "store")
    if trace:
        _, digest = gen_mbist(seed * 1000, d)
        return trace_cli_mbist(seed, work, d, store, tally,
                               {f"design-{seed * 1000}": digest})
    # Session k of the run is on design 1000 seed + k: secure's time
    # depends on the circuit, so a run covers several. How many follows
    # from --seconds only.
    setup, sessions, inputs = [], [], {}
    for k in range(max(1, int(seconds // SESSION_S))):
        design_seed = seed * 1000 + k
        setup_s, inputs[f"design-{design_seed}"] = gen_mbist(design_seed, d)
        setup += setup_s
        sessions.append(cli_session(d, store, tally, design_seed))
    col = {c: [s[c][0] for s in sessions] for c in SESSION}
    session_s = [sum(s[c][0] for c in SESSION) for s in sessions]
    rss = [s["cold"][2] for s in sessions]
    table = {
        "setup_s": (setup, "s"),
        "info_s": (col["info"], "s"),
        "analyze_cold_s": (col["cold"], "s"),
        "analyze_warm_s": (col["warm"], "s"),
        "secure_warm_s": (col["secure"], "s"),
        "session_s": (session_s, "s"),
        "analyze_peak_rss_mb": (rss, "MB"),
    }
    e2e = {
        "setup_s": statistics.median(setup),
        "p50_ms": 1e3 * stats.median_session({c: col[c] for c in GATED}),
        "peak_rss_mb": statistics.median(rss),
    }
    return {"table": table, "e2e": e2e, "tally": tally, "inputs": inputs}


def replica_differences(cli, rwork, d):
    """Outputs of the in-process replica (in `rwork`) that are not
    byte-identical to those of the CLI session `cli` on the design `d`."""
    with open(os.path.join(d, "secured.rsn"), "rb") as f:
        expected = {"info.txt": cli["info"][3], "analyze.json": cli["cold"][3],
                    "secure.txt": cli["secure"][3], "secured.rsn": f.read()}
    out = []
    for name, data in expected.items():
        with open(os.path.join(rwork, name), "rb") as f:
            if f.read() != data:
                out.append(name)
    return out


def trace_cli_mbist(seed, work, d, store, tally, inputs):
    cli = cli_session(d, store, tally, seed * 1000)
    rwork = os.path.join(work, "replica")
    trace_path = os.path.join(TRACES, f"cli_mbist-{seed}.trace.json")
    rep = json.loads(run_harness(
        ["replica", "--dir", d, "--work", rwork, "--jobs", str(JOBS),
         "--trace-out", trace_path]))
    for name in replica_differences(cli, rwork, d):
        tally.check(False, f"replica {name} differs from the CLI output")
    tally.check(rep["mismatches"] == 0, "replica rounds disagree")
    tally.check(rep["violating"] == 0, "replica secured network fails the "
                                       "check")
    layers = cli_layers(trace_path, rep, cli, design_paths(d)[1])
    return {"table": {}, "layers": layers, "tally": tally, "inputs": inputs,
            "trace": trace_path}


# --------------------------------------------------------------------------
# per-layer metrics from a Chrome trace

def load_trace(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    counters = {e["name"]: e["args"]["value"] for e in events
                if e["ph"] == "C"}
    return spans, counters


def group_by_root(spans, prefix):
    """{root span: {descendant name: [durations in ms]}} for the spans
    whose name starts with `prefix`, in start order."""
    by_id = {e["args"]["id"]: e for e in spans}

    def root_of(e):
        while e["args"]["parent"] in by_id:
            parent = by_id[e["args"]["parent"]]
            if parent["name"].startswith(prefix):
                return parent
            e = parent
        return None

    roots = sorted((e for e in spans if e["name"].startswith(prefix)),
                   key=lambda e: e["ts"])
    out = {id(r): {} for r in roots}
    for e in spans:
        r = root_of(e)
        if r is not None:
            out[id(r)].setdefault(e["name"], []).append(e["dur"] / 1e3)
    return [(r, out[id(r)]) for r in roots]


def med(xs):
    return statistics.median(xs) if xs else 0.0


def unattributed(spans, roots):
    """Median unattributed share per root and the share over all roots."""
    kids = {}
    for e in spans:
        kids.setdefault(e["args"]["parent"], []).append(e["dur"])
    shares, total, free = [], 0.0, 0.0
    for r in roots:
        direct = kids.get(r["args"]["id"], [])
        shares.append(stats.unattributed_share(r["dur"], direct))
        total += r["dur"]
        free += max(0.0, r["dur"] - sum(direct))
    return med(shares), (free / total if total else 0.0)


def cli_layers(trace_path, rep, cli, verilog_path):
    spans, counters = load_trace(trace_path)
    rounds = [r for r in rep["rounds"] if not r["warmup"]]
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    n = len(traced)
    grouped = group_by_root(spans, "cli.")
    analyze = [g for r, g in grouped if r["name"] == "cli.analyze"]
    cold, warm = analyze[0::2], analyze[1::2]
    info = [g for r, g in grouped if r["name"] == "cli.info"]
    secure = [g for r, g in grouped if r["name"] == "cli.secure"]
    loads = analyze + secure

    def each(groups, name):
        return [sum(g.get(name, [0.0])) for g in groups]

    parse_ms = med(each(loads, "netlist.parse"))
    mb = os.path.getsize(verilog_path) / 1e6
    dep = traced[0]["dep"] if traced else {}
    resolved = dep.get("sim_resolved", 0) + dep.get("ternary_resolved", 0)
    candidates = counters.get("resolve.candidates_evaluated", 0) / max(n, 1)
    changes = traced[0]["changes"] if traced else 0
    run_cold = med(each(cold, "store.run_with_store"))
    dep_run = med(each(cold, "dep.analysis"))

    def session(r):
        return (r["info_s"] + r["analyze_cold_s"] + r["analyze_warm_s"]
                + r["secure_s"])

    out = {
        "netlist.parse_ms": parse_ms,
        "netlist.parse_mb_per_s": mb / (parse_ms / 1e3) if parse_ms else 0.0,
        "rsn.read_ms": med([a + b for a, b in zip(each(loads, "rsn.read"),
                                                   each(loads, "rsn.attach"))]),
        "rsn.access_ms": med(each(info, "rsn.access")),
        "rsn.accessible_registers": float(
            cli["info"][3].decode().split("accessible registers: ")[1]
            .split(" ")[0]),
        "security.spec_read_ms": med(each(loads, "security.spec_read")),
        "security.hybrid_build_ms": med(each(warm, "security.hybrid_build")),
        "security.check_static_ms": med(each(warm, "security.check_static")),
        "security.count_pairs_ms": med(each(warm, "security.count_pairs")),
        "security.count_registers_ms": med(each(warm,
                                                "security.count_registers")),
        "security.pure_ms": 1e3 * med([r["t_pure"] for r in traced]),
        "security.hybrid_ms": 1e3 * med([r["t_hybrid"] for r in traced]),
        "resolve.candidates_evaluated": candidates,
        "resolve.delta_queries": counters.get("resolve.delta_queries", 0) / max(
            n, 1),
        "security.changes": float(changes),
        "security.useful_candidate_share": changes / candidates
        if candidates else 0.0,
        "dep.run_ms": dep_run,
        "dep.one_cycle_ms": med(each(cold, "dep.one_cycle")),
        "dep.bridge_ms": med(each(cold, "dep.bridge")),
        "dep.closure_ms": med(each(cold, "dep.closure")),
        "dep.sat_calls": float(dep.get("sat_calls", 0)),
        "dep.sim_resolved": float(dep.get("sim_resolved", 0)),
        "dep.ternary_resolved": float(dep.get("ternary_resolved", 0)),
        "dep.cone_cache_hits": float(dep.get("cone_cache_hits", 0)),
        "dep.solver_conflicts": float(dep.get("solver_conflicts", 0)),
        "dep.sat_avoided_share": resolved / (resolved + dep["sat_calls"])
        if resolved + dep.get("sat_calls", 0) else 0.0,
        "dep.matrix_bytes": float(dep.get("matrix_bytes", 0)),
        "store.key_ms": med(each(analyze, "store.key")),
        "store.load_ms": med(each(warm, "store.run_with_store")),
        "store.publish_ms": max(0.0, run_cold - dep_run),
        "store.hits": counters.get("store.hits", 0) / max(n, 1),
        "store.misses": counters.get("store.misses", 0) / max(n, 1),
        "store.bytes": float(traced[0]["store_bytes"]) if traced else 0.0,
        "core.report_ms": med(each(analyze, "core.report")),
        "flow.certify_ms": med([s["dur"] / 1e3 for s in spans
                                if s["name"] == "flow.certify"]),
        "obs.trace_overhead_share":
            med([session(r) for r in traced]) / med([session(r)
                                                     for r in plain]) - 1.0,
    }
    for cmd, key, cli_key in (("info", "info_s", "info"),
                              ("analyze", "analyze_warm_s", "warm"),
                              ("secure", "secure_s", "secure")):
        out[f"core.process_overhead_ms.{cmd}"] = 1e3 * (
            cli[cli_key][0] - med([r[key] for r in plain]))
        roots = [r for r, _ in grouped if r["name"] == f"cli.{cmd}"]
        out[f"core.unattributed_share.{cmd}"] = unattributed(spans, roots)[0]
    out["core.unattributed_share"] = unattributed(
        spans, [r for r, _ in grouped])[1]
    return out


# --------------------------------------------------------------------------
# table1_sweep

def run_table1_sweep(seed, seconds, trace, work):
    tally = Tally(load_pins())
    trace_path = os.path.join(TRACES, f"table1_sweep-{seed}.trace.json")
    args = ["sweep", "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        args += ["--traced", "1", "--trace-out", trace_path]
    out, rss = run_harness(args, with_rss=True)
    res = json.loads(out)
    families = res["families"]
    inputs = {"grid_base_seeds": sorted({g["base_seed"]
                                         for g in res["grids"]})}
    for g in res["grids"]:
        tally.attempted += g["runs"] - 1  # one check below per grid
        tally.check(g["violating"] == 0,
                    f"grid {g['base_seed']}: {g['violating']} secured "
                    "networks fail the check")
        counts = dict(zip(families, g["changes"]))
        tally.output(f"grid-{g['base_seed']}-changes",
                     stats.text_digest(json.dumps(counts, sort_keys=True)))
        # Secured networks the SAT-free certifier could not certify (the
        # exact re-analysis found them clean); more of them is a failure.
        tally.output(f"grid-{g['base_seed']}-uncertified",
                     str(g["uncertified"]))
    plain = [g for g in res["grids"] if not g["traced"]]
    wall = [g["wall_s"] for g in plain]
    setup = [s for g in plain for s in g["setup_s"]]
    if trace:
        layers = sweep_layers(trace_path, res, families)
        return {"table": {}, "layers": layers, "tally": tally,
                "inputs": inputs, "trace": trace_path}
    table = {"setup_s": (setup, "s"), "sweep_s": (wall, "s"),
             "uncertified_networks": ([g["uncertified"] for g in plain],
                                      "count")}
    for i, fam in enumerate(families):
        table[f"{fam}_s"] = ([g["family_s"][i] for g in plain], "s")
    e2e = {
        "setup_s": statistics.median(setup),
        "p50_ms": 1e3 * statistics.median(wall),
        "peak_rss_mb": rss,
    }
    table["harness_peak_rss_mb"] = ([rss], "MB")
    return {"table": table, "e2e": e2e, "tally": tally, "inputs": inputs}


def sweep_layers(trace_path, res, families):
    spans, counters = load_trace(trace_path)
    plain = [g for g in res["grids"] if not g["traced"]]
    traced = [g for g in res["grids"] if g["traced"]]
    n = len(traced)

    def m(key, scale=1.0):
        return scale * med([g[key] for g in traced])

    candidates = counters.get("resolve.candidates_evaluated", 0) / n
    changes = med([sum(g["changes"]) for g in traced])
    resolved = m("sim_resolved") + m("ternary_resolved")
    fam_spans = [s for s in spans if s["name"].startswith("table1.")]
    fam_self = stats.self_times(spans)
    out = {
        "security.pure_ms": m("t_pure", 1e3),
        "security.hybrid_ms": m("t_hybrid", 1e3),
        "resolve.candidates_evaluated": candidates,
        "resolve.delta_queries": counters.get("resolve.delta_queries", 0) / n,
        "security.changes": changes,
        "security.useful_candidate_share": changes / candidates
        if candidates else 0.0,
        "dep.run_ms": m("t_dep", 1e3),
        "dep.one_cycle_ms": m("t_one_cycle", 1e3),
        "dep.bridge_ms": m("t_bridge", 1e3),
        "dep.closure_ms": m("t_closure", 1e3),
        "dep.sat_calls": m("sat_calls"),
        "dep.sim_resolved": m("sim_resolved"),
        "dep.ternary_resolved": m("ternary_resolved"),
        "dep.cone_cache_hits": m("cone_cache_hits"),
        "dep.solver_conflicts": m("solver_conflicts"),
        "dep.sat_avoided_share": resolved / (resolved + m("sat_calls"))
        if resolved + m("sat_calls") else 0.0,
        "dep.matrix_bytes": m("matrix_bytes"),
        "flow.certify_ms": m("certify_s", 1e3),
        "util.sweep_parallel_efficiency": med(
            [g["run_s"] / (g["wall_s"] * res["jobs"]) for g in plain]),
        "obs.trace_overhead_share":
            med([g["wall_s"] for g in traced])
            / med([g["wall_s"] for g in plain]) - 1.0,
        "core.unattributed_share":
            sum(fam_self.get(f"table1.{f}", 0.0) for f in families)
            / sum(s["dur"] for s in fam_spans),
    }
    for i, fam in enumerate(families):
        out[f"table1.{fam}_ms"] = 1e3 * med([g["family_s"][i]
                                             for g in plain])
    return out


# --------------------------------------------------------------------------
# serve_open

def phase_stats(ph, tally=None, busy_ok=False):
    """Latency samples and failure counts of one open-loop phase.

    Latency runs from the time a request was due, so a stall is charged to
    every request queued behind it. `analyze` holds the replies served
    from the store, `analyze_cold` the first analyze of each design. With
    `busy_ok` (a max-rate ladder step) an SRV005 busy reply is the step's
    overload signal, not a failed operation.
    """
    lat = {k: [] for k in ("analyze", "analyze_cold", "ping", "stats")}
    lag = stats.generator_lag(ph["due"], ph["send"])
    failed = busy = 0
    overhead, queue = [], []
    for i, kind in enumerate(ph["kind"]):
        flags = int(ph["flags"][i])
        ok = flags & 1 and not flags & 4 and ph["reply"][i] >= 0
        busy += 1 if flags & 2 else 0
        if tally is not None:
            tally.check(ok or (busy_ok and flags == 2),
                        f"request {i} ({('analyze', 'ping', 'stats')[kind]})"
                        f" failed with flags {flags}")
        if not ok:
            failed += 1
            continue
        name = ("analyze" if flags & 8 else "analyze_cold", "ping",
                "stats")[kind]
        lat[name].append(ph["reply"][i] - ph["due"][i])
        if kind == 0:
            overhead.append(ph["reply"][i] - ph["send"][i] - ph["exec"][i]
                            - ph["queue"][i])
            queue.append(ph["queue"][i])
    analyzed = len(lat["analyze"]) + len(lat["analyze_cold"])
    return dict(lat, lag=lag, failed=failed, busy=busy,
                hit_share=len(lat["analyze"]) / analyzed if analyzed else 0.0,
                overhead=overhead, queue=queue)


def step_ok(ph):
    """A ladder step meets the limit: tail within the SLO, nothing failed,
    and no growing backlog (the last third of the step is not slower than
    the first third by more than the limit)."""
    s = phase_stats(ph)
    if s["failed"] or len(s["analyze"]) < 3:
        return False
    if stats.tail(s["analyze"])[1] * 1e3 > SERVE_SLO_MS:
        return False
    third = len(ph["due"]) // 3
    first = [r - d for d, r, k in zip(ph["due"][:third], ph["reply"][:third],
                                      ph["kind"][:third]) if k == 0]
    last = [r - d for d, r, k in zip(ph["due"][-third:], ph["reply"][-third:],
                                     ph["kind"][-third:]) if k == 0]
    return not (first and last and
                med(last) - med(first) > SERVE_SLO_MS / 1e3)


def max_rate(ladder):
    """Highest ladder rate whose step and every slower step meet the limit
    (0 when the slowest does not): a single lucky step above a failed one
    does not count."""
    best = 0.0
    for ph in sorted(ladder, key=lambda ph: ph["rate"]):
        if not step_ok(ph):
            break
        best = ph["rate"]
    return best


def run_serve_open(seed, seconds, trace, work):
    tally = Tally()
    trace_path = os.path.join(TRACES, f"serve_open-{seed}.trace.json")
    args = ["serve", "--seed", str(seed), "--seconds", str(seconds),
            "--work", os.path.relpath(work, ROOT)]
    if trace:
        args += ["--traced", "1", "--trace-out", trace_path]
    out, rss = run_harness(args, with_rss=True)
    res = json.loads(out)
    main = phase_stats(res["main"], tally)
    for ph in res["ladder"]:
        phase_stats(ph, tally, busy_ok=True)
    max_rps = max_rate(res["ladder"])
    inputs = {f"designs-{res['designs']}-fnv": res["inputs_fnv"]}
    if trace:
        layers = serve_layers(trace_path, res, main)
        return {"table": {}, "layers": layers, "tally": tally,
                "inputs": inputs, "trace": trace_path}
    ms = [x * 1e3 for x in main["analyze"]]
    table = {
        "setup_s": (res["setup_s"], "s"),
        "serve_analyze_ms": (ms, "ms"),
        "serve_cold_analyze_ms": ([x * 1e3 for x in main["analyze_cold"]],
                                  "ms"),
        "serve_ping_ms": ([x * 1e3 for x in main["ping"]], "ms"),
        "serve_gen_lag_ms": ([x * 1e3 for x in main["lag"]], "ms"),
    }
    answered = (main["analyze"] + main["analyze_cold"] + main["ping"]
                + main["stats"])
    scalars = {
        "serve_slo_share": (stats.slo_share(answered, main["failed"],
                                            SERVE_SLO_MS / 1e3), "ratio"),
        "serve_max_rps": (max_rps, "req/s"),
        "serve_rate": (res["main"]["rate"], "req/s"),
    }
    e2e = {
        "setup_s": statistics.median(res["setup_s"]),
        "p50_ms": statistics.median(ms),
        "peak_rss_mb": rss,
    }
    return {"table": table, "scalars": scalars, "e2e": e2e, "tally": tally,
            "inputs": inputs}


def serve_layers(trace_path, res, main):
    spans, counters = load_trace(trace_path)
    execute = [s for s in spans if s["name"] == "serve.execute"]
    exec_self = stats.self_times(execute + [
        s for s in spans if s["args"]["parent"] in
        {e["args"]["id"] for e in execute}]).get("serve.execute", 0.0)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s["dur"] / 1e3)
    parse = by_name.get("netlist.parse", [])
    return {
        "netlist.parse_ms": med(parse),
        "netlist.parse_mb_per_s": res["verilog_bytes"] / 1e3 * len(parse)
        / res["designs"] / sum(parse) if parse else 0.0,
        "rsn.read_ms": med([a + b for a, b in zip(by_name.get("rsn.read", []),
                                                   by_name.get("rsn.attach",
                                                               []))]),
        "security.spec_read_ms": med(by_name.get("security.spec_read", [])),
        "store.key_ms": med(by_name.get("store.key", [])),
        "store.load_ms": med(by_name.get("store.load", [])),
        "store.publish_ms": med(by_name.get("store.publish", [])),
        "store.hits": float(counters.get("store.hits", 0)),
        "store.misses": float(counters.get("store.misses", 0)),
        "dep.run_ms": med(by_name.get("dep.analysis", [])),
        "dep.one_cycle_ms": med(by_name.get("dep.one_cycle", [])),
        "dep.bridge_ms": med(by_name.get("dep.bridge", [])),
        "dep.closure_ms": med(by_name.get("dep.closure", [])),
        "serve.execute_ms": 1e3 * med(res["execute_traced_s"]),
        "serve.overhead_ms": 1e3 * med(main["overhead"]),
        "serve.queue_wait_ms": 1e3 * med(main["queue"]),
        "serve.cache_hit_share": main["hit_share"],
        "serve.busy_replies": float(main["busy"]),
        "serve.gen_lag_ms": 1e3 * stats.tail(main["lag"])[1],
        "obs.trace_overhead_share": med(res["execute_traced_s"])
        / med(res["execute_plain_s"]) - 1.0,
        "core.unattributed_share":
            exec_self / sum(s["dur"] for s in execute) if execute else 0.0,
    }


# --------------------------------------------------------------------------
# reporting

RUNNERS = {"cli_mbist": run_cli_mbist, "table1_sweep": run_table1_sweep,
           "serve_open": run_serve_open}


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def print_table(workload, res):
    print(f"{'metric':<28} {'unit':<6} {'median':>12} {'tail':>12} "
          f"{'pct':>6} {'n':>6}")
    for name, (values, unit) in res["table"].items():
        if not values:
            print(f"{name:<28} {unit:<6} {'-':>12} {'-':>12} {'-':>6} 0")
            continue
        s = stats.summary(values)
        pct = f"{s['tail_pct']:.1f}" if s["tail_pct"] is not None else "max"
        print(f"{name:<28} {unit:<6} {s['median']:>12.4f} {s['tail']:>12.4f}"
              f" {pct:>6} {s['n']:>6}")
    for name, (value, unit) in res.get("scalars", {}).items():
        print(f"{name:<28} {unit:<6} {value:>12.4f}")
    tally = res["tally"]
    print(f"{'failed_share':<28} {'ratio':<6} "
          f"{len(tally.failures) / max(tally.attempted, 1):>12.4f} "
          f"{'':>12} {'':>6} {tally.attempted:>6}")


def run_workload(workload, seed, seconds, trace):
    work = os.path.join(ROOT, ".bench_build", "work",
                        f"{workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(TRACES, exist_ok=True)
    try:
        return RUNNERS[workload](seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def metrics_of(workload, res, trace, spec):
    out = {}
    if trace:
        for m in spec["per_layer"]:
            out[m["name"]] = {"value": float(res["layers"].get(m["name"],
                                                               0.0)),
                              "unit": m["unit"]}
    else:
        for m in spec["end_to_end"]:
            out[m["name"]] = {"value": float(res["e2e"][m["name"]]),
                              "unit": m["unit"]}
    return out


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)
    try:
        build()
        if args.selftest:
            import unittest
            suite = unittest.defaultTestLoader.discover(HERE, "test_*.py")
            ok = unittest.TextTestRunner(verbosity=2).run(suite)
            return 0 if ok.wasSuccessful() else 1
        if args.workload is None:
            ap.error("--workload is required")
        spec = benchmark_spec()
        prov = provenance(args.seed)
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        metrics, attempted, failures = {}, 0, []
        for w in workloads:
            res = run_workload(w, args.seed, args.seconds, args.trace)
            print(f"== {w} seed={args.seed} seconds={args.seconds} "
                  f"trace={args.trace}")
            print("provenance: " + json.dumps(prov, sort_keys=True))
            print("inputs: " + json.dumps(res["inputs"], sort_keys=True))
            print("outputs: " + json.dumps(res["tally"].outputs,
                                           sort_keys=True))
            if "trace" in res:
                print(f"trace: {os.path.relpath(res['trace'], ROOT)}")
            print_table(w, res)
            for f in res["tally"].failures:
                print(f"FAILED: {f}")
            m = metrics_of(w, res, args.trace, spec)
            for name, v in m.items():
                print(f"  {name} = {v['value']:.6g} {v['unit']}")
            prefix = f"{w}." if len(workloads) > 1 else ""
            metrics.update({prefix + k: v for k, v in m.items()})
            attempted += res["tally"].attempted
            failures += res["tally"].failures
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        log(f"perfbench: {e}")
        return 1
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
