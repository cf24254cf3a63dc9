"""Statistics of the end-to-end benchmark (pure functions, no I/O).

Every timing is reported as a median plus the highest percentile that has
at least ten samples beyond it, together with the sample count.
"""

import hashlib
import statistics

TAIL_MIN_BEYOND = 10


def tail(values):
    """Highest percentile with at least TAIL_MIN_BEYOND samples beyond it.

    Returns (percentile, value, n). With n sorted samples the value at
    0-based rank n - 1 - TAIL_MIN_BEYOND has exactly TAIL_MIN_BEYOND
    samples above it; it sits at percentile 100 * (n - TAIL_MIN_BEYOND) / n.
    With too few samples for that, the percentile is None and the value is
    the maximum, so a tail is always reported but never claimed.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of no samples")
    if n <= TAIL_MIN_BEYOND:
        return None, xs[-1], n
    return 100.0 * (n - TAIL_MIN_BEYOND) / n, xs[n - 1 - TAIL_MIN_BEYOND], n


def summary(values):
    """Median, tail and count of a list of timings."""
    pct, tail_value, n = tail(values)
    return {"median": statistics.median(values), "tail": tail_value,
            "tail_pct": pct, "n": n}


def median_session(stages):
    """Median session time from per-stage timings.

    `stages` maps each stage of a session to its timings over the run's
    sessions. The result is the sum of the stages' medians, so a slow
    spell of the host that hits one process is dropped with that sample,
    where the median of whole sessions keeps it whenever it lands in the
    middle session.
    """
    if not stages or not all(stages.values()):
        raise ValueError("median_session of no sessions")
    return sum(statistics.median(v) for v in stages.values())


def generator_lag(due, send):
    """How late the load generator sent each request (send - due)."""
    return [max(0.0, s - d) for d, s in zip(due, send) if s >= 0]


def slo_share(latencies_s, failed, limit_s):
    """Share of attempted requests answered within `limit_s`.

    `latencies_s` holds the successful requests; each of the `failed`
    requests (errors, busy replies, wrong results, no reply) is a miss.
    """
    attempted = len(latencies_s) + failed
    if attempted == 0:
        raise ValueError("slo_share of no requests")
    return sum(1 for x in latencies_s if x <= limit_s) / attempted


def self_times(events):
    """Self time per span name, in microseconds.

    `events` are Chrome-trace complete events (dicts with name, ts, dur and
    args.id / args.parent). A span's self time is its duration minus the
    part of its interval covered by its direct children (children running
    in parallel on other threads are merged, not summed).
    """
    children = {}
    for e in events:
        children.setdefault(e["args"]["parent"], []).append(e)
    out = {}
    for e in events:
        start, end = e["ts"], e["ts"] + e["dur"]
        covered = 0.0
        cursor = start
        kids = sorted(children.get(e["args"]["id"], []), key=lambda k: k["ts"])
        for k in kids:
            lo, hi = max(k["ts"], cursor), min(k["ts"] + k["dur"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[e["name"]] = out.get(e["name"], 0.0) + (e["dur"] - covered)
    return out


def unattributed_share(root_us, child_us):
    """Share of a root span that no direct child span covers.

    `child_us` are the durations of the root's direct children, which run
    one after another on the root's thread.
    """
    if root_us <= 0:
        raise ValueError("root span without duration")
    return max(0.0, root_us - sum(child_us)) / root_us


def file_digest(paths):
    """SHA-256 over the contents of `paths`, in order."""
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def text_digest(text):
    return hashlib.sha256(text.encode()).hexdigest()
