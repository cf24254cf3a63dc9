"""Self-tests of the benchmark: its statistics, its input generation and
the fidelity of the traced in-process replica.

    python3 perfbench/run.py --selftest
"""

import json
import os
import shutil
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402
import stats  # noqa: E402

WORK = os.path.join(run.ROOT, ".bench_build", "selftest")


class PercentileRule(unittest.TestCase):
    def test_ten_samples_beyond_the_tail(self):
        pct, value, n = stats.tail(range(1, 101))
        self.assertEqual((pct, value, n), (90.0, 90, 100))

    def test_tail_moves_up_with_more_samples(self):
        pct, value, n = stats.tail(range(1000))
        self.assertEqual((pct, value, n), (99.0, 989, 1000))
        self.assertEqual(sum(1 for x in range(1000) if x > value), 10)

    def test_too_few_samples_report_max_without_percentile(self):
        self.assertEqual(stats.tail([3, 1, 2]), (None, 3, 3))
        self.assertEqual(stats.tail(range(10)), (None, 9, 10))
        pct, value, _ = stats.tail(range(11))
        self.assertEqual(value, 0)
        self.assertAlmostEqual(pct, 100 / 11)

    def test_summary_states_the_sample_count(self):
        s = stats.summary([5.0, 1.0, 3.0])
        self.assertEqual((s["median"], s["n"], s["tail_pct"]), (3.0, 3, None))


class MedianSession(unittest.TestCase):
    def test_a_slow_process_drops_out_with_its_sample(self):
        # Session 1's `info` and session 2's `secure` hit slow spells: each
        # session is slow, but every stage's median is a normal sample.
        stages = {"info": [1.0, 9.0, 1.2], "secure": [4.0, 4.4, 20.0]}
        self.assertAlmostEqual(stats.median_session(stages), 1.2 + 4.4)
        sessions = [sum(s) for s in zip(*stages.values())]
        self.assertGreater(sorted(sessions)[1], 13.0)

    def test_no_sessions_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.median_session({"info": []})


class OpenLoop(unittest.TestCase):
    def test_latency_is_timed_from_the_due_time(self):
        # The generator stalled: pings due at 0.1 s and 0.2 s left at
        # 0.5 s. Their latency includes the stall; the lag reports it.
        ph = {"kind": [1, 1, 1], "due": [0.0, 0.1, 0.2],
              "send": [0.0, 0.5, 0.5], "reply": [0.05, 0.55, 0.6],
              "exec": [0, 0, 0], "queue": [0, 0, 0], "flags": [1, 1, 1]}
        s = run.phase_stats(ph)
        self.assertEqual([round(x, 9) for x in s["ping"]], [0.05, 0.45, 0.4])
        self.assertEqual([round(x, 9) for x in s["lag"]], [0.0, 0.4, 0.3])

    def test_busy_wrong_and_unanswered_requests_fail(self):
        ph = {"kind": [0, 0, 0, 0, 1], "due": [0.0, 0.1, 0.2, 0.3, 0.4],
              "send": [0.0, 0.1, 0.2, 0.3, 0.4],
              "reply": [0.01, 0.12, 0.25, 0.33, -1],
              "exec": [0.005, 0, 0.01, 0.02, 0],
              "queue": [0.001, 0, 0.002, 0.001, 0],
              # ok + store hit, busy, ok but wrong result, ok cold, no reply
              "flags": [9, 2, 5, 1, 0]}
        s = run.phase_stats(ph)
        self.assertEqual((s["failed"], s["busy"]), (3, 1))
        self.assertEqual((len(s["analyze"]), len(s["analyze_cold"])), (1, 1))
        self.assertEqual(s["hit_share"], 0.5)
        self.assertEqual(round(stats.slo_share(
            s["analyze"] + s["analyze_cold"], s["failed"], 0.02), 9), 0.2)


class MaxRate(unittest.TestCase):
    @staticmethod
    def step(rate, latency):
        n = 30
        return {"rate": rate, "kind": [0] * n, "due": [0.0] * n,
                "send": [0.0] * n, "reply": [latency] * n, "exec": [0] * n,
                "queue": [0] * n, "flags": [9] * n}

    def test_stops_at_the_first_step_over_the_limit(self):
        ladder = [self.step(300, 0.005), self.step(100, 0.005),
                  self.step(200, 0.05)]
        self.assertEqual(run.max_rate(ladder), 100)

    def test_zero_when_the_slowest_step_fails(self):
        self.assertEqual(run.max_rate([self.step(100, 0.05)]), 0.0)


class SloShare(unittest.TestCase):
    def test_failed_and_busy_requests_are_misses(self):
        self.assertEqual(stats.slo_share([0.01, 0.03], 2, 0.02), 0.25)

    def test_all_failed_is_zero(self):
        self.assertEqual(stats.slo_share([], 5, 0.02), 0.0)

    def test_no_requests_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.slo_share([], 0, 0.02)


def span(name, ident, parent, ts, dur):
    return {"name": name, "ts": ts, "dur": dur,
            "args": {"id": ident, "parent": parent}}


class Attribution(unittest.TestCase):
    def test_unattributed_share(self):
        self.assertAlmostEqual(stats.unattributed_share(100, [30, 50]), 0.2)
        self.assertEqual(stats.unattributed_share(100, [60, 50]), 0.0)
        with self.assertRaises(ValueError):
            stats.unattributed_share(0, [])

    def test_self_time_merges_parallel_children(self):
        events = [span("root", 1, 0, 0, 100), span("a", 2, 1, 10, 30),
                  span("b", 3, 1, 30, 30), span("c", 4, 2, 10, 5)]
        self.assertEqual(stats.self_times(events),
                         {"root": 50, "a": 25, "b": 30, "c": 5})

    def test_unattributed_over_roots(self):
        events = [span("cli.info", 1, 0, 0, 100), span("rsn.read", 2, 1, 0, 90),
                  span("cli.analyze", 3, 0, 100, 200),
                  span("netlist.parse", 4, 3, 100, 150)]
        per_root, overall = run.unattributed(events, [events[0], events[2]])
        self.assertAlmostEqual(per_root, (0.1 + 0.25) / 2)
        self.assertAlmostEqual(overall, 60 / 300)


def setUpModule():
    run.build()
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)


def tearDownModule():
    shutil.rmtree(WORK, ignore_errors=True)


class InputDigests(unittest.TestCase):
    def gen(self, seed, name):
        d = os.path.join(WORK, name)
        return run.gen_mbist(seed, d)[1]

    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        a, b, c = self.gen(5, "a"), self.gen(5, "b"), self.gen(6, "c")
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)

    def test_serve_designs_follow_the_seed(self):
        def designs(seed):
            out = run.run_harness(["serve-inputs", "--seed", str(seed)])
            return json.loads(out)["inputs_fnv"]
        self.assertEqual(designs(3), designs(3))
        self.assertNotEqual(designs(3), designs(4))


class ReplicaFidelity(unittest.TestCase):
    """The traced replica must print what `rsnsec` prints, byte for byte;
    otherwise its per-layer numbers describe a different program."""

    def check(self, d):
        tally = run.Tally()
        store = os.path.join(d, "store")
        cli = run.cli_session(d, store, tally, 0)
        self.assertEqual(tally.failures, [])
        w = os.path.join(d, "replica")
        out = json.loads(run.run_harness(
            ["replica", "--dir", d, "--work", w, "--jobs", str(run.JOBS)]))
        self.assertEqual(out["mismatches"], 0)
        self.assertEqual(out["violating"], 0)
        self.assertEqual(run.replica_differences(cli, w, d), [])

    def test_mingle(self):
        d = os.path.join(WORK, "mingle")
        os.makedirs(d)
        rsn, v, spec = run.design_paths(d)
        code = run.timed([run.RSNSEC, "generate", "--benchmark", "Mingle",
                          "--seed", "9", "--out-rsn", rsn, "--out-verilog", v,
                          "--out-spec", spec])[1]
        self.assertEqual(code, 0)
        self.check(d)

    def test_held_out_seed(self):
        d = os.path.join(WORK, "held-out")
        run.gen_mbist(run.HELD_OUT_SEED * 1000, d)
        self.check(d)


if __name__ == "__main__":
    unittest.main()
