#!/usr/bin/env python3
"""The benchmark's own tests, at tiny scale (each kernel run takes
milliseconds). Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

They build hpbench like the benchmark does, into $CARGO_TARGET_DIR
(default .bench_build).
"""

import json
import os
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

BUILD_DIR = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


class TinyBenchmark(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build(BUILD_DIR)

    def measure(self, workload, trace):
        return run.measure(self.binary, workload, seed=3, seconds=0.01,
                           trace=trace, scale="tiny")

    def test_every_metric_printed_with_its_unit(self):
        for workload in run.WORKLOADS:
            for trace, names in ((False, run.END_TO_END), (True, run.PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    _, result = self.measure(workload, trace)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(list(result["metrics"]), list(names))
                    for name, unit in names.items():
                        self.assertEqual(result["metrics"][name]["unit"], unit)
                        self.assertIsInstance(result["metrics"][name]["value"],
                                              (int, float))

    def test_benchmark_json_lists_the_printed_metrics(self):
        spec = json.loads((run.REPO_ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        for key, names in (("end_to_end", run.END_TO_END),
                           ("per_layer", run.PER_LAYER)):
            self.assertEqual({m["name"]: m["unit"] for m in spec[key]}, names)

    def test_mismatched_seed_is_a_failed_run(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                pair = run.run_pair(self.binary, workload, seq_seed=3,
                                    tw_seed=4, traced=False, scale="tiny")
                self.assertFalse(pair["ok"])
                self.assertIn("differ", pair["reason"])
                result = run.summarize([pair], trace=False)
                self.assertEqual(result["failed"], 1)
                self.assertFalse(result["correct"])

    def test_same_seed_pair_passes_the_gate(self):
        pair = run.run_pair(self.binary, "phold_remote", seq_seed=5, tw_seed=5,
                            traced=False, scale="tiny")
        self.assertTrue(pair["ok"], pair.get("reason"))
        self.assertEqual(pair["seq"]["output"], pair["tw"]["output"])

    def test_phase_sum_holds(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                pairs, result = self.measure(workload, trace=True)
                traced = [p for p in pairs if p["traced"]]
                self.assertTrue(traced)
                for p in traced:
                    tw = p["tw"]
                    phase_sum, wall_pes, rest = run.phase_accounting(tw)
                    self.assertGreater(phase_sum, 0.0)
                    self.assertLessEqual(phase_sum, wall_pes)
                    self.assertAlmostEqual(phase_sum + rest,
                                           tw["run_s"] * tw["pes"], places=9)
                unaccounted = result["metrics"]["des.unaccounted_s"]["value"]
                self.assertGreaterEqual(unaccounted, 0.0)

    def test_traced_output_equals_untraced(self):
        pairs, _ = self.measure("hotpotato_fig5", trace=True)
        outputs = {p["seq"]["output"] for p in pairs if p["ok"]}
        self.assertEqual(len(outputs), 1)
        self.assertEqual({p["traced"] for p in pairs}, {False, True})


def fake_pair(seq_s, tw_s, tw_lost_cpus, rss=20.0):
    """A finished pair as run_pair returns it, with only what the end-to-end
    summary reads."""
    def kernel(run_s, lost):
        return {"run_s": run_s, "setup_s": 1e-4, "peak_rss_mb": rss,
                "wall_s": run_s, "interference_s": lost * run_s,
                "counters": {"committed_events": 1000}}
    return {"ok": True, "traced": False, "seq": kernel(seq_s, 0.0),
            "tw": kernel(tw_s, tw_lost_cpus)}


class CalmSelection(unittest.TestCase):
    def test_time_warp_rate_comes_from_calm_runs_only(self):
        # Disturbed runs are the fast ones here: the choice must not look at
        # the program's own time.
        pairs = [fake_pair(1.0, 0.5, 0.0) for _ in range(4)]
        pairs += [fake_pair(1.0, 0.1, 2.0) for _ in range(20)]
        self.assertEqual(len(run.calm(pairs)), 4)
        m = run.end_to_end(pairs)
        self.assertAlmostEqual(m["tw_events_per_s"], 2000.0)
        self.assertAlmostEqual(m["seq_events_per_s"], 1000.0)
        self.assertAlmostEqual(m["speedup"], 2.0)

    def test_least_disturbed_runs_when_too_few_are_calm(self):
        pairs = [fake_pair(1.0, 0.25 * (i + 1), 1.0 + i) for i in range(8)]
        chosen = run.calm(pairs)
        self.assertEqual(len(chosen), run.CALM_MIN)
        self.assertEqual([p["tw"]["run_s"] for p in chosen], [0.25, 0.5, 0.75])

    def test_sequential_metrics_use_every_pair(self):
        pairs = [fake_pair(1.0, 0.5, 0.0, rss=10.0) for _ in range(3)]
        pairs += [fake_pair(2.0, 0.5, 2.0, rss=30.0) for _ in range(4)]
        m = run.end_to_end(pairs)
        self.assertAlmostEqual(m["seq_events_per_s"], 500.0)
        self.assertAlmostEqual(m["tw_peak_rss_mb"], 10.0)
        self.assertAlmostEqual(m["speedup"], 2.0)
        self.assertEqual(list(m), list(run.END_TO_END))

    def test_interference_counts_steal_and_other_processes(self):
        before = (10.0, 100.0, 5.0)
        after = (10.5, 103.0, 6.0)  # 0.5 s steal; 3 s busy, 1 s of it ours
        self.assertAlmostEqual(run.interference(before, after), 2.5)
        # Tick rounding can make our own time exceed the busy time.
        self.assertAlmostEqual(run.interference(before, (10.0, 100.5, 6.0)), 0.0)


if __name__ == "__main__":
    unittest.main()
