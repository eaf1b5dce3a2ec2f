"""Tests of the benchmark itself: its gates trip, and what it prints matches BENCHMARK.json.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from hazgate import acceptance, simulate  # noqa: E402
from hazgate.campaign import CampaignReport  # noqa: E402
from hazgate.scenarios import Scenario  # noqa: E402

import run  # noqa: E402
from layers import PER_LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS, Context, Rep, check_campaign, check_replay  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _rep(digest="d", failures=(), known=(), gates=()):
    return Rep(ops=10, digest=digest, summary={}, wall_s=1.0, work=3000.0,
               scenarios=array("d", [300.0] * 10), failures=list(failures),
               known=list(known), gates=list(gates))


def _judge(*reps):
    return run.judge(list(reps), 0)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


class GateTest(unittest.TestCase):
    def test_clean_reps_are_correct(self):
        verdict = _judge(_rep(), _rep())
        self.assertEqual((verdict["correct"], verdict["attempted"], verdict["failed"]),
                         (True, 10, 0))

    def test_counts_do_not_depend_on_the_number_of_verdicts(self):
        failing = dict(failures=["x"], known=["r20-uncleared-fault-release: x"])
        one = _judge(_rep(**failing))
        many = _judge(*(_rep(**failing) for _ in range(7)))
        self.assertEqual((one["attempted"], one["failed"]), (10, 1))
        self.assertEqual((many["attempted"], many["failed"]), (10, 1))

    def test_raised_verdict_fails_all_its_operations(self):
        verdict = run.judge([_rep()], 10)
        self.assertEqual((verdict["correct"], verdict["attempted"], verdict["failed"]),
                         (False, 10, 10))

    def test_fabricated_soundness_violation_trips_gate(self):
        report = CampaignReport(n=3, seed=1, executive_enabled=True,
                                outcomes={"SafeCompletion": 2, "Violation": 1})
        report.violations = [(1, "campaign-1", "R24", "exposure at 900 with failed noFault")]
        failures, gates = check_campaign(report, enabled=True)
        self.assertEqual(failures, ["scenario 1: protected run violates R24"])
        verdict = _judge(_rep(failures=failures, gates=gates))
        self.assertFalse(verdict["correct"])
        self.assertEqual(verdict["failed"], 1)

    def test_vacuous_campaigns_trip_gate(self):
        on = CampaignReport(n=2, seed=1, executive_enabled=True,
                            outcomes={"BlockedSafely": 2})
        self.assertTrue(check_campaign(on, enabled=True)[1])
        off = CampaignReport(n=2, seed=1, executive_enabled=False,
                             outcomes={"SafeCompletion": 2})
        self.assertTrue(check_campaign(off, enabled=False)[1])

    def test_digest_mismatch_trips_gate(self):
        verdict = _judge(_rep(digest="a"), _rep(digest="b"))
        self.assertFalse(verdict["correct"])
        self.assertIn("verdict digest differs between verdicts of one seed",
                      verdict["problems"])

    def test_known_defect_is_counted_but_unknown_failure_is_not_excused(self):
        known = _judge(_rep(failures=["x"], known=["r20-uncleared-fault-release: x"]))
        self.assertEqual((known["correct"], known["failed"]), (True, 1))
        unknown = _judge(_rep(failures=["x"]))
        self.assertEqual((unknown["correct"], unknown["failed"]), (False, 1))

    def test_replay_defect_input_is_classified(self):
        rng = random.Random(1)
        for _ in range(586):
            events = acceptance._random_timeline(rng)
        ctx = Context.load(ROOT)
        result = simulate.run_scenario(ctx.model, ctx.config, Scenario("random-585", events),
                                       executive_enabled=True)
        failure, defect = check_replay("random", events, result)
        self.assertIn("R20: release at 31535 without fresh Radiographer", failure)
        self.assertEqual(defect, "r20-uncleared-fault-release")


class ContractTest(unittest.TestCase):
    def test_names_match_benchmark_json(self):
        self.assertEqual(sorted(WORKLOADS), sorted(w["name"] for w in SPEC["workloads"]))
        self.assertEqual(run.END_TO_END_UNITS,
                         {m["name"]: m["unit"] for m in SPEC["end_to_end"]})
        self.assertEqual(PER_LAYER_UNITS, {m["name"]: m["unit"] for m in SPEC["per_layer"]})

    def test_printed_metrics_match_benchmark_json(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = _bench("--workload", "replay-mixed", "--seed", "3", "--seconds", "0.2",
                          "--trace", str(trace))
            self.assertEqual(done.returncode, 0, done.stderr)
            result = json.loads(done.stdout.splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(
                {name: m["unit"] for name, m in result["metrics"].items()},
                {m["name"]: m["unit"] for m in SPEC[key]})

    def test_checkout_without_sources_fails(self):
        with tempfile.TemporaryDirectory(dir=HERE, prefix=".bare-") as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, Path(bare) / "perfbench",
                            ignore=shutil.ignore_patterns(".bare-*", "__pycache__"))
            done = _bench("--workload", "campaign-on", "--seed", "1", "--seconds", "1",
                          "--trace", "0", cwd=bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
