"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks that the reference check catches a wrong counter, that tracing
changes no counter or check result and leaves no wrapper behind, that
the input digest is a function of the seed, and that BENCHMARK.json
names exactly the metrics and workloads the benchmark reports.  Runs on
shrunken inputs (a few thousand rules and packets) in well under a
minute.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path[:1] = [str(ROOT / "src"), str(ROOT)]

from perfbench.bench import END_TO_END, PER_LAYER, _counters, check, run  # noqa: E402
from perfbench.reference import Observed  # noqa: E402
from perfbench.tracing import SpanRecorder  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    BgpChurn,
    ShardedBgp,
    ShardedStream,
    StreamOverload,
    Workload,
    ZipfFastpath,
)


def small(workload: Workload) -> Workload:
    """The same workload on inputs small enough for a unit test."""
    workload.setup_repeats = 1
    if isinstance(workload, ZipfFastpath):
        workload.packets = 4096
    if isinstance(workload, BgpChurn | ShardedBgp):
        workload.rules = 5000
        workload.packets = 8192
    if isinstance(workload, StreamOverload):
        workload.arrivals = 3000
    return workload


def counters(workload: Workload, state) -> dict:
    observed: Observed = workload.observe(state)
    return {"totals": observed.totals, "entries": observed.entries}


class ReferenceCheck(unittest.TestCase):
    def test_clean_run_has_no_errors(self) -> None:
        record = run(small(ZipfFastpath()), seed=5, seconds=0.2, trace=False)
        self.assertEqual(record["checks"]["failed"], 0, record["checks"]["messages"])
        self.assertGreater(record["checks"]["attempted"], 1000)

    def test_perturbed_counter_raises_error_rate(self) -> None:
        workload = small(ZipfFastpath())
        inputs = workload.build_inputs(seed=5)
        state = workload.setup(inputs)
        drive = workload.drive(state, inputs, 0.0, 40, None)
        next(iter(state.table)).stats.packet_count += 1
        checks = check(workload, state, inputs, [drive])
        self.assertGreater(checks.error_rate, 0.0)
        self.assertEqual(checks.failed, 1, checks.messages)


class Tracing(unittest.TestCase):
    def _compare(self, workload: Workload, batches: int) -> None:
        """Drive two fresh runners through the same fixed work, one
        traced; counters and check results must agree."""
        inputs = workload.build_inputs(seed=9)
        originals = {
            (p.owner, p.attr): p.owner.__dict__.get(p.attr) for p in workload.entry_points
        }
        outcome = {}
        for traced in (False, True):
            recorder = SpanRecorder() if traced else None
            state = workload.setup(inputs)
            try:
                if recorder is None:
                    drive = workload.drive(state, inputs, 0.0, batches, None)
                else:
                    with recorder.installed(workload.entry_points):
                        drive = workload.drive(state, inputs, 0.0, batches, recorder)
                    self.assertGreater(len(recorder), 0)
                runner_counters = _counters(state)
                observed = counters(workload, state)
                checks = check(workload, state, inputs, [drive])
            finally:
                workload.close(state)
            outcome[traced] = (runner_counters, observed, checks.attempted, checks.failed)
        self.assertEqual(outcome[False], outcome[True])
        self.assertEqual(outcome[True][3], 0)
        for point in workload.entry_points:
            self.assertIs(point.owner.__dict__.get(point.attr), originals[(point.owner, point.attr)])

    def test_zipf_fastpath(self) -> None:
        self._compare(small(ZipfFastpath()), batches=40)

    def test_bgp_churn(self) -> None:
        self._compare(small(BgpChurn()), batches=40)

    def test_stream_overload(self) -> None:
        self._compare(small(StreamOverload()), batches=0)

    def test_sharded_bgp(self) -> None:
        self._compare(small(ShardedBgp()), batches=40)

    def test_sharded_stream(self) -> None:
        self._compare(small(ShardedStream()), batches=0)

    def test_traced_stream_measures_the_shard_layers(self) -> None:
        record = run(small(StreamOverload()), seed=4, seconds=0.4, trace=True)
        self.assertEqual(record["checks"]["failed"], 0, record["checks"]["messages"])
        metrics = {name: entry["value"] for name, entry in record["metrics"].items()}
        for name in ("shard.submit_ns_per_pkt", "shard.collect_ns_per_pkt",
                     "shard.worker_peak_rss_mib", "rulestate.seal_s",
                     "rulestate.spinup_s", "rulestate.sealed_bytes"):
            self.assertGreater(metrics[name], 0, name)

    def test_wrappers_restored_after_error(self) -> None:
        workload = ZipfFastpath()
        points = workload.entry_points
        before = [p.owner.__dict__.get(p.attr) for p in points]
        recorder = SpanRecorder()
        with self.assertRaises(KeyError), recorder.installed(points):
            raise KeyError("boom")
        self.assertEqual(before, [p.owner.__dict__.get(p.attr) for p in points])

    def test_traced_run_accounts_for_wall_time(self) -> None:
        record = run(small(BgpChurn()), seed=4, seconds=0.4, trace=True)
        self.assertEqual(record["checks"]["failed"], 0, record["checks"]["messages"])
        metrics = {name: entry["value"] for name, entry in record["metrics"].items()}
        self.assertEqual(set(metrics), set(PER_LAYER))
        self_total = sum(v for k, v in metrics.items() if k.endswith(".self_ns_per_pkt"))
        self_total += metrics["openflow.exec_ns_per_pkt"]  # a leaf: self == inclusive
        self.assertAlmostEqual(
            self_total + metrics["unattributed_ns_per_pkt"],
            metrics["trace.wall_ns_per_pkt"],
            delta=1e-6 * metrics["trace.wall_ns_per_pkt"],
        )
        self.assertGreaterEqual(metrics["unattributed_ns_per_pkt"], 0.0)
        self.assertGreater(metrics["trace.overhead"], 0.0)


class Inputs(unittest.TestCase):
    def test_digest_follows_the_seed(self) -> None:
        for workload in (small(ZipfFastpath()), small(BgpChurn()), small(StreamOverload())):
            first = workload.build_inputs(seed=21).digest
            self.assertEqual(first, workload.build_inputs(seed=21).digest, workload.name)
            self.assertNotEqual(first, workload.build_inputs(seed=22).digest, workload.name)


class Definition(unittest.TestCase):
    def test_benchmark_json_matches(self) -> None:
        definition = json.loads((ROOT / "BENCHMARK.json").read_text())
        # sharded-bgp stays runnable by name but is not gated (see README);
        # stream-overload carries the shard and rulestate layers.
        self.assertEqual(
            {w["name"] for w in definition["workloads"]}, set(WORKLOADS) - {"sharded-bgp"}
        )
        for workload in definition["workloads"]:
            self.assertEqual(workload["why"], WORKLOADS[workload["name"]].why)
        self.assertEqual(
            {m["name"]: m["unit"] for m in definition["end_to_end"]}, END_TO_END
        )
        self.assertEqual(
            {m["name"]: m["unit"] for m in definition["per_layer"]}, PER_LAYER
        )


if __name__ == "__main__":
    unittest.main()
