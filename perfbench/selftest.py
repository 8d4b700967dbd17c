"""Self-tests of the benchmark at tiny input sizes.

Run from the repository root (about a minute)::

    python3 perfbench/selftest.py

They run ``run.py --size tiny`` for every workload and check the output
format against ``BENCHMARK.json``: every declared metric is emitted with
its declared unit and nothing else, names use only ``[A-Za-z0-9_.-]``,
traced self times account for the traced wall time, the exact digest
repeats for the same seed, and a directory without the program fails.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import Hook, LayerTracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

_RUNS: dict[tuple, tuple[int, list[str], str]] = {}


def run_tiny(workload: str, trace: int, seed: int = 3,
             cwd: str = ROOT, fresh: bool = False):
    """``(exit code, stdout lines, stderr)`` of one tiny run (memoized)."""
    key = (workload, trace, seed, cwd)
    if fresh or key not in _RUNS:
        completed = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
             "--size", "tiny"],
            cwd=cwd, capture_output=True, text=True, timeout=300,
        )
        _RUNS[key] = (
            completed.returncode,
            completed.stdout.strip().splitlines(),
            completed.stderr,
        )
    return _RUNS[key]


def result_of(workload: str, trace: int) -> dict:
    code, lines, stderr = run_tiny(workload, trace)
    if code != 0:
        raise AssertionError(f"{workload} trace={trace} exited {code}:\n"
                             f"{stderr[-3000:]}")
    return json.loads(lines[-1])


class TestContract(unittest.TestCase):
    def test_names_and_units_are_well_formed(self):
        names = [w["name"] for w in SPEC["workloads"]]
        for group in ("end_to_end", "per_layer"):
            names += [m["name"] for m in SPEC[group]]
            for metric in SPEC[group]:
                self.assertRegex(metric["unit"], UNIT)
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        for metric in SPEC["end_to_end"]:
            self.assertLessEqual(metric["bound"], setup[0]["bound"])

    def test_every_declared_metric_is_emitted_with_its_unit(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = result_of(workload, trace)
                    self.assertEqual(
                        set(result),
                        {"correct", "attempted", "failed", "metrics"},
                    )
                    self.assertIs(result["correct"], True)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    declared = {m["name"]: m["unit"] for m in SPEC[group]}
                    emitted = {
                        name: metric["unit"]
                        for name, metric in result["metrics"].items()
                    }
                    self.assertEqual(emitted, declared)
                    for metric in result["metrics"].values():
                        self.assertIsInstance(metric["value"], (int, float))
                    if trace == 0:
                        for name in declared:
                            self.assertGreater(
                                result["metrics"][name]["value"], 0, name
                            )

    def test_traced_self_times_account_for_wall_time(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                metrics = result_of(workload, 1)["metrics"]
                wall = metrics["trace.wall_s"]["value"]
                self_total = sum(
                    metric["value"] for name, metric in metrics.items()
                    if name.endswith(".self_s")
                )
                self.assertGreater(wall, 0.0)
                self.assertAlmostEqual(self_total / wall, 1.0, delta=0.03)
                self.assertLess(
                    abs(metrics["trace.unaccounted_pct"]["value"]), 3.0
                )

    def test_same_seed_gives_the_same_exact_digest(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                first = run_tiny(workload, 1)[1][-2]
                code, lines, stderr = run_tiny(workload, 1, fresh=True)
                self.assertEqual(code, 0, stderr[-3000:])
                self.assertEqual(json.loads(lines[-2]), json.loads(first))
                # Tracing must not change the simulated outcome.
                untraced = json.loads(run_tiny(workload, 0)[1][-2])
                self.assertEqual(
                    untraced["outcome"], json.loads(first)["outcome"]
                )

    def test_fails_without_the_program(self):
        bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(
                HERE, os.path.join(bare, "perfbench"),
                ignore=shutil.ignore_patterns("__pycache__"),
            )
            started = time.monotonic()
            code, lines, _ = run_tiny("scale-replay", 0, cwd=bare,
                                      fresh=True)
            self.assertLess(time.monotonic() - started, 180.0)
            self.assertNotEqual(code, 0)
            self.assertFalse(any('"correct"' in line for line in lines))
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class _Toy:
    def outer(self, n):
        total = 0
        for _ in range(n):
            total += self.inner()
        return total

    def inner(self):
        time.sleep(0.002)
        return 1


class TestTracer(unittest.TestCase):
    def test_self_times_partition_the_root_and_wrappers_come_off(self):
        original = _Toy.__dict__["inner"]
        tracer = LayerTracer((
            Hook(f"{__name__}:_Toy.outer", "outer", root=True),
            Hook(f"{__name__}:_Toy.inner", "inner",
                 items=lambda args, result: result),
        ), keep_durations=("inner",), record_spans=True)
        with tracer:
            self.assertEqual(_Toy().outer(5), 5)
        self.assertIs(_Toy.__dict__["inner"], original)
        self.assertEqual(tracer.counts(), {"inner": (5, 5), "outer": (1, 0)})
        layers = tracer.layers
        self.assertEqual(
            layers["outer"].self_ns + layers["inner"].self_ns,
            layers["outer"].incl_ns,
        )
        self.assertEqual(len(tracer.durations_ms("inner")), 5)
        requests = {span[6] for span in tracer.spans}
        self.assertEqual(len(requests), 1)


if __name__ == "__main__":
    unittest.main()
