"""Fast self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

Checks, for every workload in ``BENCHMARK.json``: the result line's keys,
metric names and units in both modes; that ``--seed`` changes the generated
inputs; that an injected bad cell is counted in ``failed`` and makes the
command exit non-zero; and that the command refuses to run without the
program source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def scratch() -> tempfile.TemporaryDirectory:
    """A scratch directory inside the checkout."""
    base = ROOT / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=base)


def bench(*args: str, cwd: Path = ROOT) -> "tuple[int, dict | None, str]":
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result, proc.stdout + proc.stderr


def tiny(workload: str, seed: int, trace: int, *extra: str):
    return bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--tiny", *extra)


class ResultShape(unittest.TestCase):
    def check(self, trace: int, wanted: list) -> None:
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                code, result, log = tiny(w["name"], 5, trace)
                self.assertEqual(code, 0, log)
                self.assertEqual(
                    set(result), {"correct", "attempted", "failed", "metrics"}
                )
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, {m["name"]: m["unit"] for m in wanted})
                for v in result["metrics"].values():
                    self.assertIsInstance(v["value"], (int, float))

    def test_end_to_end_metrics(self) -> None:
        self.check(0, SPEC["end_to_end"])

    def test_per_layer_metrics(self) -> None:
        self.check(1, SPEC["per_layer"])


class Inputs(unittest.TestCase):
    def test_seed_changes_inputs(self) -> None:
        sys.path[:0] = [str(ROOT), str(ROOT / "src")]
        from perfbench.workloads import TINY, WORKLOADS

        with scratch() as tmp:
            for name, cls in WORKLOADS.items():
                a = cls(1, TINY, Path(tmp)).fingerprint()
                b = cls(2, TINY, Path(tmp)).fingerprint()
                self.assertNotEqual(a, b, name)
                self.assertEqual(a, cls(1, TINY, Path(tmp)).fingerprint(), name)


class Failures(unittest.TestCase):
    def test_injected_bad_cell_is_counted(self) -> None:
        for trace in (0, 1):
            with self.subTest(trace=trace):
                code, result, log = tiny("sim_serial", 5, trace, "--inject-bad")
                self.assertNotEqual(code, 0, log)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_refuses_without_program_source(self) -> None:
        with scratch() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, result, _ = bench("--workload", "sim_serial", "--seed", "1",
                                    "--seconds", "1", "--trace", "0", cwd=Path(tmp))
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
