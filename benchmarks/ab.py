"""Interleaved A/B timing of this tree against a parent commit.

    python benchmarks/ab.py <parent-ref>

Run from anywhere inside the repository.  Both sides are built in a
temporary directory: the parent's ``src`` (``git archive``) and this
tree's ``src``, each beside this tree's ``perfbench/`` and
``BENCHMARK.json``, so the two sides run the same benchmark code.  For
every workload ``BENCHMARK.json`` lists, :data:`PAIRS` pairs of
``perfbench/run.py --trace 0`` run at its ``run_seconds``; pair *i* uses
seed *i* on both sides, and the pairs alternate which side runs first.  A
run whose result says ``correct: false`` aborts the comparison.

For each end-to-end metric the report gives each side's median and
quartiles, the pairs the change won and a :func:`verdict`.
``BENCH_ab.json`` at the repository root keeps every run's values.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_ab.json"
SIDES = ("parent", "change")
#: pairs per workload: enough for a nine-in-ten win rule
PAIRS = 10


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Dict[str, object]:
    """Compare paired runs of one metric (``parent[i]`` beside
    ``change[i]``).

    * ``better`` - the change wins at least nine pairs in ten (ties count
      for neither) and its median beats the parent's by more than the
      parent's interquartile range;
    * ``worse`` - the change's median is worse than the parent's by more
      than ``bound`` (a fraction of the parent's median);
    * ``unresolved`` - either side's interquartile range is wider than
      ``bound``, unless every change run beats every parent run;
    * ``no regression`` - otherwise.
    """
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    sides = {"parent": quartiles(parent), "change": quartiles(change)}
    base = sides["parent"]["median"]
    gain = sign * (sides["change"]["median"] - base)
    iqr = {side: q["q3"] - q["q1"] for side, q in sides.items()}
    limit = bound * abs(base)
    if wins >= 0.9 * len(parent) and gain > iqr["parent"]:
        word = "better"
    elif -gain > limit:
        word = "worse"
    elif max(iqr.values()) > limit and not all(
        sign * (c - p) > 0 for c in change for p in parent
    ):
        word = "unresolved"
    else:
        word = "no regression"
    return {**sides, "wins": wins, "pairs": len(parent), "verdict": word}


def build_sides(ref: str, root: Path) -> Dict[str, Path]:
    """The parent's ``src`` and this tree's, each beside this tree's
    benchmark code."""
    archive = subprocess.run(
        ["git", "-C", str(REPO_ROOT), "archive", "--format=tar", ref, "src"],
        check=True, capture_output=True,
    ).stdout
    dirs = {side: root / side for side in SIDES}
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dirs["parent"], filter="data")
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(REPO_ROOT / "src", dirs["change"] / "src", ignore=skip)
    for side in dirs.values():
        shutil.copytree(REPO_ROOT / "perfbench", side / "perfbench", ignore=skip)
        shutil.copy(REPO_ROOT / "BENCHMARK.json", side)
    return dirs


def run_once(side: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run; its result object."""
    # each side imports only its own src (perfbench puts it on sys.path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=side, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(
            f"ab: {side.name} {workload} seed {seed} printed no result "
            f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}"
        )
    if not result.get("correct"):
        raise SystemExit(
            f"ab: {side.name} {workload} seed {seed} is not correct:\n"
            + proc.stdout[-2000:]
        )
    return result


def compare(spec: dict, dirs: Dict[str, Path]) -> dict:
    """Run every workload's pairs and judge every end-to-end metric."""
    out = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs: List[dict] = []
        for seed in range(1, PAIRS + 1):
            order = SIDES if seed % 2 else SIDES[::-1]
            for side in order:
                result = run_once(dirs[side], workload, seed, spec["run_seconds"])
                runs.append({
                    "side": side, "seed": seed, "first": side == order[0],
                    "attempted": result["attempted"], "failed": result["failed"],
                    "metrics": {k: m["value"] for k, m in result["metrics"].items()},
                })
                print(f"  {workload} seed {seed} {side}: "
                      f"{runs[-1]['metrics']}", flush=True)
        values = {
            side: [r["metrics"] for r in runs if r["side"] == side] for side in SIDES
        }
        out[workload] = {
            "runs": runs,
            "metrics": {
                m["name"]: verdict(
                    [v[m["name"]] for v in values["parent"]],
                    [v[m["name"]] for v in values["change"]],
                    m["better"], m["bound"],
                )
                for m in spec["end_to_end"]
            },
        }
    return out


def report(results: dict, spec: dict) -> str:
    lines = []
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for workload, body in results.items():
        lines.append(workload)
        for name, v in body["metrics"].items():
            p, c = v["parent"], v["change"]
            lines.append(
                f"  {name:<20} parent {p['median']:.4g} [{p['q1']:.4g}, "
                f"{p['q3']:.4g}]  change {c['median']:.4g} [{c['q1']:.4g}, "
                f"{c['q3']:.4g}] {units[name]}  wins {v['wins']}/{v['pairs']}  "
                f"{v['verdict']}"
            )
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    ref = argv[0]
    sha = subprocess.run(
        ["git", "-C", str(REPO_ROOT), "rev-parse", "--verify", ref + "^{commit}"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        results = compare(spec, build_sides(sha, Path(tmp)))
    RESULT_PATH.write_text(json.dumps({
        "parent": sha,
        "pairs": PAIRS,
        "run_seconds": spec["run_seconds"],
        "workloads": results,
    }, indent=1) + "\n")
    print(report(results, spec))
    print(f"wrote {RESULT_PATH.relative_to(REPO_ROOT)}")
    worse = [
        f"{w}/{name}" for w, body in results.items()
        for name, v in body["metrics"].items() if v["verdict"] == "worse"
    ]
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
