"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sim_serial --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` runs the workload untraced and
then traced over the same inputs and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero when any output check fails.  ``perfbench/README.md`` lists every
metric, the layer each one measures and the workload that moves it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: scratch files of a run; removed when the run ends
TMP_DIR = ".perfbench_tmp"
#: Chrome traces of traced runs; kept for ``repro trace --sim``
OUT_DIR = ".perfbench_out"


def parse_args(argv: List[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("sim_serial", "serve_closed", "fabric_pool"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test scale: tiny inputs, one set-up probe, no pins")
    ap.add_argument("--inject-bad", action="store_true",
                    help="self-test: corrupt one checked cell's merged summary")
    return ap.parse_args(argv)


def probe_setup(name: str, seed: int, tiny: bool, tmp: Path, n: int) -> List[dict]:
    """Set the workload up ``n`` times, each in a fresh interpreter, timed
    from before the process starts to its ready line."""
    out = []
    for i in range(n):
        cmd = [sys.executable, str(HERE / "probe.py"), name, "--seed", str(seed),
               "--tmp", str(tmp / f"probe{i}")]
        if tiny:
            cmd.append("--tiny")
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait(timeout=120) != 0 or not line:
            raise RuntimeError(f"set-up probe for {name} failed")
        parts = json.loads(line)
        parts["setup_s"] = setup_s
        out.append(parts)
    return out


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    tmp = ROOT / TMP_DIR / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    # everything the run or its children write stays inside the checkout
    os.environ["TMPDIR"] = str(tmp)
    try:
        return run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            (ROOT / TMP_DIR).rmdir()
        except OSError:
            pass


def run(args: argparse.Namespace, tmp: Path) -> int:
    from perfbench import metrics
    from perfbench.spans import write_chrome
    from perfbench.workloads import (
        DEFAULT_SEED,
        FULL,
        TINY,
        WORKLOADS,
        canary_digest,
        compare,
        verify_order,
        verify_sample,
    )

    scale = TINY if args.tiny else FULL
    phases: Dict[str, float] = {}
    t0 = time.perf_counter()
    probes = probe_setup(args.workload, args.seed, args.tiny, tmp, scale.probes)
    parts = {
        k: statistics.median(p.get(k, 0.0) for p in probes)
        for k in ("setup_s", "import_s", "service_start_s", "pool_warmup_s")
    }
    w = WORKLOADS[args.workload](args.seed, scale, tmp / "run")
    checks: Dict[str, bool] = {}
    lines: List[str] = []
    phases["set-up probes"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    if not args.tiny:
        pins = json.loads((HERE / "pins.json").read_text())
        got = canary_digest(w)
        pinned = pins["canary"].get(w.name, "")
        checks["canary digest"] = got == pinned
        lines.append(f"canary digest {got} (pinned {pinned or 'none'})")
    phases["canary"] = time.perf_counter() - t0
    t0 = time.perf_counter()

    if args.trace == 0:
        w.setup()
        try:
            run_ = w.timed(args.seconds)
        finally:
            w.teardown()
        phases["timed"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        if args.inject_bad:
            _corrupt(run_, verify_order(run_, args.seed)[0])
        checked = verify_sample(run_, args.seed, budget_s=0.05 * run_.wall)
        phases["recheck"] = time.perf_counter() - t0
        if not args.tiny and args.seed == DEFAULT_SEED:
            pinned = pins["default_seed"].get(w.name, "")
            checks["default-seed digest"] = run_.digest == pinned
            lines.append(f"default-seed digest {run_.digest} (pinned {pinned or 'none'})")
        ops, extra = run_.outcomes, checked
        result, notes = metrics.end_to_end(run_, parts["setup_s"])
        lines.append(
            f"timed {notes['wall']}; {len(ops)} operations; "
            f"in-process recheck of {len(checked)} cells; tail = {notes['tail']}"
        )
    else:
        untraced, traced, spans = w.traced_pair(args.seconds)
        phases["untraced + traced"] = time.perf_counter() - t0
        if args.inject_bad:
            _corrupt(traced, verify_order(traced, args.seed)[0])
        paired = compare(untraced, traced)
        ops, extra = untraced.outcomes + traced.outcomes, paired
        result = metrics.per_layer(w, untraced, traced, spans, parts)
        out = ROOT / OUT_DIR / f"{w.name}-seed{args.seed}.trace.json"
        write_chrome(spans, out, {"workload": w.name, "seed": args.seed})
        lines.append(
            f"paired untraced/traced runs: {len(paired)} cells compared; "
            f"{len(spans)} spans -> {out.relative_to(ROOT)}"
        )
    bad = [o for o in ops + extra if not o.ok]
    # an operation fails when its cell failed anywhere: in the run itself,
    # the in-process recheck or the untraced/traced comparison
    failed_ids = {o.cell_id for o in bad}
    failed = sum(1 for o in ops if o.cell_id in failed_ids)
    attempted = len(ops)
    lines.append(f"failed_frac {failed}/{attempted}")
    for o in bad[:5]:
        lines.append(f"FAILED {o.cell_id}: {o.error}")
    failed += sum(1 for ok in checks.values() if not ok)
    attempted += len(checks)
    for name, ok in checks.items():
        if not ok:
            lines.append(f"FAILED {name} check (see perfbench/README.md, 'Pins')")

    lines.append("host seconds: " + ", ".join(f"{k} {v:.2f}" for k, v in phases.items()))
    print(f"{w.name} seed={args.seed} trace={args.trace}")
    for line in lines:
        print(f"  {line}")
    width = max(len(k) for k in result)
    for key, (value, unit) in result.items():
        print(f"  {key:<{width}}  {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.items()},
    }))
    return 0 if failed == 0 else 1


def _corrupt(run_, cell_id: str) -> None:
    """Self-test hook: make one merged summary wrong."""
    run_.summaries[cell_id] = dict(run_.summaries[cell_id], cycles=-1)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
