"""One set-up in a fresh interpreter: import, then bring a workload to
ready-to-take-load, print the parts as one JSON line, then tear down.

``run.py`` starts this several times per run and times each from process
start to the printed line, so warm module caches cannot hide import cost.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    t0 = time.perf_counter()
    import repro  # noqa: F401
    import repro.campaign.executor  # noqa: F401
    import repro.serve.server  # noqa: F401

    parts = {"import_s": time.perf_counter() - t0}
    from perfbench.workloads import FULL, TINY, WORKLOADS

    w = WORKLOADS[args.workload](args.seed, TINY if args.tiny else FULL, Path(args.tmp))
    w.setup()
    try:
        parts.update(w.setup_parts)
        print(json.dumps(parts), flush=True)
    finally:
        w.teardown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
