"""One measured process of the benchmark: set-up, timed rounds, checks.

run.py starts it with PYTHONPATH pointing at the checkout's src/ and the
BLAS pinned to one thread. It prints one JSON line:

  ready         time.monotonic() when set-up ended (run.py knows the spawn time)
  rounds, points, failed, wall_s, peak_rss_mb
  errors        correctness-check failures, empty when the outputs are correct
  crashes       tracebacks of rounds that raised (their points count as failed)
  layers        per-layer metrics, traced runs only

With --setup-only the process stops after set-up and prints only "ready".
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--rounds", type=int, default=0, help="run exactly this many rounds (0: until --seconds)")
    ap.add_argument("--size", type=float, default=1.0, help="scale of each round's grid")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    workload.setup()
    rng = random.Random(args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    out_dir = Path(args.out_dir)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    results, crashes = [], []
    rounds = points = failed = 0
    start = time.perf_counter()
    while True:
        inputs = workload.draw(rng, args.size)
        n = workload.points_of(inputs)
        if tracer is not None:
            tracer.current_point = rounds
        try:
            results.append(workload.run(inputs, out_dir / f"round{rounds}.csv"))
        except Exception:
            # a round that raises counts all its points as failed
            crashes.append(traceback.format_exc(limit=4))
            failed += n
        rounds += 1
        points += n
        elapsed = time.perf_counter() - start
        # stop where the timed part ends nearest to --seconds, in whole rounds
        if rounds == args.rounds or (not args.rounds and elapsed * (1.0 + 0.5 / rounds) >= args.seconds):
            break
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    failed += sum(workload.failed_points(r) for r in results)
    errors = workload.check(results, random.Random(args.seed + 7919))
    out = {
        "ready": ready,
        "rounds": rounds,
        "points": points,
        "failed": failed,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "errors": errors,
        "crashes": crashes,
    }
    if tracer is not None:
        out["layers"] = tracer.summary(points)
        tracer.write(out_dir / "spans.jsonl.gz")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
