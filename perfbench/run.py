"""Benchmark of wavezones: whole-run workloads and a traced per-layer run.

Run from the root of a checkout (it builds nothing; the package is imported
from ./src):

    python3 perfbench/run.py --workload zone_atlas --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics: set-up time (median over
SETUP_PROBES set-up-only processes plus the measured one), points per
second of the timed part and peak resident memory. --trace 1 first repeats
that untraced run, then runs the same rounds again in a fresh process with
spans around every layer, and reports the per-layer metrics plus the
tracing overhead. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every worker runs in its own fresh process with one BLAS thread, so the
package's lru_caches start cold as they do for a command-line user.
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

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 8
DEADLINE_S = 170.0
MAX_REPORTED = 20
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


class Runner:
    """Starts workers from one checkout and keeps the run inside the deadline."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + DEADLINE_S
        # a fixed hash seed keeps dict and set layouts, and their speed, the same every run
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1",
                        PYTHONHASHSEED="0")
        self.env.update({var: "1" for var in BLAS_THREAD_VARS})

    def spawn(self, out_dir: Path, *extra: str) -> dict:
        """Run one worker to its end; its JSON record plus its set-up time."""
        out_dir.mkdir(parents=True, exist_ok=True)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--seconds", repr(self.seconds),
               "--out-dir", str(out_dir), *extra]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=max(1.0, self.deadline - spawned))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker passed the {DEADLINE_S:.0f} s deadline") from exc
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        record["setup_s"] = record["ready"] - spawned
        return record


def measure(runner: Runner, out_dir: Path) -> dict:
    setups = [runner.spawn(out_dir, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
    rec = runner.spawn(out_dir)
    setups.append(rec["setup_s"])
    return {
        "correct": not rec["errors"],
        "attempted": rec["points"],
        "failed": rec["failed"],
        "errors": rec["errors"],
        "crashes": rec["crashes"],
        "metrics": {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "points_per_s": {"value": rec["points"] / rec["wall_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": rec["peak_rss_mb"], "unit": "MB"},
        },
    }


def measure_traced(runner: Runner, out_dir: Path) -> dict:
    plain = runner.spawn(out_dir / "untraced")
    traced = runner.spawn(out_dir, "--trace", "1", "--rounds", str(plain["rounds"]))
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in traced["layers"].items()}
    metrics["trace.overhead_s"] = {"value": traced["wall_s"] - plain["wall_s"], "unit": "s"}
    errors = plain["errors"] + traced["errors"]
    return {
        "correct": not errors,
        "attempted": traced["points"],
        "failed": traced["failed"],
        "errors": errors,
        "crashes": plain["crashes"] + traced["crashes"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "wavezones" / "__init__.py").is_file():
        print(f"error: no wavezones source tree at {root / 'src' / 'wavezones'}; "
              "run from the root of a wavezones checkout", file=sys.stderr)
        return 2
    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    runner = Runner(root, args.workload, args.seed, args.seconds)
    try:
        result = (measure_traced if args.trace else measure)(runner, out_dir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for csv_file in out_dir.rglob("round*.csv"):
            csv_file.unlink()
    for line in result.pop("crashes")[:MAX_REPORTED]:
        print(f"round raised:\n{line}", file=sys.stderr)
    errors = result.pop("errors")
    for line in errors[:MAX_REPORTED]:
        print(f"check failed: {line}", file=sys.stderr)
    if len(errors) > MAX_REPORTED:
        print(f"... {len(errors) - MAX_REPORTED} more check failures", file=sys.stderr)
    (out_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
