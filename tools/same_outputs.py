"""Check that two source trees write the same CLI outputs.

    python tools/same_outputs.py PARENT_TREE

Runs a fixed set of ``wavezones`` commands once with this tree's ``src`` and
once with PARENT_TREE's ``src`` on PYTHONPATH, each in its own scratch
directory with the same relative ``--out`` name, and prints the first
differing line of each output that differs.  An output is the file the
command writes, its stderr and its exit code.  Only the timings of
``compare`` are ignored: the ``runtime ...s`` of its report and the
``[...s]`` of its stderr lines.  The ``out=`` path of a ``config:`` line is
the same relative name in both runs.  Exits 1 when any output differs.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from itertools import zip_longest
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
PRESET = {"c1": 2.0, "c2": 1.8, "omega1": 3.0, "omega2": 3.5}
FIELD_GRID = ["--grid", "6x5", "--t-min", "30", "--t-max", "220", "--v-min", "0.65", "--v-max", "2.2"]
WIDE = ["--t-min", "2", "--t-max", "300", "--v-min", "0.3", "--v-max", "2.1"]
ZONE_WINDOWS = {"40x60": ["--grid", "40x60"], "40x400": ["--grid", "40x400", "--t-min", "5", "--t-max", "600",
                                                         "--v-min", "0.3", "--v-max", "2.1"]}
RUNTIME = re.compile(r"(runtime |\[)\d+(\.\d+)?s")


def cases():
    """(name, mu, argv) of every compared output; mu None runs the default preset."""
    yield "field default", None, ["field"]
    for fmt in ("csv", "json"):
        yield f"field 6x5 {fmt}", None, ["field", *FIELD_GRID, "--format", fmt]
    for mu in ("0.5", "1.0"):
        yield f"field 8x8 mu={mu}", mu, ["field", "--grid", "8x8", *WIDE]
    for mu in ("0", "0.05", "0.5", "1.0"):
        for window, argv in ZONE_WINDOWS.items():
            for fmt in ("csv", "json", "svg"):
                yield f"zones {window} mu={mu} {fmt}", mu, ["zones", *argv, "--format", fmt]
    yield "dispersion", None, ["dispersion"]
    yield "scalar", None, ["scalar"]
    yield "compare", None, ["compare"]


def run(tree: Path, mu, argv, workdir: Path) -> list[str]:
    """The output of one command run against tree's sources, as lines."""
    workdir.mkdir(parents=True)
    if mu is not None:
        (workdir / "params.json").write_text(json.dumps({**PRESET, "mu": float(mu)}))
        argv = [*argv, "--params", "params.json"]
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-m", "wavezones.cli", *argv, "--out", "out"],
                          cwd=workdir, env=env, capture_output=True, text=True)
    out = workdir / "out"
    text = (out.read_text() if out.exists() else "") + proc.stderr + f"exit {proc.returncode}\n"
    return RUNTIME.sub(r"\1...s", text).splitlines()


def first_difference(a: list[str], b: list[str]):
    """(line number, line of a, line of b) of the first difference, or None."""
    for i, (left, right) in enumerate(zip_longest(a, b, fillvalue="<end>"), 1):
        if left != right:
            return i, left, right
    return None


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    parent = Path(argv[0]).resolve()
    todo = list(cases())
    with tempfile.TemporaryDirectory() as scratch, ThreadPoolExecutor(max_workers=2) as pool:
        jobs = [
            [pool.submit(run, tree, mu, args, Path(scratch) / side / str(i)) for side, tree in
             (("parent", parent), ("this", HERE))]
            for i, (_, mu, args) in enumerate(todo)
        ]
        differ = 0
        for (name, _, _), (old, new) in zip(todo, jobs):
            diff = first_difference(old.result(), new.result())
            if diff is None:
                print(f"same     {name}")
            else:
                differ += 1
                line, left, right = diff
                print(f"DIFFERS  {name}: line {line}\n  parent: {left}\n  this:   {right}")
    print(f"{differ} of {len(todo)} outputs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
