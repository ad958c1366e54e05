"""Smoke runs of the benchmark at tiny size, and its checks on perturbed outputs.

Run from the root of the repository:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402

TINY = {"field_grid": 0.4, "zone_atlas": 0.1, "ray_assembly": 0.05}


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_traced_round(name, tmp_path):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", name, "--seed", "3",
           "--rounds", "1", "--size", str(TINY[name]), "--trace", "1", "--out-dir", str(tmp_path)]
    env = {"PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1", "PATH": "/usr/bin:/bin"}
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(proc.stdout.splitlines()[-1])
    assert rec["errors"] == [] and rec["failed"] == 0 and rec["points"] > 0
    per_layer = {m["name"] for m in _spec()["per_layer"]}
    assert set(rec["layers"]) | {"trace.overhead_s"} == per_layer
    if name != "field_grid":
        assert rec["layers"]["oracle.calls"][0] == 0
    assert (tmp_path / "spans.jsonl.gz").stat().st_size > 0


def test_refuses_without_source_tree(tmp_path):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "zone_atlas",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_json_lists_the_run_metrics():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == ["field_grid", "zone_atlas", "ray_assembly"]
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "points_per_s", "peak_rss_mb"}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


# ---------------------------------------------------------------------------
# every check must fail on a deliberately perturbed output


def _rewrite_csv(src: Path, dst: Path, edit) -> Path:
    """Copy a CLI CSV, passing its data rows (lists of cells) through edit."""
    lines = src.read_text().splitlines(keepends=True)
    head = [line for line in lines if line.startswith("#")]
    columns = lines[len(head)]
    rows = [line.rstrip("\n").split(",") for line in lines[len(head) + 1:]]
    rows = edit(columns.rstrip("\n").split(","), rows)
    dst.write_text("".join(head) + columns + "".join(",".join(r) + "\n" for r in rows))
    return dst


def _perturbed(res, tmp_path, edit):
    return dataclasses.replace(res, out_path=_rewrite_csv(res.out_path, tmp_path / "bad.csv", edit))


def _set(column, value, where):
    def edit(cols, rows):
        i = cols.index(column)
        for row in rows:
            if where(dict(zip(cols, row))):
                row[i] = value
                break
        return rows
    return edit


@pytest.fixture(scope="module")
def field(tmp_path_factory):
    wl = workloads.FieldGrid()
    wl.setup()
    res = wl.run(wl.draw(random.Random(1), 0.4), tmp_path_factory.mktemp("field") / "round.csv")
    assert wl.check_rounds([res]) == []
    return wl, res


def test_field_check_catches_nonconvergence(field, tmp_path):
    wl, res = field
    unconverged = _perturbed(res, tmp_path, _set("converged", "0", lambda r: True))
    assert wl.failed_points(unconverged) == 1
    assert wl.check_rounds([unconverged])
    assert wl.check_rounds([dataclasses.replace(unconverged, exit_code=1)]) == []
    assert wl.check_rounds([dataclasses.replace(res, exit_code=1)])


def test_field_check_catches_noise_beyond_front(field, tmp_path):
    wl, res = field
    loud = _set("u1_oracle", "1e-3", lambda r: float(r["V"]) >= wl.params.c1)
    assert wl.check_rounds([_perturbed(res, tmp_path, loud)])


def test_field_check_catches_sp_mismatch(field, tmp_path):
    wl, res = field
    assert any("SP point" in e for e in wl.check_rounds([_perturbed(res, tmp_path, _set(
        "u1_asym", "0.5", lambda r: r["zone"] == "SP"))]))


def test_field_check_catches_decoupled_mismatch(field):
    wl, _ = field
    assert wl.check_decoupled(random.Random(2), n=1) == []
    good = wl.wz
    wl.wz = types.SimpleNamespace(field_modal_integral=lambda t, x, p: good.field_modal_integral(t, x, p) + 0.01)
    try:
        assert wl.check_decoupled(random.Random(2), n=1)
    finally:
        wl.wz = good


@pytest.fixture(scope="module")
def zones(tmp_path_factory):
    wl = workloads.ZoneAtlas()
    wl.setup()
    res = wl.run(wl.draw(random.Random(1), 0.1), tmp_path_factory.mktemp("zones") / "round.csv")
    assert wl.check([res], None) == []
    return wl, res


def test_zone_check_catches_missing_row(zones, tmp_path):
    wl, res = zones
    assert wl.check([_perturbed(res, tmp_path, lambda cols, rows: rows[1:])], None)


def test_zone_check_catches_labels_across_the_front(zones, tmp_path):
    wl, res = zones
    fast = _set("label", "SP", lambda r: float(r["V"]) >= wl.params.c1)
    slow = _set("label", "zero", lambda r: float(r["V"]) < wl.params.c1)
    assert wl.check([_perturbed(res, tmp_path, fast)], None)
    assert wl.check([_perturbed(res, tmp_path, slow)], None)


def test_zone_check_catches_repeated_transition(zones, tmp_path):
    wl, res = zones

    def flicker(cols, rows):
        v, lab = cols.index("V"), cols.index("label")
        row_v = rows[0][v]
        cells = [r for r in rows if r[v] == row_v]
        for k, r in enumerate(cells):
            r[lab] = "SP" if k % 2 else "Ai"
        return rows

    assert any("twice" in e for e in wl.check([_perturbed(res, tmp_path, flicker)], None))


def test_zone_check_catches_wrong_saddle_count(zones):
    wl, res = zones
    good = wl.wz
    wl.wz = types.SimpleNamespace(find_real_saddles=lambda V, p: good.find_real_saddles(V, p)[1:])
    try:
        assert any("real saddles" in e for e in wl.check([res], None))
    finally:
        wl.wz = good


def test_zone_check_catches_wrong_extremum(zones):
    wl, res = zones
    good = wl.extrema
    wl.extrema = dict(good, max=dataclasses.replace(good["max"], v_e=good["max"].v_e + 1e-5))
    try:
        assert any("group-velocity max" in e for e in wl.check([res], None))
    finally:
        wl.extrema = good


def test_fd_extrema_match_the_ladder_speeds(zones):
    wl, _ = zones
    fd = workloads.fd_group_velocity_extrema(wl.params)
    assert math.isclose(fd["max"][0], wl.extrema["max"].v_e, abs_tol=1e-7)
    assert math.isclose(fd["min"][0], wl.extrema["min"].v_e, abs_tol=1e-7)


@pytest.fixture(scope="module")
def rays():
    wl = workloads.RayAssembly()
    wl.setup()
    res = wl.run(wl.draw(random.Random(1), 0.05), None)
    assert wl.check_values([res]) == []
    return wl, res


def test_ray_check_catches_fallback_and_nonfinite(rays):
    wl, res = rays
    nan = res.values.copy()
    nan[7, 1] = math.nan
    assert wl.check_values([dataclasses.replace(res, fallbacks=1)])
    assert wl.check_values([dataclasses.replace(res, values=nan)])


def test_ray_check_catches_envelope_mismatch(rays):
    wl, res = rays
    assert wl.check_envelope([1.1], random.Random(4), n=1) == []
    good = wl.wz
    wl.wz = types.SimpleNamespace(
        assemble_field=good.assemble_field,
        field_modal_integral=lambda t, x, p: good.field_modal_integral(t, x, p) + 1.0,
    )
    try:
        assert wl.check_envelope([1.1], random.Random(4), n=1)
    finally:
        wl.wz = good
