"""Command-line interface: formats, determinism, exit codes.

All invocations go through main(argv) in-process; no subprocesses.
"""

import contextlib
import io
import json
import re
import xml.etree.ElementTree as ET

import pytest

from wavezones import acceptance, cli, oracle
from wavezones.cli import main
from wavezones.errors import NoConvergence

KNOWN_LABELS = {"zero", "B", "Q", "J", "Ai", "SP", "SPe"}


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def test_dispersion_csv(tmp_path):
    out = tmp_path / "d.csv"
    rc = main(["dispersion", "--grid", "12x1", "--out", str(out)])
    assert rc == 0
    txt = _read(out)
    lines = txt.strip().splitlines()
    assert lines[0] == "# wavezones dispersion"
    assert any(l.startswith("# params: c1=2 c2=1.8") for l in lines)
    assert "omega,k1,k2,vg1,vg2" in lines
    data = [l for l in lines if not l.startswith("#") and not l.startswith("omega")]
    assert len(data) == 12
    # below both cutoffs every wavenumber column is nan
    first = data[0].split(",")
    assert first[1] == "nan" and first[2] == "nan"
    # full round-trip precision in the numeric formatting
    assert "0.60000000000000009" in txt


def test_reruns_are_byte_identical(tmp_path):
    out = tmp_path / "z.csv"
    argv = ["zones", "--grid", "10x8", "--t-max", "90", "--out", str(out)]
    assert main(argv) == 0
    first = _read(out)
    assert main(argv) == 0
    assert _read(out) == first


def test_zones_csv_labels(tmp_path):
    out = tmp_path / "z.csv"
    assert main(["zones", "--grid", "16x12", "--t-max", "120", "--out", str(out)]) == 0
    rows = [l.split(",") for l in _read(out).strip().splitlines() if not l.startswith("#")]
    assert rows[0] == ["t", "V", "label"]
    labels = {r[2] for r in rows[1:]}
    assert labels <= KNOWN_LABELS
    assert "zero" in labels and "B" in labels


def test_zones_svg_parses(tmp_path):
    out = tmp_path / "z.svg"
    assert main(["zones", "--grid", "10x8", "--t-max", "80", "--format", "svg", "--out", str(out)]) == 0
    doc = _read(out)
    root = ET.fromstring(doc)
    assert root.tag.endswith("svg")
    assert "<rect" in doc
    # the config echo survives as a comment
    assert "wavezones zones" in doc


def test_csv_output_renders_no_svg(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("SVG rendered for csv output")

    monkeypatch.setattr(cli, "svg_zones", refuse)
    monkeypatch.setattr(cli, "svg_dispersion", refuse)
    assert main(["zones", "--grid", "6x4", "--t-max", "60", "--out", str(tmp_path / "z.csv")]) == 0
    assert main(["dispersion", "--grid", "6x1", "--out", str(tmp_path / "d.csv")]) == 0
    assert main(["zones", "--grid", "6x4", "--t-max", "60", "--format", "json",
                 "--out", str(tmp_path / "z.json")]) == 0


def test_compare_report_is_json(tmp_path, monkeypatch):
    # the oracle-heavy criteria are stubbed; the rest, c09 included, run for
    # real so their results go through the JSON encoder
    for ident in ("01", "03", "06", "12"):
        stub = acceptance.CriterionResult(f"c{ident}", "stub", True, "stubbed", 0.0)
        monkeypatch.setattr(acceptance, f"criterion_{ident}", lambda params, stub=stub: stub)
    out = tmp_path / "c.json"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["compare", "--out", str(out)])
    assert rc == 0, err.getvalue()
    doc = json.loads(_read(out))
    assert doc["total"] == 12 and doc["passed"] == 12
    assert [c["id"] for c in doc["criteria"]] == [f"c{i:02d}" for i in range(1, 13)]
    c09 = next(c for c in doc["criteria"] if c["id"] == "c09")
    assert c09["passed"] is True
    assert "branch points" in c09["measure"]


def test_dispersion_svg_parses(tmp_path):
    out = tmp_path / "d.svg"
    assert main(["dispersion", "--grid", "40x1", "--format", "svg", "--out", str(out)]) == 0
    root = ET.fromstring(_read(out))
    assert root.tag.endswith("svg")


def test_field_json_point(tmp_path):
    out = tmp_path / "f.json"
    rc = main([
        "field", "--t-min", "40", "--t-max", "40", "--v-min", "1.0", "--v-max", "1.0",
        "--grid", "1x1", "--format", "json", "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(_read(out))
    assert set(doc) == {"config", "points"}
    (pt,) = doc["points"]
    assert pt["t"] == 40.0 and pt["V"] == 1.0
    assert pt["converged"] is True
    assert pt["zone"] == "SP"
    assert pt["terms"] == "SP[1]+SP[2]+SPe[6]"
    num = max(abs(a - b) for a, b in zip(pt["u_asym"], pt["u_oracle"]))
    den = max(abs(b) for b in pt["u_oracle"])
    assert num / den < 0.05


def test_field_reports_unconverged_points(tmp_path, monkeypatch):
    # no tolerance can be met: every point of the batched oracle call fails
    # on its own, and field reports each as a converged=0 row and exits 1
    monkeypatch.setattr(oracle, "_TOL", 0.0)
    monkeypatch.setattr(oracle, "_ABS_FLOOR", 0.0)
    out = tmp_path / "f.csv"
    rc = main(["field", "--t-min", "30", "--t-max", "30", "--v-min", "1.0", "--v-max", "2.2",
               "--grid", "1x2", "--out", str(out)])
    assert rc == 1
    rows = [l.split(",") for l in _read(out).strip().splitlines() if not l.startswith("#")]
    assert rows[0][-1] == "converged" and len(rows) == 3
    for r in rows[1:]:
        assert r[2] == "?" and r[3] == "nan" and r[-1] == "0"


def test_field_reports_a_failed_assembly(tmp_path, monkeypatch):
    # assemble_field raising NoConvergence at one point marks that row ? and
    # converged=0 and the exit code 1, and leaves the other rows as they are
    argv = ["field", "--t-min", "30", "--t-max", "30", "--v-min", "1.0", "--v-max", "2.2", "--grid", "1x3"]
    assert main(argv + ["--out", str(tmp_path / "ok.csv")]) == 0
    assemble = cli.assemble_field

    def failing(t, x, params, S):
        if abs(x / t - 1.6) < 1e-9:
            raise NoConvergence(f"forced failure at t={t!r}, x={x!r}")
        return assemble(t, x, params, S)

    monkeypatch.setattr(cli, "assemble_field", failing)
    assert main(argv + ["--out", str(tmp_path / "f.csv")]) == 1
    ok, failed = ([l.split(",") for l in _read(tmp_path / name).splitlines() if not l.startswith("#")]
                  for name in ("ok.csv", "f.csv"))
    assert len(failed) == 4 and float(failed[2][1]) == 1.6
    assert failed[2][2:] == ["?", "nan", "nan", "nan", "nan", "-", "0"]
    assert ok[2][2] != "?" and ok[2][-1] == "1"
    assert [failed[i] for i in (0, 1, 3)] == [ok[i] for i in (0, 1, 3)]


def test_scalar_csv(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["scalar", "--grid", "6x5", "--t-min", "2", "--t-max", "40", "--out", str(out)]) == 0
    rows = [l.split(",") for l in _read(out).strip().splitlines() if not l.startswith("#")]
    assert rows[0] == ["t", "V", "label", "u_exact", "u_far"]
    far = [r for r in rows[1:] if r[2] == "far"]
    assert far
    for r in far:
        exact, approx = float(r[3]), float(r[4])
        assert approx == approx  # u_far is only populated in its own zone
    off = [r for r in rows[1:] if r[2] != "far"]
    assert all(r[4] == "nan" for r in off)


def test_bad_params_file_exit_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"c1": -1.0, "c2": 1.8, "omega1": 3.0, "omega2": 3.5, "mu": 0.5}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["dispersion", "--params", str(bad), "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "c1" in err.getvalue()


def test_scalar_svg_shows_single_layer_labels(tmp_path):
    out = tmp_path / "s.svg"
    assert main(["scalar", "--grid", "30x20", "--t-min", "0.05", "--t-max", "3", "--format", "svg",
                 "--out", str(out)]) == 0
    root = ET.fromstring(_read(out))
    legend = {el.text for el in root.iter() if el.tag.endswith("text") and el.get("x") == "620"}
    assert legend == {"far", "bessel", "near", "zero"}


@pytest.mark.parametrize("command", ["zones", "scalar"])
@pytest.mark.parametrize("grid", ["1x5", "5x1"])
def test_svg_with_one_point_on_an_axis(tmp_path, command, grid):
    out = tmp_path / "z.svg"
    assert main([command, "--grid", grid, "--t-max", "60", "--format", "svg", "--out", str(out)]) == 0
    cells = [el for el in ET.fromstring(_read(out)).iter()
             if el.tag.endswith("rect") and el.get("fill") != "none" and el.get("x") != "600"]
    assert len(cells) == 5
    for el in cells:
        assert 0.0 < float(el.get("width")) <= 520.0 and 0.0 < float(el.get("height")) <= 380.0


HELP_OPTIONS = {
    "dispersion": {"--params", "--out", "--grid", "--format"},
    "zones": {"--params", "--out", "--S", "--t-min", "--t-max", "--v-min", "--v-max", "--grid", "--format"},
    "compare": {"--params", "--out"},
}
HELP_OPTIONS["field"] = HELP_OPTIONS["scalar"] = HELP_OPTIONS["zones"]


@pytest.mark.parametrize("command", sorted(HELP_OPTIONS))
def test_help_lists_only_the_options_read(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    shown = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", capsys.readouterr().out)) - {"--help"}
    assert shown == HELP_OPTIONS[command]


def _usage_error(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        with pytest.raises(SystemExit) as exc:
            main(argv)
    assert exc.value.code == 2
    return err.getvalue()


@pytest.mark.parametrize("argv", [
    ["dispersion", "--S", "3"],
    ["compare", "--grid", "4x4"],
    ["compare", "--format", "csv"],
    ["field", "--format", "svg"],
    ["zones", "--threads", "2"],
    ["zones", "--scalar"],
])
def test_options_a_subcommand_does_not_read_are_rejected(argv):
    assert argv[1] in _usage_error(argv)


@pytest.mark.parametrize("argv, option, value", [
    (["zones", "--S", "0"], "--S", "0"),
    (["field", "--S", "-1"], "--S", "-1"),
    (["scalar", "--S", "nan"], "--S", "nan"),
    (["zones", "--t-min", "50", "--t-max", "10"], "--t-min", "50.0"),
    (["zones", "--t-min", "0"], "--t-min", "0.0"),
    (["zones", "--v-min", "3"], "--v-min", "3.0"),
    (["zones", "--v-max", "nan"], "--v-max", "nan"),
    (["scalar", "--t-max", "inf"], "--t-max", "inf"),
    (["field", "--t-min", "0"], "--t-min", "0.0"),
    (["field", "--v-min", "-0.5"], "--v-min", "-0.5"),
])
def test_bad_window_rejected(argv, option, value, tmp_path):
    msg = _usage_error(argv + ["--out", str(tmp_path / "x.csv")])
    assert option in msg and value in msg
    assert not (tmp_path / "x.csv").exists()


def test_bad_grid_rejected(tmp_path):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            main(["zones", "--grid", "abc", "--out", str(tmp_path / "y.csv")])
    assert exc.value.code == 2
    assert "grid" in err.getvalue()


@pytest.mark.parametrize("grid", ["1x9", "12x8", "1x1"])
def test_dispersion_grid_must_be_n_by_1(grid, tmp_path):
    msg = _usage_error(["dispersion", "--grid", grid, "--out", str(tmp_path / "d.csv")])
    assert "--grid" in msg and grid in msg
    assert not (tmp_path / "d.csv").exists()


def test_dispersion_default_grid(capsys):
    assert main(["dispersion"]) == 0
    rows = [l for l in capsys.readouterr().out.splitlines() if l and l[0].isdigit()]
    assert len(rows) == 60


def test_stdout_default(capsys):
    rc = main(["dispersion", "--grid", "6x1"])
    assert rc == 0
    cap = capsys.readouterr()
    assert "# wavezones dispersion" in cap.out
    assert "omega,k1,k2,vg1,vg2" in cap.out
