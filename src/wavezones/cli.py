"""Command line front end.

Subcommands: ``dispersion`` (branch tables / two-panel figure), ``zones``
(classified (t, V) grid), ``field`` (oracle vs assembled asymptotics with
per-term breakdown), ``compare`` (acceptance report), ``scalar``
(single-layer reference diagram and field).

Each subcommand takes only the options it reads.  Every file output starts
with a config-echo header listing them; CSV cells are written with 17
significant digits and LF line endings so reruns are byte-identical.  Exit
code 0 means every requested computation converged; 2 means bad input.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import acceptance
from .asymptotics import assemble_field
from .dispersion import sample_diagram
from .errors import NoConvergence, WavezonesError
from .model import DEFAULT_PARAMS, WaveguideParams, crossing_point, load_params
from .oracle import field_modal_integral, scalar_kg_exact, scalar_kg_far
from .svg import svg_dispersion, svg_zones
from .zones import ZoneDiagram, scalar_zone_classify, zone_diagram

__all__ = ["main", "cmd_dispersion", "cmd_zones", "cmd_field", "cmd_compare", "cmd_scalar"]


def _num(v: float) -> str:
    return f"{v:.17g}"


def _json_num(v: float) -> float | None:
    """v for a JSON document, which has no NaN: null there."""
    return None if math.isnan(v) else v


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        n, m = text.lower().split("x")
        n, m = int(n), int(m)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"grid must look like 60x40, got {text!r}") from exc
    if n < 1 or m < 1:
        raise argparse.ArgumentTypeError(f"grid dimensions must be positive, got {text!r}")
    return n, m


def _omega_grid(text: str) -> tuple[int, int]:
    n, m = _parse_grid(text)
    if m != 1 or n < 2:
        raise argparse.ArgumentTypeError(f"dispersion samples omega only: need Nx1 with N >= 2, got {text!r}")
    return n, m


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _positive(text: str) -> float:
    value = _finite(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _window_error(args: argparse.Namespace) -> str | None:
    """The (t, V) range rule of zones and field, which spans two options."""
    if args.command not in ("zones", "field"):
        return None
    for axis in ("t", "v"):
        lo, hi = getattr(args, f"{axis}_min"), getattr(args, f"{axis}_max")
        if args.command == "zones" and not 0.0 < lo < hi:
            return f"argument --{axis}-min/--{axis}-max: need 0 < min < max, got {lo!r} and {hi!r}"
        if args.command == "field" and not min(lo, hi) > 0.0:
            return f"argument --{axis}-min/--{axis}-max: need both positive, got {lo!r} and {hi!r}"
    return None


def _config_echo(args: argparse.Namespace, params: WaveguideParams) -> list[str]:
    pairs = " ".join(
        f"{f.name}={getattr(params, f.name):.17g}" for f in dataclasses.fields(params)
    )
    shown = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "params") and v is not None
    }
    opts = " ".join(f"{k.replace('_', '-')}={v}" for k, v in shown.items())
    return [f"wavezones {args.command}", f"params: {pairs}", f"config: {opts}"]


def _emit(args: argparse.Namespace, header: list[str], rows: list[str] | None,
          json_obj=None, render_svg=None) -> None:
    """Write the requested format; the SVG is only rendered when asked for."""
    fmt = args.format
    if fmt == "svg":
        text = render_svg() if render_svg is not None else ""
    elif fmt == "json":
        text = json.dumps(json_obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    else:
        text = "".join(f"# {line}\n" for line in header) + "".join(rows or [])
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_dispersion(args: argparse.Namespace, params: WaveguideParams) -> int:
    cp = crossing_point(params)
    w_lo, w_hi = 0.2 * params.omega1, 2.2 * cp.omega_c
    table = sample_diagram(params, w_lo, w_hi, args.grid[0])
    header = _config_echo(args, params) + ["columns: omega,k1,k2,vg1,vg2"]
    rows = [
        ",".join(_num(float(rec[name])) for name in ("omega", "k1", "k2", "vg1", "vg2")) + "\n"
        for rec in table
    ]
    json_obj = {
        "config": header,
        "rows": [
            {name: _json_num(float(rec[name])) for name in ("omega", "k1", "k2", "vg1", "vg2")}
            for rec in table
        ],
    }
    _emit(args, header, ["omega,k1,k2,vg1,vg2\n"] + rows, json_obj,
          lambda: svg_dispersion(table, header[0]))
    return 0


def _zone_rows(diag: ZoneDiagram) -> list[str]:
    rows = ["t,V,label\n"]
    ts = [_num(t) for t in diag.t_grid.tolist()]
    for V, labels in zip(diag.v_grid.tolist(), diag.labels):
        v = _num(V)
        rows += [f"{t},{v},{label}\n" for t, label in zip(ts, labels)]
    return rows


def cmd_zones(args: argparse.Namespace, params: WaveguideParams) -> int:
    diag = zone_diagram(params, (args.t_min, args.t_max), (args.v_min, args.v_max), args.grid, args.S)
    header = _config_echo(args, params) + ["columns: t,V,label"]
    rows = _zone_rows(diag)
    json_obj = {
        "config": header,
        "t": [float(t) for t in diag.t_grid],
        "V": [float(v) for v in diag.v_grid],
        "labels": diag.labels,
        "monotone": diag.monotone,
    }
    _emit(args, header, rows, json_obj, lambda: svg_zones(diag, header[0]))
    return 0


def _assembled(t: float, V: float, params: WaveguideParams, S: float):
    try:
        return assemble_field(t, V * t, params, S)
    except NoConvergence:
        return None


def _field_row(t, V, fv, u):
    """One output row; fv None or a NaN oracle value marks a failed point."""
    if fv is None or np.isnan(u[0]):
        return (t, V, "?", np.nan, np.nan, np.nan, np.nan, "-", False)
    terms = "+".join(f"{d.kind}[{' '.join(str(i) for i in d.saddles)}]" for d in fv.terms)
    return (t, V, fv.zone.primary, float(u[0]), float(u[1]),
            float(fv.u[0]), float(fv.u[1]), terms or "-", True)


def cmd_field(args: argparse.Namespace, params: WaveguideParams) -> int:
    nt, nv = args.grid
    v_grid = np.linspace(args.v_min, args.v_max, nv).tolist()
    points = [(t, V) for t in np.linspace(args.t_min, args.t_max, nt).tolist() for V in v_grid]
    fvs = [_assembled(t, V, params, args.S) for t, V in points]
    # the points the assembly did not evaluate by quadrature go to the oracle
    # in one call, so points on the same quadrature grid share its frequency
    # tables; column by column (V, then t), so that the points of a grid come
    # equally spaced along a ray and the oracle chains their phase factors
    need = sorted((i for i, fv in enumerate(fvs) if fv is not None and not fv.used_oracle), key=lambda i: i % nv)
    u = [None if fv is None else fv.u for fv in fvs]
    t = np.array([points[i][0] for i in need])
    for i, row in zip(need, field_modal_integral(t, np.array([points[i][1] for i in need]) * t, params)):
        u[i] = row
    results = [_field_row(t, V, fv, ui) for (t, V), fv, ui in zip(points, fvs, u)]
    header = _config_echo(args, params) + [
        "columns: t,V,zone,u1_oracle,u2_oracle,u1_asym,u2_asym,terms,converged"
    ]
    rows = ["t,V,zone,u1_oracle,u2_oracle,u1_asym,u2_asym,terms,converged\n"]
    for r in results:
        rows.append(
            ",".join(
                [_num(r[0]), _num(r[1]), r[2]] + [_num(v) for v in r[3:7]]
                + [r[7], "1" if r[8] else "0"]
            )
            + "\n"
        )
    json_obj = {
        "config": header,
        "points": [
            {
                "t": r[0], "V": r[1], "zone": r[2],
                "u_oracle": [_json_num(v) for v in r[3:5]], "u_asym": [_json_num(v) for v in r[5:7]],
                "terms": r[7], "converged": r[8],
            }
            for r in results
        ],
    }
    _emit(args, header, rows, json_obj)
    return 0 if all(r[8] for r in results) else 1


def cmd_compare(args: argparse.Namespace, params: WaveguideParams) -> int:
    results = [run(params) for run in acceptance.CRITERIA]
    report = {
        "config": _config_echo(args, params),
        "criteria": [
            {
                "id": r.ident,
                "title": r.title,
                "passed": r.passed,
                "measure": r.measure,
            }
            for r in results
        ],
        "passed": sum(r.passed for r in results),
        "total": len(results),
    }
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    for r in results:
        print(r.line(), file=sys.stderr)
    return 0 if all(r.passed for r in results) else 1


def cmd_scalar(args: argparse.Namespace, params: WaveguideParams) -> int:
    nt, nv = args.grid
    t_grid = np.linspace(args.t_min, args.t_max, nt)
    v_grid = np.linspace(args.v_min, args.v_max, nv)
    t_vals, v_vals = t_grid.tolist(), v_grid.tolist()
    c, omega = params.c1, params.omega1
    labels = [[scalar_zone_classify(t, V * t, c, omega, args.S).kind for t in t_vals] for V in v_vals]
    header = _config_echo(args, params) + ["columns: t,V,label,u_exact,u_far"]
    rows = ["t,V,label,u_exact,u_far\n"]
    points = []
    for j, t in enumerate(t_vals):
        for i, V in enumerate(v_vals):
            lab = labels[i][j]
            exact = scalar_kg_exact(t, V * t, c, omega)
            far = scalar_kg_far(t, V * t, c, omega, args.S) if lab == "far" else np.nan
            rows.append(f"{_num(t)},{_num(V)},{lab},{_num(exact)},{_num(far)}\n")
            points.append(
                {"t": t, "V": V, "label": lab,
                 "u_exact": exact, "u_far": _json_num(far)}
            )
    diag = ZoneDiagram(t_grid=t_grid, v_grid=v_grid, labels=labels, boundaries={}, monotone=True)
    _emit(args, header, rows, {"config": header, "points": points},
          lambda: svg_zones(diag, header[0]))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--params", help="JSON parameter file (default preset otherwise)")
    common.add_argument("--out", help="output path (stdout otherwise)")
    window = argparse.ArgumentParser(add_help=False)
    window.add_argument("--S", type=_positive, default=3.0, help="separation threshold")
    window.add_argument("--t-min", type=_finite, default=1.0)
    window.add_argument("--t-max", type=_finite, default=500.0)
    window.add_argument("--v-min", type=_finite, default=0.5)
    window.add_argument("--v-max", type=_finite, default=2.5)

    parser = argparse.ArgumentParser(
        prog="wavezones",
        description="Transient two-layer waveguide fields: dispersion, zones, "
        "asymptotics, and the quadrature oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    any_format = ("csv", "json", "svg")
    tv_grid = (_parse_grid, (60, 40), "NxM points, t by V")
    defs = {
        "dispersion": (cmd_dispersion, "branch tables and the two-panel figure", [], any_format,
                       (_omega_grid, (60, 1), "Nx1: N >= 2 omega samples")),
        "zones": (cmd_zones, "classify a (t, V) grid", [window], any_format, tv_grid),
        "field": (cmd_field, "oracle vs assembled field on a (t, V) grid", [window], ("csv", "json"), tv_grid),
        "compare": (cmd_compare, "run the acceptance criteria, emit a JSON report", [], None, None),
        "scalar": (cmd_scalar, "single-layer reference zones and field", [window], any_format, tv_grid),
    }
    for name, (func, help_text, parents, formats, grid) in defs.items():
        p = sub.add_parser(name, help=help_text, parents=[common, *parents])
        p.set_defaults(func=func)
        if formats:
            grid_type, grid_default, grid_help = grid
            p.add_argument("--grid", type=grid_type, default=grid_default, help=grid_help)
            p.add_argument("--format", choices=formats, default="csv")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if (bad := _window_error(args)) is not None:
        parser.error(bad)
    try:
        params = load_params(args.params) if args.params else DEFAULT_PARAMS
    except WavezonesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args, params)
    except WavezonesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
