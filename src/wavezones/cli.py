"""Command line front end.

Subcommands: ``dispersion`` (branch tables / two-panel figure), ``zones``
(classified (t, V) grid), ``field`` (oracle vs assembled asymptotics with
per-term breakdown), ``compare`` (acceptance report), ``scalar``
(single-layer reference diagram and field).

Every file output starts with a config-echo header; CSV cells are written
with 17 significant digits and LF line endings so reruns are byte-identical.
Exit code 0 means every requested computation converged.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from concurrent.futures import ThreadPoolExecutor

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


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        n, m = text.lower().split("x")
        n, m = int(n), int(m)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"grid must look like 60x40, got {text!r}") from exc
    if n < 1 or m < 1:
        raise argparse.ArgumentTypeError("grid dimensions must be positive")
    return n, m


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
        text = json.dumps(json_obj, indent=2, sort_keys=True) + "\n"
    else:
        text = "".join(f"# {line}\n" for line in header) + "".join(rows or [])
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_dispersion(args: argparse.Namespace, params: WaveguideParams) -> int:
    cp = crossing_point(params)
    num = max(args.grid[0], 2)
    w_lo, w_hi = 0.2 * params.omega1, 2.2 * cp.omega_c
    table = sample_diagram(params, w_lo, w_hi, num)
    header = _config_echo(args, params) + ["columns: omega,k1,k2,vg1,vg2"]
    rows = [
        ",".join(_num(float(rec[name])) for name in ("omega", "k1", "k2", "vg1", "vg2")) + "\n"
        for rec in table
    ]
    json_obj = {
        "config": header,
        "rows": [
            {name: float(rec[name]) for name in ("omega", "k1", "k2", "vg1", "vg2")}
            for rec in table
        ],
    }
    _emit(args, header, ["omega,k1,k2,vg1,vg2\n"] + rows, json_obj,
          lambda: svg_dispersion(table, header[0]))
    return 0


def _zone_rows(diag: ZoneDiagram) -> list[str]:
    rows = ["t,V,label\n"]
    for i, V in enumerate(diag.v_grid):
        for j, t in enumerate(diag.t_grid):
            rows.append(f"{_num(float(t))},{_num(float(V))},{diag.labels[i][j]}\n")
    return rows


def cmd_zones(args: argparse.Namespace, params: WaveguideParams) -> int:
    nt, nv = args.grid
    if args.scalar:
        t_grid = np.linspace(args.t_min, args.t_max, nt)
        v_grid = np.linspace(args.v_min, args.v_max, nv)
        labels = [
            [
                scalar_zone_classify(float(t), float(V) * float(t), params.c1,
                                     params.omega1, args.S).kind
                for t in t_grid
            ]
            for V in v_grid
        ]
        diag = ZoneDiagram(t_grid=t_grid, v_grid=v_grid, labels=labels,
                           boundaries={}, monotone=True)
    else:
        diag = zone_diagram(params, (args.t_min, args.t_max),
                            (args.v_min, args.v_max), (nt, nv), args.S)
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


def _map(fn, items, threads: int) -> list:
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _assembled(task):
    t, V, params, S = task
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
    t_vals = np.linspace(args.t_min, args.t_max, nt) if nt > 1 else [args.t_min]
    v_vals = np.linspace(args.v_min, args.v_max, nv) if nv > 1 else [args.v_min]
    tasks = [(float(t), float(V), params, args.S) for t in t_vals for V in v_vals]
    fvs = _map(_assembled, tasks, args.threads)
    # the points the assembly did not evaluate by quadrature go to the oracle
    # together, so points on the same quadrature grid share its frequency
    # tables; with threads, each thread takes a contiguous share of them
    need = [i for i, fv in enumerate(fvs) if fv is not None and not fv.used_oracle]
    shares = [s.tolist() for s in np.array_split(need, max(args.threads, 1)) if s.size]

    def oracle(share):
        t = np.array([tasks[i][0] for i in share])
        return field_modal_integral(t, np.array([tasks[i][1] for i in share]) * t, params)

    u = [None if fv is None else fv.u for fv in fvs]
    for share, rows in zip(shares, _map(oracle, shares, args.threads)):
        for i, row in zip(share, rows):
            u[i] = row
    results = [_field_row(t, V, fv, ui) for (t, V, _, _), fv, ui in zip(tasks, fvs, u)]
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
                "u_oracle": [r[3], r[4]], "u_asym": [r[5], r[6]],
                "terms": r[7], "converged": r[8],
            }
            for r in results
        ],
    }
    _emit(args, header, rows, json_obj)
    return 0 if all(r[8] for r in results) else 1


def cmd_compare(args: argparse.Namespace, params: WaveguideParams) -> int:
    runners = [getattr(acceptance, f"criterion_{i:02d}") for i in range(1, 13)]
    results = _map(lambda r: r(params), runners, args.threads)
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
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
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
    t_vals = np.linspace(args.t_min, args.t_max, nt) if nt > 1 else [args.t_min]
    v_vals = np.linspace(args.v_min, args.v_max, nv) if nv > 1 else [args.v_min]
    header = _config_echo(args, params) + ["columns: t,V,label,u_exact,u_far"]
    rows = ["t,V,label,u_exact,u_far\n"]
    points = []
    for t in t_vals:
        for V in v_vals:
            x = float(V) * float(t)
            lab = scalar_zone_classify(float(t), x, params.c1, params.omega1, args.S).kind
            exact = scalar_kg_exact(float(t), x, params.c1, params.omega1)
            far = (
                scalar_kg_far(float(t), x, params.c1, params.omega1, args.S)
                if lab == "far"
                else np.nan
            )
            rows.append(
                f"{_num(float(t))},{_num(float(V))},{lab},"
                f"{_num(exact)},{_num(far)}\n"
            )
            points.append(
                {"t": float(t), "V": float(V), "label": lab,
                 "u_exact": exact, "u_far": None if np.isnan(far) else far}
            )
    _emit(args, header, rows, {"config": header, "points": points})
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavezones",
        description="Transient two-layer waveguide fields: dispersion, zones, "
        "asymptotics, and the quadrature oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defs = {
        "dispersion": (cmd_dispersion, "branch tables and the two-panel figure"),
        "zones": (cmd_zones, "classify a (t, V) grid"),
        "field": (cmd_field, "oracle vs assembled field on a (t, V) grid"),
        "compare": (cmd_compare, "run the acceptance criteria, emit a JSON report"),
        "scalar": (cmd_scalar, "single-layer reference zones and field"),
    }
    for name, (func, help_text) in defs.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--params", help="JSON parameter file (default preset otherwise)")
        p.add_argument("--S", type=float, default=3.0, help="separation threshold")
        p.add_argument("--t-min", type=float, default=1.0)
        p.add_argument("--t-max", type=float, default=500.0)
        p.add_argument("--v-min", type=float, default=0.5)
        p.add_argument("--v-max", type=float, default=2.5)
        p.add_argument("--grid", type=_parse_grid, default=(60, 40),
                       help="NxM points (t by V; dispersion uses N omega samples)")
        p.add_argument("--out", help="output path (stdout otherwise)")
        p.add_argument("--format", choices=("csv", "json", "svg"), default="csv")
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--scalar", action="store_true",
                       help="zones: classify the single-layer reference instead")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
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
