"""Self-contained SVG emission: dispersion panels and zone maps.

No plotting dependency; every figure is assembled from rects, polylines,
and text so golden-file tests stay byte-stable.  Coordinates are written
with two decimals to keep files small and diffs readable.
"""

from __future__ import annotations

import numpy as np

__all__ = ["svg_dispersion", "svg_zones"]

_ZONE_FILL = {
    "B": "#c7522a",
    "Q": "#dfa06e",
    "J": "#e5c185",
    "Ai": "#008585",
    "SP": "#74a892",
    "SPe": "#b8d4c7",
    "zero": "#f0f0f0",
    "far": "#74a892",
    "bessel": "#e5c185",
    "near": "#c7522a",
}
_FALLBACK_FILL = "#999999"


def _f(v: float) -> str:
    return f"{v:.2f}"


def _padded(lim):
    """An axis range of positive width: a degenerate range (a, a) widens by 10% of |a| (or 1) each way."""
    a, b = lim
    if a != b:
        return lim
    pad = 0.1 * abs(a) or 1.0
    return a - pad, a + pad


class _Panel:
    """Maps data coordinates into one pixel rectangle of the document."""

    def __init__(self, x0, y0, width, height, xlim, ylim):
        self.x0, self.y0 = x0, y0
        self.w, self.h = width, height
        self.xlim, self.ylim = _padded(xlim), _padded(ylim)

    def px(self, x: float) -> float:
        a, b = self.xlim
        return self.x0 + (x - a) / (b - a) * self.w

    def py(self, y: float) -> float:
        a, b = self.ylim
        return self.y0 + self.h - (y - a) / (b - a) * self.h

    def frame(self, title: str, xlabel: str, ylabel: str) -> list[str]:
        out = [
            f'<rect x="{_f(self.x0)}" y="{_f(self.y0)}" width="{_f(self.w)}" '
            f'height="{_f(self.h)}" fill="none" stroke="#333" stroke-width="1"/>',
            f'<text x="{_f(self.x0 + self.w / 2)}" y="{_f(self.y0 - 8)}" '
            f'text-anchor="middle" font-size="13">{title}</text>',
            f'<text x="{_f(self.x0 + self.w / 2)}" y="{_f(self.y0 + self.h + 30)}" '
            f'text-anchor="middle" font-size="11">{xlabel}</text>',
            f'<text x="{_f(self.x0 - 38)}" y="{_f(self.y0 + self.h / 2)}" '
            f'text-anchor="middle" font-size="11" transform="rotate(-90 '
            f'{_f(self.x0 - 38)} {_f(self.y0 + self.h / 2)})">{ylabel}</text>',
        ]
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            xv = self.xlim[0] + frac * (self.xlim[1] - self.xlim[0])
            yv = self.ylim[0] + frac * (self.ylim[1] - self.ylim[0])
            xp, yp = self.px(xv), self.py(yv)
            out.append(
                f'<line x1="{_f(xp)}" y1="{_f(self.y0 + self.h)}" x2="{_f(xp)}" '
                f'y2="{_f(self.y0 + self.h + 4)}" stroke="#333"/>'
            )
            out.append(
                f'<text x="{_f(xp)}" y="{_f(self.y0 + self.h + 15)}" '
                f'text-anchor="middle" font-size="9">{xv:.3g}</text>'
            )
            out.append(
                f'<line x1="{_f(self.x0 - 4)}" y1="{_f(yp)}" x2="{_f(self.x0)}" '
                f'y2="{_f(yp)}" stroke="#333"/>'
            )
            out.append(
                f'<text x="{_f(self.x0 - 6)}" y="{_f(yp + 3)}" '
                f'text-anchor="end" font-size="9">{yv:.3g}</text>'
            )
        return out

    def curve(self, xs, ys, color: str) -> list[str]:
        """Polyline split on NaN gaps (evanescent stretches)."""
        out = []
        run: list[str] = []
        for x, y in zip(np.asarray(xs, float), np.asarray(ys, float)):
            if np.isnan(x) or np.isnan(y):
                if len(run) > 1:
                    out.append(
                        f'<polyline points="{" ".join(run)}" fill="none" '
                        f'stroke="{color}" stroke-width="1.5"/>'
                    )
                run = []
                continue
            run.append(f"{_f(self.px(x))},{_f(self.py(y))}")
        if len(run) > 1:
            out.append(
                f'<polyline points="{" ".join(run)}" fill="none" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
        return out


def _document(width, height, body: list[str], comment: str | None) -> str:
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif">'
    ]
    if comment:
        head.insert(0, f"<!-- {comment} -->")
    return "\n".join(head + body + ["</svg>"]) + "\n"


def svg_dispersion(samples, comment: str | None = None) -> str:
    """Two panels from a sample_diagram table: k(omega) and v_g(omega)."""
    omega = samples["omega"]
    k_all = np.concatenate([samples["k1"], samples["k2"]])
    v_all = np.concatenate([samples["vg1"], samples["vg2"]])
    k_hi = float(np.nanmax(k_all)) if np.any(np.isfinite(k_all)) else 1.0
    v_hi = float(np.nanmax(v_all)) if np.any(np.isfinite(v_all)) else 1.0
    wlim = (float(omega[0]), float(omega[-1]))
    left = _Panel(60, 40, 330, 300, (0.0, 1.05 * k_hi), wlim)
    right = _Panel(480, 40, 330, 300, wlim, (0.0, 1.1 * v_hi))
    body = left.frame("dispersion branches", "k", "omega")
    body += left.curve(samples["k1"], omega, "#c7522a")
    body += left.curve(samples["k2"], omega, "#008585")
    body += right.frame("group velocities", "omega", "v_g")
    body += right.curve(omega, samples["vg1"], "#c7522a")
    body += right.curve(omega, samples["vg2"], "#008585")
    body.append(
        '<text x="710" y="60" font-size="10" fill="#c7522a">branch 1</text>'
    )
    body.append(
        '<text x="710" y="74" font-size="10" fill="#008585">branch 2</text>'
    )
    return _document(860, 390, body, comment)


def svg_zones(diagram, comment: str | None = None) -> str:
    """Cell map of a ZoneDiagram with boundary polylines and a legend."""
    t_grid, v_grid = diagram.t_grid, diagram.v_grid
    panel = _Panel(
        60, 40, 520, 380,
        (float(t_grid[0]), float(t_grid[-1])),
        (float(v_grid[0]), float(v_grid[-1])),
    )
    body = []
    # cells first, frame on top so the border stays visible; a single
    # point on an axis gets a cell as wide as the panel
    dt = (panel.xlim[1] - panel.xlim[0]) / max(len(t_grid) - 1, 1)
    dv = (panel.ylim[1] - panel.ylim[0]) / max(len(v_grid) - 1, 1)
    for i, V in enumerate(v_grid):
        for j, tt in enumerate(t_grid):
            fill = _ZONE_FILL.get(diagram.labels[i][j], _FALLBACK_FILL)
            x = panel.px(float(tt) - 0.5 * dt)
            y = panel.py(float(V) + 0.5 * dv)
            w = panel.px(float(tt) + 0.5 * dt) - x
            h = panel.py(float(V) - 0.5 * dv) - y
            body.append(
                f'<rect x="{_f(x)}" y="{_f(y)}" width="{_f(w)}" height="{_f(h)}" '
                f'fill="{fill}"/>'
            )
    for (a, b), pts in sorted(diagram.boundaries.items()):
        if len(pts) < 2:
            continue
        chain = " ".join(f"{_f(panel.px(t))},{_f(panel.py(v))}" for t, v in pts)
        body.append(
            f'<polyline points="{chain}" fill="none" stroke="#222" '
            f'stroke-width="1" stroke-dasharray="3 2"/>'
        )
    body += panel.frame("zone map", "t", "V")
    present = sorted({lab for row in diagram.labels for lab in row})
    for n, lab in enumerate(present):
        y = 50 + 20 * n
        body.append(
            f'<rect x="600" y="{y}" width="14" height="14" '
            f'fill="{_ZONE_FILL.get(lab, _FALLBACK_FILL)}"/>'
        )
        body.append(f'<text x="620" y="{y + 11}" font-size="11">{lab}</text>')
    return _document(700, 470, body, comment)
