"""Inputs, rounds and correctness checks of the three benchmark workloads.

A workload is a sequence of rounds. A round is one call of a public entry
point on inputs drawn from the seed: a ``wavezones field`` or ``wavezones
zones`` command run in-process through ``wavezones.cli.main``, or a batch
of ``assemble_field`` calls along a set of rays. Every round draws fresh
grid bounds, ray speeds and t samples, so no round repeats a point that an
earlier round computed. The checks run after the timed part and compare
against references computed apart from the timed path (the quadrature
oracle, scipy's J0, a finite-difference scan of the quartic D) or against
properties the method must have.

Importing this module imports neither numpy nor wavezones; ``setup`` does,
so their import cost is part of the measured set-up time.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import random
from pathlib import Path


@dataclasses.dataclass
class RoundResult:
    """What one timed round produced; checked after the timed part."""

    inputs: dict
    exit_code: int = 0
    out_path: Path | None = None   # the CSV a CLI round wrote
    values: object = None          # ray_assembly: assembled u, shape (points, 2)
    fallbacks: int = 0             # ray_assembly: points that fell back to the oracle


#: bound on |u_asym - u_oracle| as a share of the local term envelope.
#: The pointwise value can pass through zero; the envelope sum |2 term| cannot.
ENVELOPE_BOUND = 0.25


def term_envelope(fv) -> float:
    """Largest component of sum |2 term| over the terms of an assembled FieldValue."""
    envelope = sum(abs(2.0 * d.value) for d in fv.terms)
    return max(float(envelope[0]), float(envelope[1]))


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


class Workload:
    """Base class: set-up, one round, checks."""

    name = ""
    entry = "wavezones"

    def setup(self):
        """Import the entry point, validate the parameters, precompute the extrema."""
        import importlib

        import wavezones

        importlib.import_module(self.entry)
        self.wz = wavezones
        self.params = wavezones.validate(wavezones.DEFAULT_PARAMS)
        self.extrema = {e.kind: e for e in wavezones.group_velocity_extrema(self.params)}

    def draw(self, rng: random.Random, size: float) -> dict:
        raise NotImplementedError

    def points_of(self, inputs: dict) -> int:
        nt, nv = inputs["grid"]
        return nt * nv

    def failed_points(self, result: RoundResult) -> int:
        return 0

    def run(self, inputs: dict, out_path: Path) -> RoundResult:
        raise NotImplementedError

    def check(self, results: list[RoundResult], rng: random.Random) -> list[str]:
        raise NotImplementedError

    def _cli(self, command: str, inputs: dict, out_path: Path) -> RoundResult:
        nt, nv = inputs["grid"]
        argv = [command, "--t-min", repr(inputs["t_min"]), "--t-max", repr(inputs["t_max"]),
                "--v-min", repr(inputs["v_min"]), "--v-max", repr(inputs["v_max"]),
                "--grid", f"{nt}x{nv}", "--out", str(out_path)]
        return RoundResult(inputs=inputs, exit_code=self.wz.cli.main(argv), out_path=out_path)


# ---------------------------------------------------------------------------
# field_grid: the oracle-vs-assembly map


class FieldGrid(Workload):
    """``wavezones field`` on a 6x5 (t, V) grid; one oracle call per point."""

    name = "field_grid"
    entry = "wavezones.cli"
    SILENCE = 1e-6           # |u| beyond the fast front, share of the grid's largest |u|
    DECOUPLED_BOUND = 1e-3   # mu = 0 oracle vs -J0(...)/(2 c1), share of 1/(2 c1)

    def draw(self, rng, size=1.0):
        nt = max(2, round(6 * size))
        nv = max(2, round(5 * size))
        # The bands keep every point's quadrature sample count clear of a
        # multiple of the oracle's 400k-sample chunk, so the chunking (and
        # with it the peak memory) is the same on every seed.
        return {
            "t_min": 30.0 * (1.0 + rng.uniform(-0.02, 0.02)),
            "t_max": 220.0 * (1.0 + rng.uniform(-0.01, 0.01)),
            "v_min": 0.65 + rng.uniform(-0.01, 0.01),
            "v_max": 2.2 + rng.uniform(-0.01, 0.01),
            "grid": (nt, nv),
        }

    def run(self, inputs, out_path):
        return self._cli("field", inputs, out_path)

    def failed_points(self, result):
        """Rows whose quadrature did not converge."""
        rows = _read_csv(result.out_path)
        return sum(1 for r in rows if r["converged"] != "1")

    def check(self, results, rng):
        return self.check_rounds(results) + self.check_decoupled(rng)

    def check_rounds(self, results):
        """Exit code, silence beyond the front, SP points against the oracle column."""
        errors = []
        c1 = self.params.c1
        for res in results:
            nt, nv = res.inputs["grid"]
            rows = _read_csv(res.out_path)
            if len(rows) != nt * nv:
                errors.append(f"field wrote {len(rows)} rows, expected {nt * nv}")
                continue
            # rows that did not converge are failed points (failed_points);
            # the exit code must report them, and only them
            converged = all(r["converged"] == "1" for r in rows)
            if (res.exit_code == 0) != converged:
                errors.append(f"field exit code {res.exit_code} with all rows converged: {converged}")
            rows = [r for r in rows if r["converged"] == "1"]
            if not rows:
                continue
            scale = max(max(abs(float(r["u1_oracle"])), abs(float(r["u2_oracle"]))) for r in rows)
            for r in rows:
                t, V = float(r["t"]), float(r["V"])
                u_or = (float(r["u1_oracle"]), float(r["u2_oracle"]))
                u_as = (float(r["u1_asym"]), float(r["u2_asym"]))
                if V >= c1:
                    loud = max(abs(u_or[0]), abs(u_or[1]))
                    if r["zone"] != "zero" or not loud <= self.SILENCE * scale:
                        errors.append(f"not silent beyond the front at t={t:.6g} V={V:.6g}: "
                                      f"zone {r['zone']}, |u| {loud:.3e} vs scale {scale:.3e}")
                elif r["zone"] == "SP":
                    env = term_envelope(self.wz.assemble_field(t, V * t, self.params))
                    err = max(abs(u_as[0] - u_or[0]), abs(u_as[1] - u_or[1])) / env
                    if not err <= ENVELOPE_BOUND:
                        errors.append(f"SP point t={t:.6g} V={V:.6g}: assembled vs oracle {err:.3f} "
                                      f"of the term envelope (bound {ENVELOPE_BOUND})")
        return errors

    def check_decoupled(self, rng, n=3):
        """mu = 0: component 1 of the oracle is the single-layer Klein-Gordon kernel."""
        from scipy.special import j0

        p0 = dataclasses.replace(self.params, mu=0.0)
        c1, om1 = p0.c1, p0.omega1
        errors = []
        for _ in range(n):
            t = rng.uniform(20.0, 40.0)
            x = rng.uniform(0.15, 0.85) * c1 * t
            u = self.wz.field_modal_integral(t, x, p0)
            ref = -float(j0(om1 * math.sqrt(t * t - (x / c1) ** 2))) / (2.0 * c1)
            err = max(abs(u[0] - ref), abs(u[1])) * 2.0 * c1
            if not err <= self.DECOUPLED_BOUND:
                errors.append(f"decoupled limit at t={t:.6g} x={x:.6g}: deviation {err:.2e} "
                              f"of 1/(2 c1) (bound {self.DECOUPLED_BOUND})")
        return errors


# ---------------------------------------------------------------------------
# zone_atlas: cold saddle solving and boundary bisection


def fd_group_velocity_extrema(params, n=20001, h=1e-5):
    """Group-velocity extrema of both curves omega_pm(k) of the quartic D.

    D = (w^2 - w1^2 - c1^2 k^2)(w^2 - w2^2 - c2^2 k^2) - mu^2 is solved for
    w^2 at real k, v_g = d omega / d k is taken by central differences, and
    each interior extremum of v_g is polished by golden-section search.
    Returns {"max": [...], "min": [...]} lists of extremal speeds.
    """
    import numpy as np

    c1, c2, w1, w2, mu = params.c1, params.c2, params.omega1, params.omega2, params.mu

    def omega(k, sign):
        a1 = w1 * w1 + (c1 * k) ** 2
        a2 = w2 * w2 + (c2 * k) ** 2
        return np.sqrt(0.5 * (a1 + a2) + sign * np.sqrt(0.25 * (a1 - a2) ** 2 + mu * mu))

    def vg(k, sign):
        return (omega(k + h, sign) - omega(k - h, sign)) / (2.0 * h)

    k_c = math.sqrt((w2 * w2 - w1 * w1) / (c1 * c1 - c2 * c2))
    ks = np.linspace(0.05 * k_c, 4.0 * k_c, n)
    found = {"max": [], "min": []}
    for sign in (+1.0, -1.0):
        v = vg(ks, sign)
        slope = np.diff(v)
        for i in np.nonzero(slope[:-1] * slope[1:] < 0.0)[0]:
            kind = "max" if slope[i] > 0.0 else "min"
            lo, hi = float(ks[i]), float(ks[i + 2])
            g = (math.sqrt(5.0) - 1.0) / 2.0
            f = (lambda k: -vg(k, sign)) if kind == "max" else (lambda k: vg(k, sign))
            for _ in range(80):
                a, b = hi - g * (hi - lo), lo + g * (hi - lo)
                if f(a) < f(b):
                    hi = b
                else:
                    lo = a
            found[kind].append(float(vg(0.5 * (lo + hi), sign)))
    return found


class ZoneAtlas(Workload):
    """``wavezones zones`` on 40 t x 400 V; every row is a new V."""

    name = "zone_atlas"
    entry = "wavezones.cli"
    EXTREMUM_TOL = 1e-7

    def draw(self, rng, size=1.0):
        return {
            "t_min": 5.0 + rng.uniform(-0.5, 0.5),
            "t_max": 600.0 * (1.0 + rng.uniform(-0.02, 0.02)),
            "v_min": 0.3 + rng.uniform(-0.01, 0.01),
            "v_max": 2.1 + rng.uniform(-0.01, 0.01),
            "grid": (max(2, round(40 * size)), max(2, round(400 * size))),
        }

    def run(self, inputs, out_path):
        return self._cli("zones", inputs, out_path)

    def ladder_thresholds(self):
        """(c1, c2, v_max, v_min), with the extrema cross-checked by finite differences."""
        fd = fd_group_velocity_extrema(self.params)
        errors = []
        for kind in ("max", "min"):
            v_e = self.extrema[kind].v_e
            near = [v for v in fd[kind] if abs(v - v_e) <= self.EXTREMUM_TOL]
            if len(fd[kind]) != 1 or not near:
                errors.append(f"group-velocity {kind}: program {v_e!r}, finite differences {fd[kind]}")
        p = self.params
        return (p.c1, p.c2, self.extrema["max"].v_e, self.extrema["min"].v_e), errors

    @staticmethod
    def expected_count(V, thresholds):
        c1, c2, v_max, v_min = thresholds
        if V >= c1:
            return 0
        if V >= c2:
            return 1
        if V > v_max:
            return 2
        if V > v_min:
            return 4
        return 2

    def check(self, results, rng):
        thresholds, errors = self.ladder_thresholds()
        c1 = self.params.c1
        for res in results:
            nt, nv = res.inputs["grid"]
            if res.exit_code != 0:
                errors.append(f"zones exit code {res.exit_code} for {res.inputs}")
            rows = _read_csv(res.out_path)
            if len(rows) != nt * nv:
                errors.append(f"zones wrote {len(rows)} rows, expected {nt * nv}")
                continue
            by_v: dict[str, list[tuple[float, str]]] = {}
            for r in rows:
                V = float(r["V"])
                if (V >= c1) != (r["label"] == "zero"):
                    errors.append(f"label {r['label']} at t={r['t']} V={r['V']} (c1={c1})")
                by_v.setdefault(r["V"], []).append((float(r["t"]), r["label"]))
            if len(by_v) != nv:
                errors.append(f"zones wrote {len(by_v)} V rows, expected {nv}")
            for v_text, cells in by_v.items():
                cells.sort()
                seen = set()
                for (_, a), (_, b) in zip(cells[:-1], cells[1:]):
                    if a != b:
                        if (a, b) in seen:
                            errors.append(f"transition {a}->{b} occurs twice on V={v_text}")
                        seen.add((a, b))
                V = float(v_text)
                got = len(self.wz.find_real_saddles(V, self.params))
                want = self.expected_count(V, thresholds)
                if got != want:
                    errors.append(f"{got} real saddles at V={v_text}, ladder expects {want}")
        return errors


# ---------------------------------------------------------------------------
# ray_assembly: the closed-form fast path


class RayAssembly(Workload):
    """``assemble_field`` along 9 rays x 2000 t values in [150, 1500]."""

    name = "ray_assembly"
    RAYS = (0.5, 0.8, 1.1, 1.25, 1.44, 1.48, 1.52, 1.7, 1.9)
    T_RANGE = (150.0, 1500.0)

    def draw(self, rng, size=1.0):
        n = max(2, round(2000 * size))
        lo, hi = self.T_RANGE
        step = (hi - lo) / n
        return {
            "rays": [V + rng.uniform(-0.004, 0.004) for V in self.RAYS],
            "t": [lo + step * (j + rng.random()) for j in range(n)],
        }

    def run(self, inputs, out_path):
        import numpy as np

        assemble, params = self.wz.assemble_field, self.params
        u = np.empty((self.points_of(inputs), 2))
        fallbacks = i = 0
        for V in inputs["rays"]:
            for t in inputs["t"]:
                fv = assemble(t, V * t, params)
                u[i] = fv.u
                fallbacks += fv.used_oracle
                i += 1
        return RoundResult(inputs=inputs, values=u, fallbacks=fallbacks)

    def points_of(self, inputs):
        return len(inputs["rays"]) * len(inputs["t"])

    def check(self, results, rng):
        rays = results[0].inputs["rays"] if results else list(self.RAYS)
        return self.check_values(results) + self.check_envelope(rays, rng)

    def check_values(self, results):
        """No oracle fallback and finite values on every timed point."""
        import numpy as np

        errors = []
        for res in results:
            if res.fallbacks:
                errors.append(f"{res.fallbacks} assemble_field calls fell back to the oracle")
            bad = np.nonzero(~np.isfinite(res.values).all(axis=1))[0]
            if bad.size:
                ray, j = divmod(int(bad[0]), len(res.inputs["t"]))
                errors.append(f"{bad.size} non-finite values, first at t={res.inputs['t'][j]:.6g} "
                              f"V={res.inputs['rays'][ray]:.6g}")
        return errors

    def check_envelope(self, rays, rng, n=3):
        """A few untimed points at moderate t against the oracle, on the term envelope."""
        errors = []
        for V in rng.sample(rays, n):
            t = rng.uniform(150.0, 250.0)
            fv = self.wz.assemble_field(t, V * t, self.params)
            u_or = self.wz.field_modal_integral(t, V * t, self.params)
            err = max(abs(fv.u[0] - u_or[0]), abs(fv.u[1] - u_or[1])) / term_envelope(fv)
            if not err <= ENVELOPE_BOUND:
                errors.append(f"assembled vs oracle at t={t:.6g} V={V:.6g}: {err:.3f} of the term "
                              f"envelope (bound {ENVELOPE_BOUND})")
        return errors


WORKLOADS = {w.name: w for w in (FieldGrid, ZoneAtlas, RayAssembly)}
