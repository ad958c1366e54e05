"""Spans around the layers of wavezones, recorded from outside the package.

Each traced function is rebound, in the module that calls it, to a wrapper
that records a span: name, start, end, parent span and point id. Spans are
kept in flat arrays in memory and written out when the run ends. Self time
is a span's duration minus the time covered by its child spans.

Layers and where their functions are looked up:

  cli          wavezones.cli.main
  asymptotics  assemble_field (package, cli), sp_term and airy_term (asymptotics)
  zones        classify (zones, looked up by assemble_field and zone_diagram),
               zone_diagram (cli)
  saddle       find_real_saddles and find_complex_saddles (zones, asymptotics)
  dispersion   branch_k and derivatives_at (dispersion, as saddle calls them);
               k_squared_roots (oracle)
  special      airy_ai, airy_ai_prime, bessel_j0 (asymptotics)
  oracle       field_modal_integral (oracle, cli)
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array


class Tracer:
    """In-memory span recorder plus the rebinding of the traced functions."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.point = array("i")
        self.cold: set[int] = set()
        self.current_point = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, cache=None):
        """Wrapper of fn recording one span per call.

        With cache (an lru_cache wrapper), a call that raises its miss count
        is recorded as cold.
        """
        nid = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.point.append(self.current_point)
            self.end.append(0.0)
            misses = cache.cache_info().misses if cache is not None else 0
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
                if cache is not None and cache.cache_info().misses > misses:
                    self.cold.add(idx)

        return traced

    def patch(self, module, attr: str, name: str, cache=None):
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, cache))

    def install(self):
        """Rebind every traced function where its callers look it up."""
        import wavezones
        from wavezones import asymptotics, cli, dispersion, oracle, saddle, zones

        self.patch(cli, "main", "cli")
        for module in (wavezones, cli):
            self.patch(module, "assemble_field", "asymptotics.assemble_field")
        self.patch(asymptotics, "sp_term", "asymptotics.sp_term")
        self.patch(asymptotics, "airy_term", "asymptotics.airy_term")
        self.patch(zones, "classify", "zones.classify")
        self.patch(cli, "zone_diagram", "zones.zone_diagram")
        for module in (zones, asymptotics):
            self.patch(module, "find_real_saddles", "saddle.real", cache=saddle.find_real_saddles)
            self.patch(module, "find_complex_saddles", "saddle.complex", cache=saddle.find_complex_saddles)
        self.patch(dispersion, "branch_k", "dispersion")
        self.patch(dispersion, "derivatives_at", "dispersion")
        self.patch(oracle, "k_squared_roots", "dispersion.k_squared_roots")
        for attr in ("airy_ai", "airy_ai_prime", "bessel_j0"):
            self.patch(asymptotics, attr, "special")
        for module in (oracle, cli):
            self.patch(module, "field_modal_integral", "oracle")

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- summaries ---------------------------------------------------------

    def summary(self, points: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}; trace.overhead_s is the caller's."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        by_name: dict[str, list[int]] = {name: [] for name in self.names}
        for i in range(n):
            by_name[self.names[self.name[i]]].append(i)

        def spans(name):
            return by_name.get(name, [])

        def total(name):
            return sum(dur[i] for i in spans(name))

        def self_time(name):
            return sum(dur[i] - child[i] for i in spans(name))

        def per_call(name, scale):
            calls = len(spans(name))
            return total(name) / calls * scale if calls else 0.0

        def cold(name):
            return [i for i in spans(name) if i in self.cold]

        oracle = spans("oracle")
        assemble = self._ids.get("asymptotics.assemble_field", -2)
        fallbacks = sum(1 for i in oracle if self.parent[i] >= 0 and self.name[self.parent[i]] == assemble)
        real, real_cold = spans("saddle.real"), cold("saddle.real")
        cplx_cold = cold("saddle.complex")
        classify = spans("zones.classify")
        return {
            "oracle.calls": (len(oracle), "count"),
            "oracle.ms_per_call": (per_call("oracle", 1e3), "ms"),
            "oracle.self_s": (self_time("oracle"), "s"),
            "dispersion.k_squared_roots.calls": (len(spans("dispersion.k_squared_roots")), "count"),
            "dispersion.k_squared_roots.s": (total("dispersion.k_squared_roots"), "s"),
            "dispersion.calls": (len(spans("dispersion")), "count"),
            "dispersion.s": (total("dispersion"), "s"),
            "saddle.real.misses": (len(real_cold), "count"),
            "saddle.real.cold_ms": (sum(dur[i] for i in real_cold) / len(real_cold) * 1e3 if real_cold else 0.0, "ms"),
            "saddle.real.hit_ratio": ((len(real) - len(real_cold)) / len(real) if real else 0.0, "ratio"),
            "saddle.complex.misses": (len(cplx_cold), "count"),
            "saddle.complex.cold_ms": (sum(dur[i] for i in cplx_cold) / len(cplx_cold) * 1e3 if cplx_cold else 0.0, "ms"),
            "zones.classify.calls": (len(classify), "count"),
            "zones.classify.us_per_call": (per_call("zones.classify", 1e6), "us"),
            "zones.classify_per_point": (len(classify) / points if points else 0.0, "ratio"),
            "asymptotics.sp_term.calls": (len(spans("asymptotics.sp_term")), "count"),
            "asymptotics.airy_term.calls": (len(spans("asymptotics.airy_term")), "count"),
            "asymptotics.terms.s": (total("asymptotics.sp_term") + total("asymptotics.airy_term"), "s"),
            "asymptotics.oracle_fallbacks": (fallbacks, "count"),
            "special.calls": (len(spans("special")), "count"),
            "special.s": (total("special"), "s"),
            "cli.self_s": (self_time("cli"), "s"),
        }

    def write(self, path) -> None:
        """All spans as gzip-compressed JSON lines, in start order."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i in range(len(self.start)):
                fh.write(
                    f'{{"id":{i},"name":"{self.names[self.name[i]]}","start":{self.start[i]!r},'
                    f'"end":{self.end[i]!r},"parent":{self.parent[i]},"point":{self.point[i]}}}\n'
                )
