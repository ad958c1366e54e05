"""The benchmark's tracer still finds the functions it rebinds.

perfbench/spans.py wraps layer functions where their callers look them up
(module globals such as zones.classify and oracle.field_modal_integral).
A refactor that binds one of them at import time makes its spans vanish
silently; this loads the tracer read-only and checks the spans appear.
"""

import importlib.util
from pathlib import Path

import wavezones
from wavezones.model import DEFAULT_PARAMS

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_assembly_layers():
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        wavezones.assemble_field(3.0, 3.0, DEFAULT_PARAMS)     # B: oracle fallback
        wavezones.assemble_field(60.0, 60.0, DEFAULT_PARAMS)   # SP terms
        wavezones.assemble_field(200.0, 1.44 * 200.0, DEFAULT_PARAMS)  # SP and Ai terms
    finally:
        tracer.uninstall()

    def name(i):
        return tracer.names[tracer.name[i]]

    spans = range(len(tracer.start))
    oracle_parents = [name(tracer.parent[i]) for i in spans if name(i) == "oracle" and tracer.parent[i] >= 0]
    assert oracle_parents == ["asymptotics.assemble_field"]
    assert sum(name(i) == "zones.classify" for i in spans) == 3
    assert any(name(i) == "asymptotics.sp_term" for i in spans)
    assert tracer.summary(3)["asymptotics.oracle_fallbacks"][0] == 1

    def under_assembly(i):
        while (i := tracer.parent[i]) >= 0:
            if name(i) == "asymptotics.assemble_field":
                return True
        return False

    # the saddle lookups that perfbench reads (saddle.real, saddle.complex)
    # must still go through the names the tracer rebinds
    saddle_spans = {name(i) for i in spans if name(i).startswith("saddle.") and under_assembly(i)}
    assert saddle_spans == {"saddle.real", "saddle.complex"}
    assert any(name(i) == "asymptotics.airy_term" and under_assembly(i) for i in spans)


def test_tracer_sees_zones_layers(tmp_path):
    # every name the tracer rebinds must still exist, or install() fails and
    # a traced zone_atlas worker exits non-zero
    from wavezones import cli

    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        code = cli.main(["zones", "--grid", "5x8", "--out", str(tmp_path / "zones.csv")])
    finally:
        tracer.uninstall()
    assert code == 0
    names = {tracer.names[tracer.name[i]] for i in range(len(tracer.start))}
    assert {"cli", "zones.zone_diagram", "saddle.real"} <= names
