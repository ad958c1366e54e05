"""Acceptance gate: one case per entry of acceptance.CRITERIA, the list that
`wavezones compare` runs, so the two cannot drift apart.  A case is named
test_<id>_<slug> (-k c07 selects one), prints its criterion's line (see them
with -s or -rP) and fails iff the criterion fails.
"""

import re

from wavezones import acceptance

SLUGS = dict(
    c01="decoupled_limit_matches_closed_form", c02="saddle_census_transitions",
    c03="separated_rays_converge_like_inverse_sqrt", c04="extremum_ray_airy_form_and_handoff",
    c05="pulse_closed_form_vs_loop_quadrature", c06="pulse_band_composition",
    c07="special_functions_vs_reference", c08="group_velocity_consistency",
    c09="crossing_and_branch_point_residuals", c10="isolation_monotone_in_time",
    c11="loop_integral_self_consistency", c12="silence_outside_support",
)


def _check(criterion):
    res = criterion()
    print(res.line())
    assert res.passed, res.line()


for _c in acceptance.CRITERIA:
    globals()[f"test_{_c.ident}_{SLUGS.get(_c.ident, 'criterion')}"] = lambda criterion=_c: _check(criterion)


def test_registry_holds_c01_to_c12_in_order_and_enforces_runtime_limits(monkeypatch):
    assert [c.ident for c in acceptance.CRITERIA] == [f"c{i:02d}" for i in range(1, 13)]
    monkeypatch.setattr(acceptance, "CRITERIA", [])
    res = acceptance._criterion("c99", "stub", limit=0)(lambda params: (True, "ok"))()
    assert not res.passed and re.fullmatch(r"ok, runtime \d+\.\ds \(limit 0s\)", res.measure)
