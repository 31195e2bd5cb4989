import dataclasses
import json
import math

import numpy as np
import pytest

from qfixpoint import compare
from qfixpoint.cli import main
from qfixpoint.compare import (OUT_OF_SCOPE_NOTES, build_feature_report,
                               gaussian_parameter_metric,
                               interference_excess, interference_excess_quadrature)
from qfixpoint.fuzzy import T_RANGE, T_SAMPLES, fuzzy_fixed_point
from qfixpoint.gaussian import (GaussianState, QuadratureConfig, overlap_closed_form,
                                overlap_quadrature, state_distance)
from qfixpoint.solver import (DEFAULT_MAPS, DEFAULT_REGION, DEFAULT_STARTS,
                              AffineGaussianMap, NotConvergedError, analytic_fixed_point,
                              estimate_contraction_factor, iterate_to_fixed_point,
                              sample_state_pairs)

PROBE = (GaussianState(0, 1), GaussianState(1, 1))


def _image(m, s):
    """The state m sends s to, by the map's parameter arithmetic."""
    return GaussianState(m.mu_scale * s.mu + m.mu_shift, m.sigma_scale * s.sigma + m.sigma_shift)


# ------------------------------------------------------------- interference

def test_interference_identical_states():
    s = GaussianState(0.3, 2.0)
    assert interference_excess(s, s) == 2.0
    # the ends are just inside the quadrature kernel's domain for equal widths
    for sigma in (1.3e-77, 6.5e76, 0.3, 1.0, 2.0, *np.geomspace(1.3e-77, 6.5e76, 57)):
        s = GaussianState(0.0, float(sigma))
        assert abs(interference_excess_quadrature(s, s) - 2.0) <= 4 * math.ulp(2.0), sigma
    # (sigma**2)**2 is not a normal double, or pi**2 times it overflows
    for sigma, error in ((1e-100, ZeroDivisionError), (1e-150, ZeroDivisionError),
                         (1e-160, ZeroDivisionError), (7e76, OverflowError),
                         (1e150, OverflowError), (1e160, OverflowError)):
        s = GaussianState(0.0, sigma)
        with pytest.raises(error, match="sigma"):
            interference_excess_quadrature(s, s)


def test_interference_quadrature_is_twice_the_overlap_quadrature():
    # the Simpson rule is linear, so the excess is 2*S[psi_a*psi_b] bitwise
    rng = np.random.default_rng(21)
    for cfg in (None, QuadratureConfig(half_width_sigmas=12.0, panels=256),
                QuadratureConfig(half_width_sigmas=8.0, panels=64)):
        for _ in range(100):
            a, b = (GaussianState(rng.uniform(-10, 10), 10.0 ** rng.uniform(-3, 3))
                    for _ in range(2))
            excess = interference_excess_quadrature(a, b, cfg)
            assert excess == 2.0 * overlap_quadrature(a, b, cfg), (a, b, cfg)
            assert interference_excess_quadrature(b, a, cfg) == excess, (a, b, cfg)


def test_interference_probe_value_from_overlap():
    # unit widths, unit separation: overlap = exp(-1/(2*(1+1))) = exp(-1/4)
    got = interference_excess(*PROBE)
    assert got == pytest.approx(2.0 * math.exp(-0.25), abs=1e-15)
    # independent quadrature of the summed wavefunction
    assert got == pytest.approx(interference_excess_quadrature(*PROBE), abs=1e-12)


def test_interference_orthogonal_limit():
    far = interference_excess(GaussianState(0, 1), GaussianState(100, 1))
    assert far < 1e-10
    assert interference_excess_quadrature(GaussianState(0, 1), GaussianState(100, 1)) < 1e-10


def test_interference_symmetric_and_bounded():
    a, b = GaussianState(-1, 0.5), GaussianState(2, 3.0)
    assert interference_excess(a, b) == interference_excess(b, a)
    assert 0.0 < interference_excess(a, b) <= 2.0


def test_interference_quadrature_cross_check_various():
    cases = [(GaussianState(0, 1), GaussianState(0, 2)),
             (GaussianState(-2, 0.5), GaussianState(1, 1.5)),
             (GaussianState(3, 3), GaussianState(3, 3))]
    for a, b in cases:
        assert abs(interference_excess(a, b)
                   - interference_excess_quadrature(a, b)) < 1e-12


def test_interference_quadrature_holds_at_any_width_ratio():
    # on a window scaled by the wider state this was up to 0.34 off here
    rng = np.random.default_rng(1)
    for _ in range(300):
        a, b = (GaussianState(rng.uniform(-10, 10), 10.0 ** rng.uniform(-3, 3))
                for _ in range(2))
        assert abs(interference_excess(a, b) - interference_excess_quadrature(a, b)) < 1e-12


def test_interference_quadrature_is_zero_where_windows_do_not_meet():
    a, b = GaussianState(0.0, 1e-10), GaussianState(1e150, 1e-10)
    assert interference_excess_quadrature(a, b) == 0.0
    assert interference_excess_quadrature(b, a) == 0.0


# ------------------------------------------------------------ feature report

@pytest.fixture(scope="module")
def default_run():
    return build_feature_report(DEFAULT_MAPS[0], GaussianState(4, 3))


def _compare_result(capsys, *argv):
    """The result of one ``compare --format json`` document."""
    assert main(["compare", *argv, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)["result"]


def test_feature_report_interference_row(capsys):
    # the compare document takes the quantum excess from the probe pair, and the
    # fuzzy one is 0: a graded membership has no superposition
    result = _compare_result(capsys)
    assert result["interference_excess_quantum"] == interference_excess(*PROBE)
    assert result["interference_excess_quantum"] == pytest.approx(
        2.0 * math.exp(-0.25), abs=1e-12)
    assert result["interference_excess_fuzzy"] == 0


def test_feature_report_frameworks_agree(default_run):
    q, _, _ = default_run
    assert q.converged
    assert state_distance(q.fixed_point, analytic_fixed_point(DEFAULT_MAPS[0])) < 1e-10


def test_feature_report_condition_audit_clean(default_run):
    # the audited factor comes from the same sampled pairs, so no violations
    assert default_run[2].condition.holds


# the constant map estimates k = 0; the last map expands the state distance,
# so its audit runs at k = 1 - 1e-12 and finds violations and a witness
@pytest.mark.parametrize("m", [*DEFAULT_MAPS, AffineGaussianMap(0.95, 0.0, 0.3, 0.2)])
@pytest.mark.parametrize("seed", [0, 3])
def test_feature_report_condition_audit_equals_generic_audit(m, seed):
    start = GaussianState(4, 3)
    _, _, fuzzy = build_feature_report(m, start, rng_seed=seed)
    got = fuzzy.condition
    # the same pairs, measured one by one with the scalar distance kernel
    pairs = sample_state_pairs(DEFAULT_REGION, 2000, np.random.default_rng(seed))
    d = np.array([state_distance(x, y) for x, y in pairs])
    d_f = np.array([state_distance(_image(m, x), _image(m, y)) for x, y in pairs])
    want = fuzzy_fixed_point(d, d_f, fuzzy.k, pairs.__getitem__).condition
    assert (got.samples, got.violations, got.holds) == (want.samples, want.violations,
                                                        want.holds)
    # the array distances differ from the scalar kernel's by at most a few
    # ulps, and a margin, in [-1, 1], moves by less than their relative error
    def close(x):
        return pytest.approx(x, rel=0, abs=4 * math.ulp(1.0))
    assert got.min_margin == close(want.min_margin)
    assert got.max_abs_margin == close(want.max_abs_margin)
    if m.mu_scale == 0.95:
        assert got.violations > 0
        assert {k: got.witness[k] for k in "xyt"} == {k: want.witness[k] for k in "xyt"}
        assert got.witness["margin"] == close(want.witness["margin"])
    else:
        assert got.witness is want.witness is None


@pytest.mark.parametrize("m", DEFAULT_MAPS)
@pytest.mark.parametrize("seed", [0, 3])
def test_passing_condition_audit_reports_the_exact_min_margin(m, seed):
    # a margin t(k d - d_f)/((kt + d_f)(t + d)) that is >= 0 rises from 0 to one
    # maximum and falls back, so over T_RANGE it is least at one of its two ends
    _, _, fuzzy = build_feature_report(m, GaussianState(4, 3), rng_seed=seed)
    assert fuzzy.condition.holds
    k = fuzzy.k
    pairs = sample_state_pairs(DEFAULT_REGION, 2000, np.random.default_rng(seed))
    ends = math.inf
    for x, y in pairs:
        d, d_f = state_distance(x, y), state_distance(_image(m, x), _image(m, y))
        for t in T_RANGE:
            ends = min(ends, t * (k * d - d_f) / ((k * t + d_f) * (t + d)))
    assert fuzzy.condition.min_margin == ends


@pytest.mark.parametrize("m", DEFAULT_MAPS)
def test_a_passing_condition_audit_reports_no_negative_margin(m):
    # each margin has the sign of k d - d_f, so rounding cannot take a held one below 0
    for seed in range(6):
        _, _, fuzzy = build_feature_report(m, GaussianState(4, 3), rng_seed=seed)
        assert not fuzzy.condition.holds or fuzzy.condition.min_margin >= 0.0, seed


def test_feature_report_comes_from_the_traced_fuzzy_fixed_point(monkeypatch):
    # build_feature_report looks fuzzy_fixed_point up on the compare module,
    # the name a tracer wraps, and returns what that call returned
    returned = []

    def counting(*args, **kwargs):
        returned.append(fuzzy_fixed_point(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(compare, "fuzzy_fixed_point", counting)
    _, _, fuzzy = build_feature_report(DEFAULT_MAPS[0], GaussianState(4, 3))
    assert len(returned) == 1
    assert fuzzy is returned[0]


@pytest.mark.parametrize("m", [*DEFAULT_MAPS, AffineGaussianMap(0.95, 0.0, 0.3, 0.2)])
def test_feature_report_k_estimate_is_the_estimator_on_the_audited_sample(m):
    # the report measures its sampled pairs once, for k_estimate and the audit
    for seed in range(10):
        _, k_estimate, _ = build_feature_report(m, GaussianState(4, 3), rng_seed=seed)
        assert k_estimate == estimate_contraction_factor(m, DEFAULT_REGION, 2000, seed)


def test_feature_report_runs_the_iteration_once(monkeypatch):
    calls = []

    def counting_metric():
        fm = gaussian_parameter_metric()

        def counted(x, y):
            calls.append((x, y))
            return fm.base_distance(x, y)
        return dataclasses.replace(fm, base_distance=counted)

    monkeypatch.setattr(compare, "gaussian_parameter_metric", counting_metric)
    _, _, fuzzy = build_feature_report(DEFAULT_MAPS[0], GaussianState(4, 3))
    assert calls == []
    assert fuzzy.condition.samples == 2000 * T_SAMPLES


def test_feature_report_notes_are_textual(capsys):
    # compare prints the module's notes, and printing leaves them as they were
    before = dict(OUT_OF_SCOPE_NOTES)
    assert _compare_result(capsys)["notes"] == OUT_OF_SCOPE_NOTES == before
    for key in ("completeness", "phase_sensitivity", "topological_protection",
                "conservation_laws"):
        assert isinstance(OUT_OF_SCOPE_NOTES[key], str)


def test_identical_probe_gives_excess_two():
    s = GaussianState(0, 1)
    assert interference_excess(s, s) == 2.0


def test_far_probe_frameworks_agree_on_zero(capsys):
    result = _compare_result(capsys, "--probe-a", "0,1", "--probe-b", "100,1")
    # exp(-100**2/4) underflows, so the closed-form overlap is 0.0 exactly
    assert overlap_closed_form(GaussianState(0, 1), GaussianState(100, 1)) == 0.0
    assert result["interference_excess_quantum"] == 0
    assert result["interference_excess_fuzzy"] == result["agreement_distance"] == 0


def test_build_feature_report_propagates_non_convergence():
    slow = AffineGaussianMap(0.99999, 0.0, 0.5, 0.5)
    with pytest.raises(NotConvergedError):
        build_feature_report(slow, GaussianState(4, 3), max_iterations=10)


CARRIER_MAPS = (*DEFAULT_MAPS, AffineGaussianMap(0.99, 0.0, 0.99, 0.05),
                AffineGaussianMap(0.95, 0.0, 0.3, 0.2))


def test_fuzzy_iteration_on_state_carrier_matches_quantum():
    # the fuzzy contraction in the state distance is the quantum iteration, so
    # one trace serves both: the solver's, Banach quantities included
    for m in CARRIER_MAPS:
        for start in DEFAULT_STARTS:
            trace, _, _ = build_feature_report(m, start)
            assert trace == iterate_to_fixed_point(m, start), (m, start)
            if m in DEFAULT_MAPS:
                fp = analytic_fixed_point(m)
                assert state_distance(trace.fixed_point, fp) < 1e-10
