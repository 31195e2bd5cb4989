import dataclasses
import math

import numpy as np
import pytest

from qfixpoint import compare
from qfixpoint.compare import (OUT_OF_SCOPE_NOTES, build_feature_report,
                               gaussian_parameter_metric,
                               interference_excess, interference_excess_quadrature)
from qfixpoint.fuzzy import fuzzy_fixed_point
from qfixpoint.gaussian import GaussianState, state_distance
from qfixpoint.solver import (DEFAULT_MAPS, DEFAULT_REGION, DEFAULT_STARTS,
                              AffineGaussianMap, NotConvergedError, analytic_fixed_point,
                              apply_map, estimate_contraction_factor, iterate_to_fixed_point,
                              sample_state_pairs)

PROBE = (GaussianState(0, 1), GaussianState(1, 1))


# ------------------------------------------------------------- interference

def test_interference_identical_states():
    s = GaussianState(0.3, 2.0)
    assert interference_excess(s, s) == 2.0
    # the quadrature's three integrals round differently at each width: the
    # excess is exactly 2.0 at 26 of these 62 widths and 2 ulps off at others
    for sigma in (1e-150, 1e150, 0.3, 1.0, 2.0, *np.geomspace(1e-100, 1e100, 57)):
        s = GaussianState(0.0, float(sigma))
        assert abs(interference_excess_quadrature(s, s) - 2.0) <= 4 * math.ulp(2.0), sigma
    # sigma**2 is not a normal double: (pi*sigma**2)**-0.25 gave 1.9999456 at
    # 1e-160 and a bare OverflowError at 1e160
    for sigma, error in ((1e-160, ZeroDivisionError), (1e160, OverflowError)):
        s = GaussianState(0.0, sigma)
        with pytest.raises(error, match="sigma"):
            interference_excess_quadrature(s, s)


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
def default_report():
    return build_feature_report(DEFAULT_MAPS[0], GaussianState(4, 3), PROBE)


def test_feature_report_interference_row(default_report):
    assert default_report.interference_excess_quantum == pytest.approx(
        2.0 * math.exp(-0.25), abs=1e-12)
    assert default_report.interference_excess_fuzzy == 0.0


def test_feature_report_frameworks_agree(default_report):
    q, f = default_report.quantum, default_report.fuzzy
    assert q.framework == "quantum" and f.framework == "fuzzy"
    assert q.converged and f.converged
    assert default_report.agreement_distance <= 1e-11
    fp = analytic_fixed_point(DEFAULT_MAPS[0])
    assert state_distance(q.fixed_point, fp) < 1e-10
    assert state_distance(f.fixed_point, fp) < 1e-10


def test_feature_report_condition_audit_clean(default_report):
    # the audited factor comes from the same sampled pairs, so no violations
    assert default_report.fuzzy_report.condition.holds


# the constant map estimates k = 0; the last map expands the state distance,
# so its audit runs at k = 1 - 1e-12 and finds violations and a witness
@pytest.mark.parametrize("m", [*DEFAULT_MAPS, AffineGaussianMap(0.95, 0.0, 0.3, 0.2)])
@pytest.mark.parametrize("seed", [0, 3])
def test_feature_report_condition_audit_equals_generic_audit(m, seed):
    start = GaussianState(4, 3)
    report = build_feature_report(m, start, PROBE, rng_seed=seed)
    got = report.fuzzy_report.condition
    pairs = sample_state_pairs(DEFAULT_REGION, 2000, np.random.default_rng(seed))
    want = fuzzy_fixed_point(gaussian_parameter_metric(), lambda s: apply_map(m, s),
                             report.fuzzy_report.k, start, max_iterations=1,
                             condition_pairs=pairs, rng_seed=seed).condition
    assert (got.samples, got.violations, got.holds) == (want.samples, want.violations,
                                                        want.holds)
    # the array distances differ from the scalar kernel's by at most a few
    # ulps, and margins are differences of grades in [0, 1]
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


@pytest.mark.parametrize("m", [*DEFAULT_MAPS, AffineGaussianMap(0.95, 0.0, 0.3, 0.2)])
def test_feature_report_k_estimate_is_the_estimator_on_the_audited_sample(m):
    # the report measures its sampled pairs once, for k_estimate and the audit
    for seed in range(10):
        report = build_feature_report(m, GaussianState(4, 3), PROBE, rng_seed=seed)
        assert report.k_estimate == estimate_contraction_factor(m, DEFAULT_REGION, 2000, seed)


def test_feature_report_runs_the_iteration_once(monkeypatch):
    calls = []

    def counting_metric():
        fm = gaussian_parameter_metric()

        def counted(x, y):
            calls.append((x, y))
            return fm.base_distance(x, y)
        return dataclasses.replace(fm, base_distance=counted)

    monkeypatch.setattr(compare, "gaussian_parameter_metric", counting_metric)
    report = build_feature_report(DEFAULT_MAPS[0], GaussianState(4, 3), PROBE)
    assert calls == []
    assert report.fuzzy_report.condition.samples == 2000 * 16
    q, f = report.quantum_report, report.fuzzy_report
    assert (f.iterates, f.step_distances, f.fixed_point, f.converged, f.iterations_used) == (
        q.iterates, q.step_distances, q.fixed_point, q.converged, q.iterations_used)
    assert dataclasses.replace(report.fuzzy, framework="quantum") == report.quantum
    assert report.agreement_distance == 0.0


def test_feature_report_notes_are_textual(default_report):
    assert default_report.notes == OUT_OF_SCOPE_NOTES
    for key in ("completeness", "phase_sensitivity", "topological_protection",
                "conservation_laws"):
        assert isinstance(default_report.notes[key], str)


def test_identical_probe_gives_excess_two():
    report = build_feature_report(DEFAULT_MAPS[0], GaussianState(4, 3),
                                  (GaussianState(0, 1), GaussianState(0, 1)))
    assert report.interference_excess_quantum == 2.0


def test_far_probe_frameworks_agree_on_zero():
    report = build_feature_report(DEFAULT_MAPS[0], GaussianState(4, 3),
                                  (GaussianState(0, 1), GaussianState(100, 1)))
    assert report.interference_excess_quantum < 1e-10
    assert report.interference_excess_fuzzy == 0.0


def test_build_feature_report_propagates_non_convergence():
    slow = AffineGaussianMap(0.99999, 0.0, 0.5, 0.5)
    with pytest.raises(NotConvergedError):
        build_feature_report(slow, GaussianState(4, 3), PROBE, max_iterations=10)


CARRIER_MAPS = (*DEFAULT_MAPS, AffineGaussianMap(0.99, 0.0, 0.99, 0.05),
                AffineGaussianMap(0.95, 0.0, 0.3, 0.2))


def test_fuzzy_iteration_on_state_carrier_matches_quantum():
    # the fuzzy contraction in the state distance is the quantum iteration:
    # same iterates and step distances, bit for bit, which is what lets
    # build_feature_report take its fuzzy trace from the quantum one
    for m in CARRIER_MAPS:
        for start in DEFAULT_STARTS:
            quantum = iterate_to_fixed_point(m, start)
            fuzzy = fuzzy_fixed_point(gaussian_parameter_metric(),
                                      lambda s: apply_map(m, s), 0.5, start,
                                      condition_pairs=[(start, start)])
            assert fuzzy.iterates == quantum.iterates, (m, start)
            assert fuzzy.step_distances == quantum.step_distances, (m, start)
            assert (fuzzy.converged, fuzzy.iterations_used) == (
                quantum.converged, quantum.iterations_used)
            if m in DEFAULT_MAPS:
                assert state_distance(fuzzy.fixed_point, analytic_fixed_point(m)) < 1e-10
