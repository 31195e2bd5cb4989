import math
import pathlib
import runpy
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfixpoint import solver
from qfixpoint.compare import gaussian_state_sampler
from qfixpoint.gaussian import GaussianState, state_distance
from qfixpoint.solver import (DEFAULT_MAPS, DEFAULT_REGION, AffineGaussianMap,
                              FixedPointReport, ParameterBox, analytic_fixed_point,
                              estimate_contraction_factor, iterate_to_fixed_point,
                              verify_banach_bounds)

MAP_HALVING = AffineGaussianMap(0.5, 0.0, 0.5, 0.5)
MAP_CONSTANT = AffineGaussianMap(0.0, 0.0, 0.0, 1.0)

maps = st.builds(AffineGaussianMap,
                 mu_scale=st.floats(-0.95, 0.95),
                 mu_shift=st.floats(-5.0, 5.0),
                 sigma_scale=st.floats(0.0, 0.95),
                 sigma_shift=st.floats(0.05, 5.0))
states = st.builds(GaussianState, mu=st.floats(-10.0, 10.0), sigma=st.floats(0.1, 10.0))


# ------------------------------------------------------------ map invariants

def test_map_validation_messages():
    with pytest.raises(ValueError, match=r"mu_scale must satisfy \|mu_scale\| < 1"):
        AffineGaussianMap(1.5, 0.0, 0.5, 0.5)
    with pytest.raises(ValueError, match="sigma_scale"):
        AffineGaussianMap(0.5, 0.0, 1.0, 0.5)
    with pytest.raises(ValueError, match="sigma_scale"):
        AffineGaussianMap(0.5, 0.0, -0.1, 0.5)
    with pytest.raises(ValueError, match="sigma_shift must be positive"):
        AffineGaussianMap(0.5, 0.0, 0.5, 0.0)


def test_parameter_box_validation():
    with pytest.raises(ValueError):
        ParameterBox(1.0, -1.0, 0.1, 1.0)
    with pytest.raises(ValueError):
        ParameterBox(-1.0, 1.0, 0.0, 1.0)


@pytest.mark.parametrize("bounds", [
    (0.0, 1.0, 0.3, math.inf),
    (-math.inf, 1.0, 0.3, 1.0),
    (0.0, math.nan, 0.3, 1.0),
    # finite bounds whose span overflows cannot be sampled uniformly either
    (-1e308, 1e308, 0.3, 1.0),
])
def test_parameter_box_rejects_non_finite_bounds(bounds):
    with pytest.raises(ValueError):
        ParameterBox(*bounds)


# The draws that ParameterBox.sample replaced, kept verbatim apart from taking
# the box as an argument: the estimator's pairs, the compare carrier's sampler
# and audit_metric_axioms' triples.

def _old_sample_pair_params(region, samples, rng):
    mu1 = rng.uniform(region.mu_lo, region.mu_hi, samples)
    sg1 = rng.uniform(region.sigma_lo, region.sigma_hi, samples)
    mu2 = rng.uniform(region.mu_lo, region.mu_hi, samples)
    sg2 = rng.uniform(region.sigma_lo, region.sigma_hi, samples)
    return mu1, sg1, mu2, sg2


def _old_gaussian_state_sampler(region=DEFAULT_REGION):
    def sample(rng):
        return GaussianState(float(rng.uniform(region.mu_lo, region.mu_hi)),
                             float(rng.uniform(region.sigma_lo, region.sigma_hi)))
    return sample


def _old_triples(mu_range, sigma_range, samples, rng):
    mu = rng.uniform(*mu_range, size=(3, samples))
    sg = rng.uniform(*sigma_range, size=(3, samples))
    return mu, sg


def _bits(values):
    return [np.asarray(v, dtype=float).tobytes() for v in values]


@pytest.mark.parametrize("box", [
    DEFAULT_REGION, ParameterBox(-10.0, 10.0, 0.1, 10.0), ParameterBox(0.0, 0.01, 1.0, 1.01),
    ParameterBox(3.0, 3.0, 1.0, 1.0), ParameterBox(-2, 2, 0.5, 2),
    ParameterBox(-1e300, 1e300, 1e-300, 1e300),
])
@pytest.mark.parametrize("seed", [0, 1, 59])
def test_parameter_box_sample_keeps_the_old_streams(box, seed):
    for size in (1, 7, 2000):
        new, old = np.random.default_rng(seed), np.random.default_rng(seed)
        pairs = (*box.sample(new, size), *box.sample(new, size))
        assert _bits(pairs) == _bits(_old_sample_pair_params(box, size, old))
        assert new.random() == old.random()

        new, old = np.random.default_rng(seed), np.random.default_rng(seed)
        triples = box.sample(new, (3, size))
        want = _old_triples((box.mu_lo, box.mu_hi), (box.sigma_lo, box.sigma_hi), size, old)
        assert triples[0].shape == (3, size) and _bits(triples) == _bits(want)
        assert new.random() == old.random()

    new, old = np.random.default_rng(seed), np.random.default_rng(seed)
    old_sampler = _old_gaussian_state_sampler(box)
    for _ in range(50):
        mu, sigma = box.sample(new)
        want = old_sampler(old)
        assert type(mu) is type(sigma) is float
        assert _bits((mu, sigma)) == _bits((want.mu, want.sigma))


@pytest.mark.parametrize("seed", [0, 1, 59])
def test_gaussian_state_sampler_keeps_the_old_stream(seed):
    new, old = np.random.default_rng(seed), np.random.default_rng(seed)
    sampler, old_sampler = gaussian_state_sampler(), _old_gaussian_state_sampler()
    got = [sampler(new) for _ in range(200)]
    want = [old_sampler(old) for _ in range(200)]
    assert _bits([(s.mu, s.sigma) for s in got]) == _bits([(s.mu, s.sigma) for s in want])


def _image(m, s):
    """The state m sends s to, by the map's parameter arithmetic."""
    return GaussianState(m.mu_scale * s.mu + m.mu_shift, m.sigma_scale * s.sigma + m.sigma_shift)


def _one_step(m, s):
    """Iterate 1 of the Picard loop from s, as (mu, sigma)."""
    report = iterate_to_fixed_point(m, s, max_iterations=1)
    assert report.iterations_used == 1 and len(report.mus) == 2
    return report.mus[1], report.sigmas[1]


def test_one_picard_step_direct_arithmetic():
    assert _one_step(MAP_HALVING, GaussianState(4, 3)) == (2.0, 2.0)
    assert _one_step(MAP_CONSTANT, GaussianState(123.0, 45.0)) == (0.0, 1.0)


@settings(max_examples=100)
@given(maps, states)
def test_one_picard_step_preserves_state_validity(m, s):
    mu, sigma = _one_step(m, s)
    assert math.isfinite(mu) and math.isfinite(sigma) and sigma > 0.0
    assert GaussianState(mu, sigma) == _image(m, s)


# ------------------------------------------------------ analytic fixed point

def test_analytic_fixed_point_solves_recursion():
    # mu* = shift/(1-scale), sigma* likewise
    assert analytic_fixed_point(MAP_HALVING) == GaussianState(0.0, 1.0)
    assert analytic_fixed_point(AffineGaussianMap(0.0, 7.0, 0.0, 2.0)) == GaussianState(7.0, 2.0)
    fp = analytic_fixed_point(AffineGaussianMap(0.9, 0.1, 0.5, 1.0))
    assert fp.mu == pytest.approx(1.0, abs=1e-12)
    assert fp.sigma == pytest.approx(2.0, abs=1e-12)


@settings(max_examples=100)
@given(maps)
def test_analytic_fixed_point_is_fixed(m):
    fp = analytic_fixed_point(m)
    out = _image(m, fp)
    assert state_distance(out, fp) < 1e-13


# -------------------------------------------------------- contraction factor

def test_contraction_factor_constant_map_is_zero():
    box = ParameterBox(-1.0, 1.0, 0.5, 2.0)
    assert estimate_contraction_factor(MAP_CONSTANT, box, 1000, 0) == 0.0


def test_contraction_factor_strictly_below_one():
    box = ParameterBox(-1.0, 1.0, 0.5, 2.0)
    k = estimate_contraction_factor(AffineGaussianMap(0.9, 0.0, 0.9, 0.1), box, 1000, 0)
    assert 0.0 < k < 1.0
    k = estimate_contraction_factor(MAP_HALVING, ParameterBox(-2, 2, 0.5, 2), 10000, 0)
    assert k < 1.0


def test_contraction_factor_deterministic_per_seed():
    k1 = estimate_contraction_factor(MAP_HALVING, DEFAULT_REGION, 500, 11)
    k2 = estimate_contraction_factor(MAP_HALVING, DEFAULT_REGION, 500, 11)
    assert k1 == k2


def test_contraction_factor_degenerate_region():
    box = ParameterBox(3.0, 3.0, 1.0, 1.0)  # single point, all pairs coincide
    with pytest.raises(ValueError, match="closer than 1e-12"):
        estimate_contraction_factor(MAP_HALVING, box, 200, 0)


def test_contraction_factor_rejects_small_sample():
    with pytest.raises(ValueError):
        estimate_contraction_factor(MAP_HALVING, DEFAULT_REGION, 50, 0)


# ------------------------------------------------------------------ iterate

def test_iterate_reaches_analytic_fixed_point():
    report = iterate_to_fixed_point(MAP_HALVING, GaussianState(4, 3), 1e-12, 10000)
    assert report.converged
    assert state_distance(report.fixed_point, analytic_fixed_point(MAP_HALVING)) < 1e-10


def test_iterate_constant_map_two_steps():
    report = iterate_to_fixed_point(MAP_CONSTANT, GaussianState(9, 9), 1e-12, 10000)
    assert report.converged
    assert report.iterations_used <= 2
    assert report.fixed_point == GaussianState(0.0, 1.0)


def test_iterate_from_fixed_point_stops_immediately():
    report = iterate_to_fixed_point(MAP_HALVING, GaussianState(0, 1), 1e-12, 10000)
    assert report.converged
    assert report.iterations_used == 1
    assert report.step_distances[0] <= 1e-13


def test_iterate_respects_budget():
    slow = AffineGaussianMap(0.99999, 0.0, 0.5, 0.5)
    report = iterate_to_fixed_point(slow, GaussianState(4, 3), 1e-12, 10)
    assert not report.converged
    assert report.iterations_used == 10


def test_iterate_fixed_point_is_nearly_invariant():
    report = iterate_to_fixed_point(MAP_HALVING, GaussianState(4, 3), 1e-12, 10000)
    moved = _image(MAP_HALVING, report.fixed_point)
    assert state_distance(moved, report.fixed_point) <= 1e-12


def test_iterate_reports_are_bitwise_deterministic():
    r1 = iterate_to_fixed_point(MAP_HALVING, GaussianState(4, 3))
    r2 = iterate_to_fixed_point(MAP_HALVING, GaussianState(4, 3))
    assert r1 == r2


def test_iterate_geometric_decay():
    for m in DEFAULT_MAPS:
        report = iterate_to_fixed_point(m, GaussianState(4, 3))
        k = report.k_estimate
        steps = report.step_distances
        for n in range(len(steps) - 1):
            if steps[n] > 1e-13:
                assert steps[n + 1] <= k * steps[n] + 1e-12


def test_iterate_trace_carries_the_banach_quantities():
    # one a-priori bound per iterate, k^n/(1-k) * step[0], each above that
    # iterate's distance to the limit the run reached
    for m in DEFAULT_MAPS:
        report = iterate_to_fixed_point(m, GaussianState(4, 3))
        k, s0 = report.k_estimate, report.step_distances[0]
        assert len(report.a_priori_bounds) == len(report.mus)
        trace = zip(report.mus, report.sigmas, report.a_priori_bounds)
        for n, (mu, sigma, bound) in enumerate(trace):
            assert bound == k**n / (1.0 - k) * s0
            assert state_distance(GaussianState(mu, sigma), report.fixed_point) <= bound + 1e-12


def _reference_trace(m, start, tolerance, max_iterations):
    """The Picard loop on states: _image, GaussianState and state_distance per step.

    Its bounds are empty when no step ratio was observed, as the report's are.
    """
    iterates, steps = [start], []
    for _ in range(max_iterations):
        nxt = _image(m, iterates[-1])
        steps.append(state_distance(nxt, iterates[-1]))
        iterates.append(nxt)
        if steps[-1] <= tolerance:
            break
    ratios = [steps[n] / steps[n - 1] for n in range(1, len(steps))
              if steps[n - 1] > solver.RATIO_FLOOR]
    k = max(ratios) if ratios else 0.0
    bounds = (tuple(k**n / (1.0 - k) * steps[0] for n in range(len(iterates)))
              if ratios and k < 1.0 else ())
    return ([it.mu for it in iterates], [it.sigma for it in iterates], steps, [k], bounds,
            [len(steps)], [steps[-1] <= tolerance])


def _reprs(columns):
    """Each float by its shortest round-trip repr, which tells -0.0 from 0.0."""
    return [list(map(repr, column)) for column in columns]


def _outcome(run):
    try:
        return _reprs(run())
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc)


# centres and widths over the whole double range, so that some runs overflow
# to inf (ValueError) or overflow 2*ss (OverflowError), underflow ss
# (ZeroDivisionError) or take subnormal steps; most stay in range
scales = st.floats(-0.999, 0.999) | st.sampled_from([0.0, -0.0, 1e-200, 0.1, 0.5, 0.99])
magnitudes = (st.floats(0.01, 100.0) | st.floats(0.01, 100.0) | st.floats(1e-170, 1e170)
              | st.sampled_from([5e-324, 1e-160, 1e-100, 1e100, 1e130, 1e154, 1e300]))
centres = (st.floats(-10.0, 10.0) | st.floats(-1e308, 1e308) | magnitudes
           | magnitudes.map(lambda x: -x) | st.sampled_from([1e-13, 1e308, -1e308]))
wide_maps = st.builds(AffineGaussianMap, mu_scale=scales, mu_shift=centres,
                      sigma_scale=st.floats(0.0, 0.999) | st.sampled_from([0.0, 0.5]),
                      sigma_shift=magnitudes)
wide_states = st.builds(GaussianState, mu=centres, sigma=magnitudes)


@settings(max_examples=300, deadline=None)
@given(wide_maps, wide_states, st.sampled_from([1e-12, 5e-324, 1e-3, 1.0]),
       st.integers(1, 400))
@example(AffineGaussianMap(1e-200, 0, 0, 1), GaussianState(4, 3), 1e-12, 10000)
@example(AffineGaussianMap(0.1, 0, 0.5, 1e130), GaussianState(4, 3), 5e-324, 10000)
@example(AffineGaussianMap(0.5, 0, 0.5, 0.5), GaussianState(1e300, 3), 1e-12, 10000)
@example(AffineGaussianMap(0.5, 0, 0.5, 1e-100), GaussianState(0, 1e100), 1e-12, 10000)
@example(AffineGaussianMap(0.5, 0, 0.5, 1), GaussianState(0.5, 2), 1e-12, 1)
@example(AffineGaussianMap(0.5, 1e308, 0.5, 1), GaussianState(1e308, 1), 1e-12, 10)
@example(AffineGaussianMap(0.5, 0, 0.5, 1e154), GaussianState(0, 1), 1e-12, 10)
@example(AffineGaussianMap(0.5, 0, 0.5, 1e-170), GaussianState(0, 1e-160), 1e-12, 10)
def test_float_trace_matches_the_state_loop_bit_for_bit(m, start, tolerance, max_iterations):
    def float_trace():
        r = iterate_to_fixed_point(m, start, tolerance, max_iterations)
        assert (r.fixed_point.mu, r.fixed_point.sigma) == (r.mus[-1], r.sigmas[-1])
        return (r.mus, r.sigmas, r.step_distances, [r.k_estimate], r.a_priori_bounds,
                [r.iterations_used], [r.converged])

    assert _outcome(float_trace) == _outcome(
        lambda: _reference_trace(m, start, tolerance, max_iterations))


def test_float_trace_errors_are_the_state_loops():
    # an iterate overflows to inf, and 2*ss overflows with finite widths
    with pytest.raises(ValueError, match="state parameters must be finite"):
        iterate_to_fixed_point(AffineGaussianMap(0.5, 1e308, 0.5, 1), GaussianState(1e308, 1))
    with pytest.raises(OverflowError, match="overflows"):
        iterate_to_fixed_point(AffineGaussianMap(0.5, 0, 0.5, 1e154), GaussianState(0, 1))


def test_a_trace_without_a_step_ratio_has_no_bounds():
    # one step, and a converged run whose only step is below RATIO_FLOOR: k = 0
    # observes nothing, so it bounds nothing
    for start, max_iterations in (((0.5, 2), 1), ((1e-13, 2), 10000)):
        report = iterate_to_fixed_point(AffineGaussianMap(0.5, 0, 0.5, 1),
                                        GaussianState(*start), max_iterations=max_iterations)
        assert report.k_estimate == 0.0 and report.a_priori_bounds == ()
    # the constant map observes the ratio 0/s0 and keeps its bounds
    report = iterate_to_fixed_point(MAP_CONSTANT, GaussianState(9, 9))
    assert report.k_estimate == 0.0
    assert report.a_priori_bounds == (report.step_distances[0], 0.0, 0.0)


def test_iterates_are_built_from_the_columns():
    report = iterate_to_fixed_point(MAP_HALVING, GaussianState(4, 3))
    assert report.iterates == tuple(map(GaussianState, report.mus, report.sigmas))


def test_iterate_validates_arguments():
    with pytest.raises(ValueError):
        iterate_to_fixed_point(MAP_HALVING, GaussianState(4, 3), tolerance=0.0)
    with pytest.raises(ValueError):
        iterate_to_fixed_point(MAP_HALVING, GaussianState(4, 3), max_iterations=0)
    # no state distance exceeds sqrt(2), so the first step would pass for convergence
    for tolerance in (math.sqrt(2), math.inf):
        with pytest.raises(ValueError, match=r"tolerance must be below sqrt\(2\)"):
            iterate_to_fixed_point(MAP_HALVING, GaussianState(4, 3), tolerance)


def test_nan_tolerance_rejected():
    # NaN passes a `tolerance <= 0` check and would then burn the whole budget
    with pytest.raises(ValueError, match="tolerance must be positive"):
        iterate_to_fixed_point(MAP_HALVING, GaussianState(4, 3), tolerance=math.nan)


# ------------------------------------------------------------- banach bounds

def test_banach_bounds_pass_with_trace_estimate():
    report = iterate_to_fixed_point(MAP_HALVING, GaussianState(4, 3))
    audit = verify_banach_bounds(report, report.k_estimate)
    assert audit.passed
    # independent re-check of a few indices
    k, s0 = report.k_estimate, report.step_distances[0]
    for n in (0, 1, 5, len(report.step_distances) - 1):
        assert report.step_distances[n] <= k**n * s0 + 1e-12
        d = state_distance(GaussianState(report.mus[n], report.sigmas[n]), report.fixed_point)
        assert d <= k**n / (1 - k) * s0 + 1e-12


def test_banach_bounds_constant_map_k_zero():
    report = iterate_to_fixed_point(MAP_CONSTANT, GaussianState(9, 9))
    assert verify_banach_bounds(report, 0.0).passed


def test_banach_bounds_detect_undersized_k():
    report = iterate_to_fixed_point(MAP_HALVING, GaussianState(4, 3))
    audit = verify_banach_bounds(report, report.k_estimate / 2)
    assert not audit.passed
    failure = next(c for c in audit.checks if not c.passed)
    assert failure.witness is not None
    assert failure.witness["n"] >= 1


def test_banach_bounds_reject_bad_k():
    report = iterate_to_fixed_point(MAP_HALVING, GaussianState(4, 3))
    with pytest.raises(ValueError, match="k must satisfy"):
        verify_banach_bounds(report, 1.0)


def test_banach_bounds_reject_a_report_of_one_iterate():
    # the iteration always takes a step, so only a hand-built report has one iterate
    report = FixedPointReport(mus=(4.0,), sigmas=(3.0,), step_distances=(), k_estimate=0.0,
                              a_priori_bounds=(), fixed_point=GaussianState(4, 3),
                              converged=False, iterations_used=0)
    with pytest.raises(ValueError, match="at least 2 iterates"):
        verify_banach_bounds(report, 0.5)


SURVEY = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "contraction_survey.py"


@pytest.mark.parametrize("k_factor, code", [(1.0, 0), (0.5, 1)])
def test_contraction_survey_exit_code_follows_the_bounds(monkeypatch, capsys, k_factor, code):
    # the survey checks each trace against its own k_estimate; half of it is
    # too small for the halving map (test_banach_bounds_detect_undersized_k)
    def scaled(report, k):
        return verify_banach_bounds(report, k * k_factor)
    monkeypatch.setattr(solver, "verify_banach_bounds", scaled)
    monkeypatch.setattr(sys, "argv", [str(SURVEY), "--samples", "100"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SURVEY), run_name="__main__")
    assert exit_info.value.code == code
    assert ("FAIL" in capsys.readouterr().out) == bool(code)
