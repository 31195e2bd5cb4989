import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfixpoint.gaussian import GaussianState, state_distance
from qfixpoint.solver import (DEFAULT_MAPS, DEFAULT_REGION, DEFAULT_STARTS,
                              AffineGaussianMap, DegenerateRegionError,
                              NotConvergedError, ParameterBox, analytic_fixed_point,
                              apply_map, estimate_contraction_factor,
                              iterate_to_fixed_point, verify_banach_bounds,
                              verify_uniqueness)

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


def test_apply_map_direct_arithmetic():
    out = apply_map(MAP_HALVING, GaussianState(4, 3))
    assert (out.mu, out.sigma) == (2.0, 2.0)
    out = apply_map(MAP_CONSTANT, GaussianState(123.0, 45.0))
    assert (out.mu, out.sigma) == (0.0, 1.0)


@settings(max_examples=100)
@given(maps, states)
def test_apply_map_preserves_state_validity(m, s):
    out = apply_map(m, s)
    assert out.sigma > 0.0


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
    out = apply_map(m, fp)
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
    with pytest.raises(DegenerateRegionError):
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
    moved = apply_map(MAP_HALVING, report.fixed_point)
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


def test_iterate_validates_arguments():
    with pytest.raises(ValueError):
        iterate_to_fixed_point(MAP_HALVING, GaussianState(4, 3), tolerance=0.0)
    with pytest.raises(ValueError):
        iterate_to_fixed_point(MAP_HALVING, GaussianState(4, 3), max_iterations=0)


def test_nan_tolerance_rejected():
    # NaN passes a `tolerance <= 0` check and would then burn the whole budget
    with pytest.raises(ValueError, match="tolerance must be positive"):
        iterate_to_fixed_point(MAP_HALVING, GaussianState(4, 3), tolerance=math.nan)
    with pytest.raises(ValueError, match="tolerance must be positive"):
        verify_uniqueness(MAP_HALVING, DEFAULT_STARTS, math.nan)


# ------------------------------------------------------------- banach bounds

def test_banach_bounds_pass_with_trace_estimate():
    report = iterate_to_fixed_point(MAP_HALVING, GaussianState(4, 3))
    audit = verify_banach_bounds(report, report.k_estimate)
    assert audit.passed
    # independent re-check of a few indices
    k, s0 = report.k_estimate, report.step_distances[0]
    for n in (0, 1, 5, len(report.step_distances) - 1):
        assert report.step_distances[n] <= k**n * s0 + 1e-12
        d = state_distance(report.iterates[n], report.fixed_point)
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


# --------------------------------------------------------------- uniqueness

def test_uniqueness_default_family():
    audit = verify_uniqueness(MAP_HALVING, DEFAULT_STARTS, 1e-12)
    assert audit.passed
    fp = analytic_fixed_point(MAP_HALVING)
    for start in DEFAULT_STARTS:
        report = iterate_to_fixed_point(MAP_HALVING, start)
        assert state_distance(report.fixed_point, fp) < 1e-10


def test_uniqueness_constant_map_exact():
    audit = verify_uniqueness(MAP_CONSTANT, (GaussianState(5, 5), GaussianState(-5, 0.1)))
    assert audit.passed
    assert audit.checks[0].detail.startswith("max pairwise distance")


def test_uniqueness_identical_starts_pass():
    audit = verify_uniqueness(MAP_HALVING, (GaussianState(2, 2), GaussianState(2, 2)))
    assert audit.passed


def test_uniqueness_propagates_non_convergence():
    slow = AffineGaussianMap(0.99999, 0.0, 0.5, 0.5)
    with pytest.raises(NotConvergedError):
        verify_uniqueness(slow, DEFAULT_STARTS, 1e-12, max_iterations=10)


def test_uniqueness_needs_two_starts():
    with pytest.raises(ValueError):
        verify_uniqueness(MAP_HALVING, (GaussianState(1, 1),))
