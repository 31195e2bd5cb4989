import math

import numpy as np
import pytest

from qfixpoint.gaussian import (SQRT2, GaussianState, audit_metric_axioms, distance_from_params,
                               state_distance)
from qfixpoint.reports import AuditCheck, AxiomAuditReport, check
from qfixpoint.solver import (DEFAULT_MAPS, DEFAULT_STARTS, DEFAULT_TOLERANCE,
                              DEFAULT_MAX_ITERATIONS, AffineGaussianMap, NotConvergedError,
                              iterate_to_fixed_point, verify_banach_bounds, verify_uniqueness)


# ---------------------------------------------------------- reports.check

def test_check_witnesses_the_first_failure_in_row_major_order():
    failed = np.zeros((3, 4), dtype=bool)
    failed[2, 0] = failed[1, 3] = True
    c = check("c", failed, lambda i, j: {"i": int(i), "j": int(j)}, detail="d")
    assert c == AuditCheck(name="c", passed=False, checked=12, witness={"i": 1, "j": 3},
                           detail="d")
    assert check("c", failed, lambda i, j: None, checked=5).checked == 5

    def never(*index):
        raise AssertionError("no witness is built for a passing check")

    ok = check("ok", np.zeros(7, dtype=bool), never)
    assert ok.passed and ok.witness is None and ok.checked == 7

    # a report's passed is derived from its checks and cannot be given
    assert not AxiomAuditReport("t", checks=(ok, c)).passed
    assert AxiomAuditReport("t", checks=(ok, ok)).passed
    assert AxiomAuditReport("t").passed
    assert list(AxiomAuditReport("t", checks=(c,)).to_dict()) == ["target", "passed", "checks"]
    with pytest.raises(TypeError):
        AxiomAuditReport("t", passed=True, checks=(c,))


# ------------------------------------------ scalar reference implementations
#
# The audits as they were before they took their witnesses from failure
# masks, kept verbatim apart from the report's passed= argument, which the
# report now derives from its checks.

def _reference_banach_bounds(report, k, slack=1e-12):
    if not 0.0 <= k < 1.0:
        raise ValueError("k must satisfy 0 <= k < 1")
    if len(report.iterates) < 2:
        raise ValueError("report must contain at least 2 iterates")

    steps = report.step_distances
    s0 = steps[0]
    checks = []

    witness = None
    for n, step in enumerate(steps):
        bound = k**n * s0 + slack
        if step > bound:
            witness = {"n": n, "step_distance": step, "bound": bound}
            break
    checks.append(AuditCheck(name="geometric_step_bound", passed=witness is None,
                             checked=len(steps), witness=witness,
                             detail="step[n] <= k^n * step[0] + slack"))

    witness = None
    tail = 1.0 / (1.0 - k)
    for n, it in enumerate(report.iterates):
        bound = k**n * tail * s0 + slack
        dist = state_distance(it, report.fixed_point)
        if dist > bound:
            witness = {"n": n, "distance_to_fixed_point": dist, "bound": bound}
            break
    checks.append(AuditCheck(name="geometric_tail_bound", passed=witness is None,
                             checked=len(report.iterates), witness=witness,
                             detail="d(iterate[n], fixed_point) <= k^n/(1-k) * step[0] + slack"))

    return AxiomAuditReport(target="banach-bounds", checks=tuple(checks))


def _reference_uniqueness(m, starts, tolerance=DEFAULT_TOLERANCE,
                          max_iterations=DEFAULT_MAX_ITERATIONS):
    starts = tuple(starts)
    if len(starts) < 2:
        raise ValueError("need at least 2 starts")

    fixed_points = []
    for start in starts:
        report = iterate_to_fixed_point(m, start, tolerance, max_iterations)
        if not report.converged:
            raise NotConvergedError(f"iteration from ({start.mu}, {start.sigma}) "
                                    f"did not converge in {max_iterations} steps",
                                    report=report)
        fixed_points.append(report.fixed_point)

    threshold = 10.0 * tolerance
    witness = None
    worst = 0.0
    pairs = 0
    for i in range(len(fixed_points)):
        for j in range(i + 1, len(fixed_points)):
            pairs += 1
            d = state_distance(fixed_points[i], fixed_points[j])
            if d > worst:
                worst = d
            if d > threshold and witness is None:
                witness = {"start_i": i, "start_j": j, "distance": d, "threshold": threshold}
    check = AuditCheck(name="common_fixed_point", passed=witness is None, checked=pairs,
                       witness=witness, detail=f"max pairwise distance {worst:.3e}")
    return AxiomAuditReport(target="uniqueness", checks=(check,))


def _reference_metric_axioms(samples=10000, rng_seed=0, mu_range=(-10.0, 10.0),
                             sigma_range=(0.1, 10.0), triangle_slack=1e-12):
    if samples < 1:
        raise ValueError("samples must be positive")
    rng = np.random.default_rng(rng_seed)
    mu = rng.uniform(*mu_range, size=(3, samples))
    sg = rng.uniform(*sigma_range, size=(3, samples))

    d_ab = distance_from_params(mu[0], sg[0], mu[1], sg[1])
    d_ba = distance_from_params(mu[1], sg[1], mu[0], sg[0])
    d_bc = distance_from_params(mu[1], sg[1], mu[2], sg[2])
    d_ac = distance_from_params(mu[0], sg[0], mu[2], sg[2])

    checks = []

    bad = np.nonzero(d_ab != d_ba)[0]
    checks.append(AuditCheck(
        name="symmetry_exact", passed=bad.size == 0, checked=samples,
        witness=None if bad.size == 0 else _pair_witness(mu, sg, int(bad[0]), d_ab, d_ba),
    ))

    d_self = distance_from_params(mu[0], sg[0], mu[0], sg[0])
    rel_equal = (np.abs(mu[0] - mu[1]) <= 1e-14 * np.maximum(np.abs(mu[0]), np.abs(mu[1]))) & (
        np.abs(sg[0] - sg[1]) <= 1e-14 * np.maximum(sg[0], sg[1]))
    bad_zero = np.nonzero(d_self != 0.0)[0]
    bad_pos = np.nonzero(~rel_equal & (d_ab <= 0.0))[0]
    ident_ok = bad_zero.size == 0 and bad_pos.size == 0
    witness = None
    if bad_zero.size:
        i = int(bad_zero[0])
        witness = {"mu": float(mu[0, i]), "sigma": float(sg[0, i]), "distance": float(d_self[i])}
    elif bad_pos.size:
        witness = _pair_witness(mu, sg, int(bad_pos[0]), d_ab, d_ba)
    checks.append(AuditCheck(name="identity_of_indiscernibles", passed=ident_ok,
                             checked=2 * samples, witness=witness))

    excess = d_ac - (d_ab + d_bc)
    bad = np.nonzero(excess > triangle_slack)[0]
    witness = None
    if bad.size:
        i = int(bad[0])
        witness = {"d_ac": float(d_ac[i]), "d_ab": float(d_ab[i]), "d_bc": float(d_bc[i]),
                   "excess": float(excess[i])}
    checks.append(AuditCheck(name="triangle_inequality", passed=bad.size == 0,
                             checked=samples, witness=witness,
                             detail=f"slack={triangle_slack:g}"))

    all_d = np.concatenate([d_ab, d_bc, d_ac])
    bad = np.nonzero((all_d < 0.0) | (all_d > SQRT2))[0]
    checks.append(AuditCheck(
        name="range", passed=bad.size == 0, checked=all_d.size,
        witness=None if bad.size == 0 else {"distance": float(all_d[int(bad[0])])},
        detail="0 <= d <= sqrt(2) in double precision",
    ))

    return AxiomAuditReport(target="state-distance-metric-axioms", checks=tuple(checks))


def _pair_witness(mu, sg, i, d_ab, d_ba):
    return {"a": {"mu": float(mu[0, i]), "sigma": float(sg[0, i])},
            "b": {"mu": float(mu[1, i]), "sigma": float(sg[1, i])},
            "d_ab": float(d_ab[i]), "d_ba": float(d_ba[i])}


# ---------------------------------------------- array audits == references

# the scalar reference takes state distances from math.expm1 and the arrays
# from np.expm1, which may differ in the last bit
DISTANCE_ULPS = 4


def _assert_same_report(got, want, distance_keys=()):
    assert got.target == want.target and got.passed == want.passed
    assert len(got.checks) == len(want.checks)
    for g, w in zip(got.checks, want.checks):
        assert (g.name, g.passed, g.checked, g.detail) == (w.name, w.passed, w.checked, w.detail)
        assert (g.witness is None) == (w.witness is None)
        if g.witness is None:
            continue
        assert list(g.witness) == list(w.witness)
        for key, value in g.witness.items():
            assert type(value) is type(w.witness[key]), key
            if key in distance_keys:
                assert abs(value - w.witness[key]) <= DISTANCE_ULPS * math.ulp(value), key
            else:
                assert value == w.witness[key], key


MAPS = (*DEFAULT_MAPS, AffineGaussianMap(0.99, 0.0, 0.99, 0.05),
        AffineGaussianMap(0.95, 0.0, 0.3, 0.2))


@pytest.mark.parametrize("m", MAPS)
def test_banach_bounds_equal_the_scalar_loop(m):
    failures = 0
    for start in DEFAULT_STARTS:
        trace = iterate_to_fixed_point(m, start)
        ks = [k for k in (trace.k_estimate, trace.k_estimate / 2, 0.0, 0.999) if 0.0 <= k < 1.0]
        for k in ks:
            audit = verify_banach_bounds(trace, k)
            _assert_same_report(audit, _reference_banach_bounds(trace, k),
                                distance_keys=("distance_to_fixed_point",))
            failures += not audit.passed
    # k = 0 fails every map that moves more than one step
    assert failures or m.mu_scale == m.sigma_scale == 0.0


@pytest.mark.parametrize("m", MAPS)
@pytest.mark.parametrize("tolerance", [1e-12, 1e-3])
def test_uniqueness_equals_the_scalar_loop(m, tolerance):
    starts = (*DEFAULT_STARTS, GaussianState(0.5, 0.5))
    _assert_same_report(verify_uniqueness(m, starts, tolerance),
                        _reference_uniqueness(m, starts, tolerance), distance_keys=("distance",))


def test_uniqueness_reference_set_includes_a_failure():
    assert not verify_uniqueness(MAPS[5], DEFAULT_STARTS, 1e-3).passed


@pytest.mark.parametrize("slack", [1e-12, 0.0, -1e-3])
@pytest.mark.parametrize("samples, seed, ranges", [
    (10000, 0, {}),
    # nearby states, so that many triangles come within 1e-3 of equality
    (2000, 9, {"mu_range": (0.0, 0.01), "sigma_range": (1.0, 1.01)}),
])
def test_metric_axioms_equal_the_reference(slack, samples, seed, ranges):
    audit = audit_metric_axioms(samples, seed, triangle_slack=slack, **ranges)
    assert audit == _reference_metric_axioms(samples, seed, triangle_slack=slack, **ranges)
    assert audit.passed is (slack >= 0.0)
