import math

import numpy as np
import pytest

from qfixpoint import fuzzy, gaussian
from qfixpoint.fuzzy import (LOG_T_RANGE, FuzzyMetric, TNormKind, _tnorm_fn, absolute_difference,
                             audit_gv_axioms, audit_tnorm_axioms, audit_tnorm_ordering,
                             real_line_sampler)
from qfixpoint.gaussian import (SQRT2, GaussianState, ParameterBox, audit_metric_axioms,
                               distance_from_params, state_distance)
from qfixpoint.reports import AuditCheck, AxiomAuditReport, check
from qfixpoint.solver import (DEFAULT_MAPS, DEFAULT_STARTS, AffineGaussianMap,
                              iterate_to_fixed_point, verify_banach_bounds)


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
# report now derives from its checks, and the trace, which the report now
# holds as float columns.

def _reference_banach_bounds(report, k, slack=1e-12):
    if not 0.0 <= k < 1.0:
        raise ValueError("k must satisfy 0 <= k < 1")
    if len(report.mus) < 2:
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
    for n, (mu, sigma) in enumerate(zip(report.mus, report.sigmas)):
        bound = k**n * tail * s0 + slack
        dist = state_distance(GaussianState(mu, sigma), report.fixed_point)
        if dist > bound:
            witness = {"n": n, "distance_to_fixed_point": dist, "bound": bound}
            break
    checks.append(AuditCheck(name="geometric_tail_bound", passed=witness is None,
                             checked=len(report.mus), witness=witness,
                             detail="d(iterate[n], fixed_point) <= k^n/(1-k) * step[0] + slack"))

    return AxiomAuditReport(target="banach-bounds", checks=tuple(checks))


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
    bad_zero = np.nonzero(d_self != 0.0)[0]
    bad_pos = np.nonzero(((mu[0] != mu[1]) | (sg[0] != sg[1])) & (d_ab <= 0.0))[0]
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


# ---------------------------------------------------- audits == references

def _assert_same_report(got, want):
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
            _assert_same_report(audit, _reference_banach_bounds(trace, k))
            failures += not audit.passed
    # k = 0 fails every map that moves more than one step
    assert failures or m.mu_scale == m.sigma_scale == 0.0


@pytest.mark.parametrize("slack", [1e-12, 0.0, -1e-3])
@pytest.mark.parametrize("samples, seed, ranges", [
    (10000, 0, {}),
    # nearby states, so that many triangles come within 1e-3 of equality
    (2000, 9, {"mu_range": (0.0, 0.01), "sigma_range": (1.0, 1.01)}),
])
def test_metric_axioms_equal_the_reference(slack, samples, seed, ranges):
    box = {"box": ParameterBox(*ranges["mu_range"], *ranges["sigma_range"])} if ranges else {}
    audit = audit_metric_axioms(samples, seed, triangle_slack=slack, **box)
    assert audit == _reference_metric_axioms(samples, seed, triangle_slack=slack, **ranges)
    assert audit.passed is (slack >= 0.0)


def _naive_distance(mu1, sg1, mu2, sg2):
    """sqrt(2 - 2<a|b>) as written: distinct states whose overlap rounds to 1 get 0."""
    ss = sg1 * sg1 + sg2 * sg2
    overlap = np.sqrt(2.0 * (sg1 * sg2) / ss) * np.exp(-((mu1 - mu2) ** 2) / (2.0 * ss))
    return np.sqrt(np.maximum(0.0, 2.0 - 2.0 * overlap))


@pytest.mark.parametrize("kernel", [distance_from_params, _naive_distance],
                         ids=["real-kernel", "naive-kernel"])
def test_identity_check_is_exact_on_states_a_few_ulps_apart(kernel, monkeypatch):
    # the parameters differ by at most 2**-50, inside any relative tolerance above
    # 1e-15, so only the exact rule sees the naive kernel's distance 0
    monkeypatch.setattr(gaussian, "distance_from_params", kernel)
    box = ParameterBox(1.0, 1.0 + 2**-50, 1.0, 1.0 + 2**-50)
    report = audit_metric_axioms(500, 0, box)
    identity = {c.name: c for c in report.checks}["identity_of_indiscernibles"]
    assert identity.passed is (kernel is distance_from_params)
    if not identity.passed:
        w = identity.witness
        assert w["a"] != w["b"] and w["d_ab"] == 0.0


# ------------------------------------------------------- one witness rule
#
# Each case forces a failure in one audit and recomputes, by a scalar loop,
# the failure mask of the checks it names: {check name: (mask, witness_at)},
# where witness_at(*index) gives the witness entries at that index.

SLACK = 1e-12


def _grid_masks(op, n):
    g = [float(v) for v in np.linspace(0.0, 1.0, n)]
    r = range(n)

    def at(*idx):
        return dict(zip("xyz", (g[i] for i in idx)))
    return {
        "commutativity": ([[not abs(op(g[i], g[j]) - op(g[j], g[i])) <= SLACK for j in r]
                           for i in r], at),
        "associativity": ([[[not abs(op(g[i], op(g[j], g[k])) - op(op(g[i], g[j]), g[k]))
                              <= SLACK for k in r] for j in r] for i in r], at),
        "monotonicity": ([[not op(g[i], g[j + 1]) - op(g[i], g[j]) >= -SLACK
                           for j in range(n - 1)] for i in r],
                         lambda i, j: {"x": g[i], "y": g[j], "z": g[j + 1]}),
        "identity_element": ([not abs(op(g[i], 1.0) - g[i]) <= SLACK for i in r], at),
    }


def _broken_tnorm_case(op):
    def case(monkeypatch):
        return audit_tnorm_axioms(op, 7), _grid_masks(op, 7)
    return case


SCALAR_TNORMS = {TNormKind.MINIMUM: min, TNormKind.PRODUCT: lambda a, b: a * b,
                 TNormKind.LUKASIEWICZ: lambda a, b: max(0.0, a + b - 1.0)}


def _broken_ordering_case(kind, op, scalar):
    """The ordering audit with t-norm ``kind`` replaced by ``op``, in scalar form ``scalar``."""
    def case(monkeypatch):
        monkeypatch.setattr(fuzzy, "_tnorm_fn", lambda k: op if k == kind else _tnorm_fn(k))
        g = [float(v) for v in np.linspace(0.0, 1.0, 9)]
        luk, prod, mini = ({**SCALAR_TNORMS, kind: scalar}[k] for k in (
            TNormKind.LUKASIEWICZ, TNormKind.PRODUCT, TNormKind.MINIMUM))

        def at(i, j):
            return {"x": g[i], "y": g[j]}
        return audit_tnorm_ordering(9), {
            "lukasiewicz_le_product": ([[not luk(a, b) - prod(a, b) <= SLACK for b in g]
                                        for a in g], at),
            "product_le_minimum": ([[not prod(a, b) - mini(a, b) <= SLACK for b in g] for a in g],
                                   at),
        }
    return case


def _gv_case(base_distance, tnorm=TNormKind.PRODUCT):
    """The gv audit of ``base_distance`` on the line at 64 points and 8 t values, seed 0."""
    def case(monkeypatch):
        n, t_samples = 64, 8
        # the audit's draws, in its order
        rng = np.random.default_rng(0)
        pts = [real_line_sampler()(rng) for _ in range(n)]
        ts = 10.0 ** rng.uniform(*LOG_T_RANGE, t_samples)
        tri = rng.integers(0, n, size=(n, 3))
        t, s = (10.0 ** rng.uniform(*LOG_T_RANGE, (n, 2))).T
        d, op = base_distance, SCALAR_TNORMS[tnorm]
        adjacent = list(zip(pts, pts[1:]))
        triangle = []
        for (x, y, z), ti, si in zip(([pts[i] for i in row] for row in tri), t, s):
            lhs = op(ti / (ti + d(x, y)), si / (si + d(y, z)))
            triangle.append(lhs > (ti + si) / (ti + si + d(x, z)) + SLACK)
        report = audit_gv_axioms(FuzzyMetric(base_distance, tnorm), real_line_sampler(), n,
                                 t_samples, rng_seed=0)
        return report, {
            # rows: each point with itself, then the adjacent pairs
            "identity": ([[tj / (tj + d(p, p)) != 1.0 for tj in ts] for p in pts] +
                         [[x != y and tj / (tj + d(x, y)) >= 1.0 for tj in ts]
                          for x, y in adjacent],
                         lambda r, j: ({"x": pts[r], "t": ts[j]} if r < n else
                                       {"x": pts[r - n], "y": pts[r - n + 1], "t": ts[j]})),
            "symmetry": ([[tj / (tj + d(x, y)) != tj / (tj + d(y, x)) for tj in ts]
                          for x, y in adjacent],
                         lambda i, j: {"x": pts[i], "y": pts[i + 1], "t": ts[j]}),
            "tnorm_triangle": (triangle, lambda i: dict(zip("xyz", (pts[j] for j in tri[i])))),
        }
    return case


def _metric_case(monkeypatch):
    # nearby states, so that some triangles come within 1e-3 of equality; the
    # first is sample 9
    box = ParameterBox(0.0, 0.1, 1.0, 1.1)
    mu, sg = box.sample(np.random.default_rng(9), (3, 2000))
    states = [[GaussianState(m, s) for m, s in zip(mu[r], sg[r])] for r in range(3)]
    d = {(p, q): [state_distance(a, b) for a, b in zip(states[p], states[q])]
         for p, q in ((0, 1), (1, 2), (0, 2))}
    excess = [ac - (ab + bc) for ab, bc, ac in zip(d[0, 1], d[1, 2], d[0, 2])]
    return audit_metric_axioms(2000, 9, box, triangle_slack=-1e-3), {
        "triangle_inequality": ([e > -1e-3 for e in excess],
                                lambda i: {"d_ab": d[0, 1][i], "d_bc": d[1, 2][i],
                                           "d_ac": d[0, 2][i]})}


def _broken_kernel_case(wrong):
    """The metric-axioms audit with ``distance_from_params`` replaced by ``wrong(d, mu1, mu2)``,
    where d is the true distance, and the masks of the three checks a kernel alone can fail."""
    def case(monkeypatch):
        monkeypatch.setattr(gaussian, "distance_from_params", lambda mu1, sg1, mu2, sg2: wrong(
            distance_from_params(mu1, sg1, mu2, sg2), mu1, mu2))
        mu, sg = ParameterBox(-10.0, 10.0, 0.1, 10.0).sample(np.random.default_rng(0), (3, 500))
        a, b, c = ([(float(m), float(s)) for m, s in zip(mu[r], sg[r])] for r in range(3))

        def dist(x, y):
            return float(wrong(state_distance(GaussianState(*x), GaussianState(*y)), x[0], y[0]))

        def pair_at(i):
            return {"a": {"mu": a[i][0], "sigma": a[i][1]}, "b": {"mu": b[i][0], "sigma": b[i][1]},
                    "d_ab": dist(a[i], b[i]), "d_ba": dist(b[i], a[i])}
        all_d = [dist(x, y) for p, q in ((a, b), (b, c), (a, c)) for x, y in zip(p, q)]
        return audit_metric_axioms(500, 0), {
            "symmetry_exact": ([dist(x, y) != dist(y, x) for x, y in zip(a, b)], pair_at),
            # row 0: each point with itself, witnessed with its distance from itself,
            # row 1: distinct pairs at distance 0
            "identity_of_indiscernibles": (
                [[dist(x, x) != 0.0 for x in a],
                 [x != y and dist(x, y) <= 0.0 for x, y in zip(a, b)]],
                lambda r, i: pair_at(i) if r else {"mu": a[i][0], "sigma": a[i][1],
                                                   "distance": dist(a[i], a[i])}),
            "range": ([not 0.0 <= d <= SQRT2 for d in all_d], lambda i: {"distance": all_d[i]}),
        }
    return case


def _banach_case(monkeypatch):
    trace = iterate_to_fixed_point(DEFAULT_MAPS[0], DEFAULT_STARTS[0])
    k, s0 = 0.1, trace.step_distances[0]
    dist = [state_distance(GaussianState(mu, sigma), trace.fixed_point)
            for mu, sigma in zip(trace.mus, trace.sigmas)]
    return verify_banach_bounds(trace, k), {
        "geometric_step_bound": ([step > k**n * s0 + SLACK
                                  for n, step in enumerate(trace.step_distances)],
                                 lambda n: {"n": n}),
        "geometric_tail_bound": ([x > k**n * (1.0 / (1.0 - k)) * s0 + SLACK
                                  for n, x in enumerate(dist)], lambda n: {"n": n}),
    }


FAILING_CASES = {
    "tnorm-squared": _broken_tnorm_case(lambda a, b: a * a * b),
    "tnorm-decreasing": _broken_tnorm_case(lambda a, b: np.minimum(a, 1.0 - b)),
    # the geometric mean in place of the product lies above the minimum off the diagonal
    "tnorm-ordering": _broken_ordering_case(TNormKind.PRODUCT, lambda a, b: np.sqrt(a * b),
                                            lambda a, b: math.sqrt(a * b)),
    # the maximum in place of the Lukasiewicz t-norm lies above the product
    "tnorm-ordering-maximum": _broken_ordering_case(TNormKind.LUKASIEWICZ, np.maximum, max),
    # the squared distance breaks the triangle inequality, and under the minimum
    # t-norm the induced membership breaks the t-norm triangle axiom
    "gv": _gv_case(lambda x, y: (x - y) ** 2, TNormKind.MINIMUM),
    "gv-asymmetric": _gv_case(lambda x, y: abs(x - y) * (1.0 + 1e-9 * (x > y))),
    # d(p, p) > 0 fails the rows of points with themselves, d = 0 those of distinct pairs
    "gv-self-distance": _gv_case(lambda x, y: abs(x - y) + 1e-3),
    "gv-zero": _gv_case(lambda x, y: 0.0),
    "metric-axioms": _metric_case,
    "metric-asymmetric": _broken_kernel_case(lambda d, mu1, mu2: d * (1.0 - 1e-9 * (mu1 > mu2))),
    "metric-zero-when-close": _broken_kernel_case(
        lambda d, mu1, mu2: np.where(np.abs(mu1 - mu2) < 1.0, 0.0, d)),
    "metric-above-sqrt2": _broken_kernel_case(lambda d, mu1, mu2: 1.5 * d),
    # d(p, p) > 0 fails the rows of points with themselves
    "metric-self-distance": _broken_kernel_case(lambda d, mu1, mu2: d + 1e-3),
    "banach-bounds": _banach_case,
}


@pytest.mark.parametrize("case", FAILING_CASES.values(), ids=FAILING_CASES)
def test_a_failing_check_witnesses_its_first_failure_in_row_major_order(case, monkeypatch):
    report, masks = case(monkeypatch)
    assert not all(c.passed for c in report.checks if c.name in masks)
    for c in report.checks:
        if c.name not in masks:
            continue
        failed, witness_at = masks[c.name]
        hits = np.argwhere(np.array(failed, dtype=bool))
        assert c.passed is (len(hits) == 0), c.name
        if len(hits):
            want = witness_at(*(int(i) for i in hits[0]))
            assert c.witness is not None, c.name
            got = {key: c.witness[key] for key in want}
            # a witness state, {"mu": ..., "sigma": ...}, is its drawn parameters exactly
            states = [key for key, value in want.items() if isinstance(value, dict)]
            assert [got.pop(key) for key in states] == [want.pop(key) for key in states], c.name
            assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_every_audit_check_has_an_input_that_fails_it():
    """Each check an audit emits fails in some case above; a check no input can fail
    belongs in a unit test of what makes it hold, not in every run of the audit."""
    trace = iterate_to_fixed_point(DEFAULT_MAPS[0], DEFAULT_STARTS[0])
    reports = [*(audit_tnorm_axioms(kind) for kind in TNormKind), audit_tnorm_ordering(),
               audit_gv_axioms(FuzzyMetric(absolute_difference), real_line_sampler(), 16, 8),
               audit_metric_axioms(100), verify_banach_bounds(trace, 0.5)]
    emitted = {(r.target, c.name) for r in reports for c in r.checks}
    failed = set()
    for case in FAILING_CASES.values():
        with pytest.MonkeyPatch.context() as monkeypatch:
            report, masks = case(monkeypatch)
        failed |= {(report.target, c.name) for c in report.checks
                   if c.name in masks and not c.passed}
    assert emitted - failed == set()
    assert len(emitted) == 15
