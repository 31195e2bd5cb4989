import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfixpoint import fuzzy
from qfixpoint.compare import gaussian_parameter_metric, gaussian_state_sampler
from qfixpoint.fuzzy import (_AUDIT_ROWS, AUDIT_SLACK, T_GRID, T_RANGE, T_SAMPLES,
                             FuzzyMetric, TNormKind, _grade, _tnorm_fn, absolute_difference,
                             audit_gv_axioms, audit_tnorm_axioms, audit_tnorm_ordering,
                             fuzzy_fixed_point, real_line_sampler)
from qfixpoint.reports import AuditCheck, AxiomAuditReport
from qfixpoint.solver import DEFAULT_REGION, AffineGaussianMap, apply_map

unit = st.floats(0.0, 1.0)

LINE = FuzzyMetric(base_distance=absolute_difference)


def _counting(base_distance):
    calls = []

    def counted(x, y):
        calls.append((x, y))
        return base_distance(x, y)
    return calls, FuzzyMetric(base_distance=counted)


def _failures(report):
    return [c for c in report.checks if not c.passed]


# ------------------------------------------------------------------- t-norms

def test_tnorm_known_values():
    # product and minimum both pass every axiom audit and the ordering check,
    # so only their values tell them apart: 0.2 and 0.4 at (0.5, 0.4)
    a, b = [0.3, 0.5, 0.9, 0.0, 1.0], [1.0, 0.4, 0.7, 0.6, 1.0]
    def values(kind):
        return _tnorm_fn(kind)(np.array(a), np.array(b)).tolist()
    assert values(TNormKind.MINIMUM) == [0.3, 0.4, 0.7, 0.0, 1.0]
    assert values(TNormKind.PRODUCT) == [x * y for x, y in zip(a, b)]
    assert values(TNormKind.LUKASIEWICZ) == [max(0.0, x + y - 1.0) for x, y in zip(a, b)]


@settings(max_examples=200)
@given(unit, unit, st.sampled_from(list(TNormKind)))
def test_tnorm_commutative_and_bounded(a, b, kind):
    fn = _tnorm_fn(kind)
    ab = float(fn(a, b))
    assert ab == float(fn(b, a))
    assert 0.0 <= ab <= 1.0
    assert ab <= min(a, b) + 1e-15


def test_all_builtin_tnorms_pass_axiom_audit():
    for kind in TNormKind:
        report = audit_tnorm_axioms(kind, grid_resolution=21)
        assert report.passed, (kind, _failures(report))


def test_broken_operation_fails_commutativity_with_witness():
    report = audit_tnorm_axioms(lambda a, b: np.asarray(a) * np.ones_like(b), 11)
    assert not report.passed
    failure = _failures(report)[0]
    assert failure.name == "commutativity"
    assert failure.witness is not None and "abs_difference" in failure.witness


def test_nan_operation_fails_every_grid_check_with_a_witness():
    # NaN wherever x + y > 1.2, which each of the four checks reaches
    def op(a, b):
        return np.where(np.asarray(a) + b > 1.2, np.nan, np.minimum(a, b))
    report = audit_tnorm_axioms(op, 11)
    assert [c.name for c in _failures(report)] == [
        "commutativity", "associativity", "monotonicity", "identity_element"]
    assert all(c.witness is not None for c in report.checks)


def test_tnorm_ordering_on_grid():
    report = audit_tnorm_ordering(21)
    assert report.passed


def test_audit_rejects_small_grid():
    with pytest.raises(ValueError):
        audit_tnorm_axioms(TNormKind.PRODUCT, 4)
    with pytest.raises(ValueError):
        audit_tnorm_ordering(4)


# --------------------------------------------------------------- membership

def test_membership_formula_values():
    # M = 1 at d = 0, M = 1/2 at t = d, and M = 0 at t = 0 whatever d is
    t = [1.0, 1e3, 1.0, 3.7, 1e-3, 0.0, 0.0]
    d = [0.0, 0.0, 1.0, 3.7, 1e-3, 7.0, 0.0]
    assert _grade(t, d).tolist() == [1.0, 1.0, 0.5, 0.5, 0.5, 0.0, 0.0]
    # one distance grades a whole sweep of t values
    assert _grade(np.array(t)[:, None], 2.0).ravel().tolist() == [
        float(_grade(x, 2.0)) for x in t]


# zero at t = 0 and continuity in t are axioms of the membership formula, not of
# the base distance, so the gv audit leaves them to these tests: a zero, a
# subnormal, a unit, a huge and an infinite distance
GRADED_DISTANCES = [0.0, 5e-324, 1.0, 1e300, math.inf]
# T_RANGE and nine decades either side of it, 100 points a decade
DENSE_T = np.geomspace(T_RANGE[0] * 1e-9, T_RANGE[1] * 1e9, 2401)


@pytest.mark.parametrize("d", GRADED_DISTANCES)
def test_membership_is_zero_at_t0(d):
    assert _grade(0.0, d) == 0.0
    assert _grade([0.0, 1.0], d)[0] == 0.0


@pytest.mark.parametrize("d", GRADED_DISTANCES)
def test_membership_is_nondecreasing_in_t(d):
    m = _grade(DENSE_T, d)
    assert (np.diff(m) >= 0.0).all()
    assert ((0.0 <= m) & (m <= 1.0)).all()


@pytest.mark.parametrize("d", GRADED_DISTANCES)
def test_membership_is_continuous_in_t(d):
    # a 1e-6 relative step in t moves t / (t + d) by M (1 - M) 1e-6 <= 2.5e-7 in reals
    jump = np.abs(_grade(DENSE_T * (1.0 + 1e-6), d) - _grade(DENSE_T, d))
    assert jump.max() <= 1e-6


@settings(max_examples=200)
@given(st.floats(-50, 50), st.floats(-50, 50), st.floats(1e-3, 1e3))
def test_membership_in_unit_interval(x, y, t):
    m = float(_grade(t, abs(x - y)))
    assert 0.0 <= m <= 1.0
    if x == y:
        assert m == 1.0
    elif m == 1.0:
        # t/(t+d) saturates once d falls below the resolution of t
        assert abs(x - y) <= 1e-12 * t


# ---------------------------------------------------------------- gv axioms

def test_gv_axioms_line_carrier_all_tnorms():
    for kind in TNormKind:
        fm = FuzzyMetric(base_distance=absolute_difference, tnorm=kind)
        report = audit_gv_axioms(fm, real_line_sampler(), 32, 8, rng_seed=5)
        assert report.passed, (kind, _failures(report))


def test_gv_axioms_refuse_an_unknown_tnorm():
    fm = FuzzyMetric(base_distance=absolute_difference, tnorm="bogus")
    with pytest.raises(ValueError, match="unknown t-norm kind: 'bogus'"):
        audit_gv_axioms(fm, real_line_sampler(), 16, 8)


def test_gv_axioms_detect_degenerate_distance():
    fm = FuzzyMetric(base_distance=lambda x, y: 0.0)
    report = audit_gv_axioms(fm, real_line_sampler(), 16, 8, rng_seed=0)
    assert not report.passed
    assert _failures(report)[0].name == "identity"


def test_gv_axioms_detect_nonmetric_triangle_violation():
    # squared distance violates the triangle inequality; under the minimum
    # t-norm the induced membership then breaks the transitivity axiom
    fm = FuzzyMetric(base_distance=lambda x, y: (x - y) ** 2,
                     tnorm=TNormKind.MINIMUM)
    report = audit_gv_axioms(fm, real_line_sampler(), 64, 8, rng_seed=0)
    assert not report.passed
    names = {c.name for c in report.checks if not c.passed}
    assert "tnorm_triangle" in names


def test_gv_axioms_validate_sample_counts():
    with pytest.raises(ValueError):
        audit_gv_axioms(LINE, real_line_sampler(), point_samples=5)
    with pytest.raises(ValueError):
        audit_gv_axioms(LINE, real_line_sampler(), point_samples=16, t_samples=2)


def test_gv_axioms_deterministic_per_seed():
    r1 = audit_gv_axioms(LINE, real_line_sampler(), 16, 8, rng_seed=9)
    r2 = audit_gv_axioms(LINE, real_line_sampler(), 16, 8, rng_seed=9)
    assert r1 == r2


# --------------------------------------------------------- fuzzy fixed point

def _pair_distances(fm, f, pairs):
    """The audit's inputs: d(x, y) and d(f(x), f(y)) per pair."""
    return (np.array([fm.base_distance(x, y) for x, y in pairs], dtype=float),
            np.array([fm.base_distance(f(x), f(y)) for x, y in pairs], dtype=float))


def _line_pairs(n, seed=0):
    rng = np.random.default_rng(seed)
    return [(real_line_sampler()(rng), real_line_sampler()(rng)) for _ in range(n)]


def test_halving_map_condition_holds_with_equality():
    pairs = _line_pairs(200)
    d, d_f = _pair_distances(LINE, lambda x: x / 2, pairs)
    assert (d_f == 0.5 * d).all()
    report = fuzzy_fixed_point(d, d_f, 0.5, pairs.__getitem__)
    assert report.k == 0.5
    assert report.condition.holds
    # scaling both distance and t by the same factor leaves t/(t+d) unchanged
    assert report.condition.max_abs_margin <= 1e-14


def test_identity_map_violates_condition_but_iterates():
    pairs = _line_pairs(50)
    d, d_f = _pair_distances(LINE, lambda x: x, pairs)
    report = fuzzy_fixed_point(d, d_f, 0.5, pairs.__getitem__)
    assert not report.condition.holds
    assert report.condition.violations > 0
    # the witness names its pair through pair_at
    assert (report.condition.witness["x"], report.condition.witness["y"]) in pairs


def test_fuzzy_fixed_point_validates_k():
    d = np.array([1.0, 2.0])
    for bad in (0.0, 1.0, -0.3, 1.7, math.nan):
        with pytest.raises(ValueError, match=r"k must lie in \(0, 1\)"):
            fuzzy_fixed_point(d, d / 2, bad, lambda i: (i, i))


@pytest.mark.parametrize("inputs", [
    {"d": np.array([]), "d_f": np.array([])},
], ids=["no-condition-pairs"])
def test_fuzzy_fixed_point_rejects_an_empty_condition_audit(inputs):
    # an audit of no sample would report holds=True with min_margin=inf
    with pytest.raises(ValueError, match="at least one pair"):
        fuzzy_fixed_point(k=0.5, pair_at=lambda i: (i, i), **inputs)


def test_samplers_draw_from_their_fixed_ranges():
    rng = np.random.default_rng(4)
    xs = [real_line_sampler()(rng) for _ in range(500)]
    assert -10.0 <= min(xs) < -9.5 and 9.5 < max(xs) <= 10.0
    states = [gaussian_state_sampler()(rng) for _ in range(500)]
    box = DEFAULT_REGION
    assert all(box.mu_lo <= s.mu <= box.mu_hi and box.sigma_lo <= s.sigma <= box.sigma_hi
               for s in states)


def test_condition_t_grid_is_log_spaced_over_t_range():
    assert len(T_GRID) == T_SAMPLES
    assert all(isinstance(t, float) for t in T_GRID)
    assert all(a < b for a, b in zip(T_GRID, T_GRID[1:]))
    # both ends exactly, so a margin that is least at an end of T_RANGE is graded there
    assert (T_GRID[0], T_GRID[-1]) == T_RANGE
    steps = np.diff(np.log10(T_GRID))
    assert steps == pytest.approx(np.full(T_SAMPLES - 1, 6.0 / (T_SAMPLES - 1)), rel=1e-13)


def test_fuzzy_fixed_point_accepts_explicit_pairs():
    pairs = [(0.0, 1.0), (2.0, -3.0), (5.0, 5.0)]
    report = fuzzy_fixed_point(*_pair_distances(LINE, lambda x: x / 2, pairs), 0.5,
                               pairs.__getitem__)
    assert report.condition.samples == len(pairs) * T_SAMPLES
    assert report.condition.holds


# a state distance: zero, subnormal, or anywhere up to sqrt(2)
state_distances = st.one_of(st.sampled_from([0.0, 5e-324]), st.floats(0.0, math.sqrt(2.0)))


@settings(max_examples=200)
@given(state_distances, state_distances, st.floats(1e-6, 1.0 - 1e-12))
# d_f = k d, where the difference of the two grades rounds to -1.1e-16 at t = 25.1
@example(1.1984522839891483, 0.16103017266597042, 0.13436510974802274)
def test_condition_margin_has_the_sign_of_k_d_minus_d_f(d, d_f, k):
    kd_minus_df = k * d - d_f
    for t in T_GRID:
        # grade the one pair at this t alone, so that min_margin is its margin there
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(fuzzy, "T_GRID", (t,))
            margin = fuzzy_fixed_point(np.array([d]), np.array([d_f]), k,
                                       lambda i: (d, d_f)).condition.min_margin
        # never of the opposite sign, and exactly 0 where k d = d_f
        assert kd_minus_df < 0.0 or margin >= 0.0, t
        assert kd_minus_df > 0.0 or margin <= 0.0, t
        assert abs(margin - (k * t / (k * t + d_f) - t / (t + d))) <= 4 * 2**-52, t


# ------------------------------------------ scalar reference implementations
#
# The per-t loops that the vectorized audits replaced, kept as plain loops so the
# audits can be checked against them for exact (not approximate) equality.

def _scalar_membership(fm, x, y, t):
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    if t == 0.0:
        return 0.0
    d = fm.base_distance(x, y)
    if d < 0.0:
        raise ValueError("base_distance returned a negative value")
    return t / (t + d)


def _scalar_condition(d, d_f, k, pairs):
    samples = 0
    violations = 0
    min_margin = math.inf
    max_abs = 0.0
    witness = None
    for (x, y), dxy, dfxy in zip(pairs, d.tolist(), d_f.tolist()):
        margins = [t * (k * dxy - dfxy) / ((k * t + dfxy) * (t + dxy)) for t in T_GRID]
        for margin in margins:
            samples += 1
            min_margin = min(min_margin, margin)
            max_abs = max(max_abs, abs(margin))
            violations += margin < -AUDIT_SLACK
        # the first violating pair, at its least margin on the grid
        if witness is None and min(margins) < -AUDIT_SLACK:
            j = margins.index(min(margins))
            witness = {"x": x, "y": y, "t": T_GRID[j], "margin": margins[j]}
    return samples, violations, float(min_margin), float(max_abs), witness


def _scalar_gv_audit(fm, point_sampler, point_samples, t_samples, rng_seed):
    rng = np.random.default_rng(rng_seed)
    pts = [point_sampler(rng) for _ in range(point_samples)]
    ts = 10.0 ** rng.uniform(math.log10(T_RANGE[0]), math.log10(T_RANGE[1]), t_samples)
    tri = rng.integers(0, point_samples, size=(point_samples, 3))
    tnorm = _tnorm_fn(fm.tnorm)

    checks = []

    witness = None
    count = 0
    for p in pts:
        for t in ts:
            count += 1
            m = _scalar_membership(fm, p, p, float(t))
            if m != 1.0 and witness is None:
                witness = {"x": p, "t": float(t), "membership": float(m)}
    for i in range(point_samples - 1):
        x, y = pts[i], pts[i + 1]
        if x == y:
            continue
        for t in ts:
            count += 1
            m = _scalar_membership(fm, x, y, float(t))
            if m >= 1.0 and witness is None:
                witness = {"x": x, "y": y, "t": float(t), "membership": float(m)}
    checks.append(AuditCheck(name="identity", passed=witness is None,
                             checked=count, witness=witness))

    witness = None
    count = 0
    for i in range(point_samples - 1):
        x, y = pts[i], pts[i + 1]
        for t in ts:
            count += 1
            m_xy = _scalar_membership(fm, x, y, float(t))
            m_yx = _scalar_membership(fm, y, x, float(t))
            if m_xy != m_yx and witness is None:
                witness = {"x": x, "y": y, "t": float(t),
                           "m_xy": float(m_xy), "m_yx": float(m_yx)}
    checks.append(AuditCheck(name="symmetry", passed=witness is None,
                             checked=count, witness=witness))

    witness = None
    count = 0
    for ia, ib, ic in tri:
        x, y, z = pts[ia], pts[ib], pts[ic]
        t, s = 10.0 ** rng.uniform(math.log10(T_RANGE[0]), math.log10(T_RANGE[1]), 2)
        count += 1
        lhs = float(tnorm(_scalar_membership(fm, x, y, t), _scalar_membership(fm, y, z, s)))
        rhs = _scalar_membership(fm, x, z, t + s)
        if lhs > rhs + AUDIT_SLACK and witness is None:
            witness = {"x": x, "y": y, "z": z, "t": float(t), "s": float(s),
                       "lhs": lhs, "rhs": float(rhs)}
    checks.append(AuditCheck(name="tnorm_triangle", passed=witness is None,
                             checked=count, witness=witness))

    return AxiomAuditReport(target="fuzzy-metric-axioms", checks=tuple(checks))


GAUSSIAN = gaussian_parameter_metric()
MAP = AffineGaussianMap(0.2, 0.4, 0.2, 0.7)  # sampled contraction factor about 0.87


# ------------------------------------------- vectorized == scalar reference

@pytest.mark.parametrize("fm, f, k, sampler, holds", [
    # k below the map's factor: the condition fails on most pairs
    (GAUSSIAN, lambda s: apply_map(MAP, s), 0.3, gaussian_state_sampler(), False),
    # k above it: the condition holds with small positive margins
    (GAUSSIAN, lambda s: apply_map(MAP, s), 0.9, gaussian_state_sampler(), True),
    # k a hair below the factor 1/2: a margin falls below -AUDIT_SLACK only
    # for t within about two decades of d(x, y), so the violations are
    # scattered over (pair, t) and the witness order matters
    (LINE, lambda x: x / 2, 0.5 - 1e-10, lambda rng: float(10.0 ** rng.uniform(-3, 1)), False),
    # an expanding map on the line violates the condition for every k
    (LINE, lambda x: 1.5 * x + 0.1, 0.5, real_line_sampler(), False),
    # NaN margins count as neither violations nor extremes
    (FuzzyMetric(base_distance=lambda x, y: math.nan if x > 5.0 else abs(x - y)),
     lambda x: x / 2, 0.3, real_line_sampler(), False),
])
def test_condition_audit_equals_scalar_loop(fm, f, k, sampler, holds):
    rng = np.random.default_rng(3)
    pairs = [(sampler(rng), sampler(rng)) for _ in range(150)]
    d, d_f = _pair_distances(fm, f, pairs)
    c = fuzzy_fixed_point(d, d_f, k, pairs.__getitem__).condition
    samples, violations, min_margin, max_abs, witness = _scalar_condition(d, d_f, k, pairs)
    assert c.holds is holds
    assert (violations > 0) is not holds
    assert c.samples == samples == 150 * T_SAMPLES
    assert c.violations == violations
    assert c.min_margin == min_margin
    assert c.max_abs_margin == max_abs
    assert c.witness == witness


@pytest.mark.parametrize("t_samples, pairs", [
    (T_SAMPLES, _AUDIT_ROWS - 1), (T_SAMPLES, _AUDIT_ROWS), (T_SAMPLES, _AUDIT_ROWS + 1),
    (T_SAMPLES, 2 * _AUDIT_ROWS + 3),
])
def test_blocked_condition_audit_equals_scalar_loop(t_samples, pairs):
    rows = _AUDIT_ROWS  # pairs per block
    assert rows * t_samples == 8192
    # pair i starts at x = i; f halves the first block's distances (the
    # condition holds at k = 0.6) and triples the later ones, so the first
    # violation is the second block's first pair; d(x, y) is NaN from the
    # third block's second pair on, and f maps those points below 0
    def f(x):
        return x / 2 if x < rows else -3.0 * x
    fm = FuzzyMetric(base_distance=lambda x, y: math.nan if x > 2 * rows + 0.5 else abs(x - y))
    gaps = np.random.default_rng(5).uniform(0.01, 0.5, pairs)
    condition_pairs = [(float(i), i + float(g)) for i, g in enumerate(gaps)]
    d, d_f = _pair_distances(fm, f, condition_pairs)
    c = fuzzy_fixed_point(d, d_f, 0.6, condition_pairs.__getitem__).condition
    want = _scalar_condition(d, d_f, 0.6, condition_pairs)
    assert (c.samples, c.violations, c.min_margin, c.max_abs_margin, c.witness) == want
    assert c.holds is (pairs <= rows)
    if pairs > rows:
        assert c.witness["x"] == float(rows)


def test_condition_audit_memory_does_not_grow_with_pair_count():
    peaks = []
    for pairs in (2000, 20000):
        d = np.random.default_rng(1).uniform(0.0, 1.0, pairs)
        d_f = d / 2  # violates the condition at k = 0.3, so a witness is built
        fuzzy_fixed_point(d, d_f, 0.3, lambda i: (i, i))
        tracemalloc.start()
        try:
            fuzzy_fixed_point(d, d_f, 0.3, lambda i: (i, i))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    # the peak is a few block-sized temporaries, about 330 KiB; grading all
    # pairs at once takes about 0.5 KiB per pair, 10 MiB at 20,000 pairs
    assert peaks[1] <= 1.05 * peaks[0]
    assert peaks[0] < 8 * 8 * _AUDIT_ROWS * T_SAMPLES


def _asymmetric(x, y):
    return abs(x - y) * (1.0 + 1e-9 * (x > y))


@pytest.mark.parametrize("fm, sampler, failing", [
    (LINE, real_line_sampler(), None),
    (GAUSSIAN, gaussian_state_sampler(), None),
    # repeated points: equal adjacent pairs are exempt from the identity check
    (LINE, lambda rng: float(rng.integers(0, 3)), None),
    (FuzzyMetric(base_distance=_asymmetric), real_line_sampler(), "symmetry"),
    # d(p, p) > 0: the identity witness on a point paired with itself
    (FuzzyMetric(base_distance=lambda x, y: abs(x - y) + 1e-3), real_line_sampler(),
     "identity"),
    # d = 0 for distinct points: the identity witness on an adjacent pair
    (FuzzyMetric(base_distance=lambda x, y: 0.0), real_line_sampler(), "identity"),
    (FuzzyMetric(base_distance=lambda x, y: (x - y) ** 2, tnorm=TNormKind.MINIMUM),
     real_line_sampler(), "tnorm_triangle"),
])
@pytest.mark.parametrize("points, t_samples, seed", [(64, 16, 0), (23, 5, 7)])
def test_gv_audit_equals_scalar_loop(fm, sampler, failing, points, t_samples, seed):
    report = audit_gv_axioms(fm, sampler, points, t_samples, seed)
    assert report == _scalar_gv_audit(fm, sampler, points, t_samples, seed)
    failed = [c.name for c in report.checks if not c.passed]
    if failing is None:
        assert not failed
    else:
        assert failing in failed
        assert next(c for c in report.checks if c.name == failing).witness is not None


# --------------------------------------------------- base-distance call counts

def test_gv_audit_call_count_does_not_depend_on_t_samples():
    counts = []
    for t_samples in (5, 16):
        calls, fm = _counting(absolute_difference)
        audit_gv_axioms(fm, real_line_sampler(), 32, t_samples, rng_seed=1)
        counts.append(len(calls))
    assert counts == [6 * 32 - 2] * 2


def test_negative_base_distance_still_rejected():
    fm = FuzzyMetric(base_distance=lambda x, y: -abs(x - y) - 1.0)
    with pytest.raises(ValueError, match="negative"):
        audit_gv_axioms(fm, real_line_sampler(), 16, 8)

