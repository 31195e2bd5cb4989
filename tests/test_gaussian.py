import dataclasses
import math
import os
import pathlib
import pickle
import subprocess
import sys
import textwrap
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qfixpoint
from qfixpoint.gaussian import (_NODE_BUDGET, DEFAULT_QUADRATURE, GaussianState,
                                QuadratureConfig, audit_metric_axioms, distance_from_params,
                                evaluate, overlap_closed_form, overlap_quadrature,
                                overlap_quadrature_many, state_distance)

states = st.builds(GaussianState,
                   mu=st.floats(-10.0, 10.0),
                   sigma=st.floats(0.1, 10.0))


# ------------------------------------------------------------- construction

def test_state_requires_positive_sigma():
    with pytest.raises(ValueError, match="sigma must be positive"):
        GaussianState(0.0, 0.0)
    with pytest.raises(ValueError, match="sigma must be positive"):
        GaussianState(0.0, -1.0)
    with pytest.raises(ValueError, match="finite"):
        GaussianState(math.inf, 1.0)


def test_state_constructor_contract():
    s = GaussianState(1, np.float64(2.5))
    assert type(s.mu) is float and type(s.sigma) is float
    assert s == GaussianState(mu=1.0, sigma=2.5) and s != GaussianState(1.0, 2.0)
    assert hash(s) == hash(GaussianState(1.0, 2.5)) == hash((1.0, 2.5))
    assert repr(s) == "GaussianState(mu=1.0, sigma=2.5)"
    assert [f.name for f in dataclasses.fields(s)] == ["mu", "sigma"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.mu = 0.0
    moved = dataclasses.replace(s, mu=np.int64(-3))
    assert moved == GaussianState(-3.0, 2.5) and type(moved.mu) is float
    assert pickle.loads(pickle.dumps(s)) == s
    for mu, sigma, message in [(math.nan, 1.0, "state parameters must be finite"),
                               (0.0, math.nan, "state parameters must be finite"),
                               (-math.inf, 1.0, "state parameters must be finite"),
                               (0.0, math.inf, "state parameters must be finite"),
                               (0.0, 0.0, "sigma must be positive"),
                               (0.0, -0.0, "sigma must be positive"),
                               (0.0, -2.0, "sigma must be positive")]:
        with pytest.raises(ValueError) as info:
            GaussianState(mu, sigma)
        assert str(info.value) == message
    with pytest.raises(ValueError, match="sigma must be positive"):
        dataclasses.replace(s, sigma=0)
    with pytest.raises(ValueError, match="could not convert"):
        GaussianState("x", 1.0)
    with pytest.raises(TypeError):
        GaussianState(0.0)


def test_quadrature_config_invariants():
    with pytest.raises(ValueError):
        QuadratureConfig(half_width_sigmas=5.0)
    for wide in (6.0, 7.9, 41.0, 1e300):
        with pytest.raises(ValueError, match="between 8 and 40"):
            QuadratureConfig(half_width_sigmas=wide)
    assert QuadratureConfig(half_width_sigmas=40.0).half_width_sigmas == 40.0
    with pytest.raises(ValueError):
        QuadratureConfig(panels=63)
    with pytest.raises(ValueError):
        QuadratureConfig(panels=65)  # odd
    assert DEFAULT_QUADRATURE.half_width_sigmas == 10.0
    assert DEFAULT_QUADRATURE.panels == 128


# ----------------------------------------------------------------- evaluate

def test_evaluate_peak_values():
    # direct evaluation of the wavefunction formula
    assert evaluate(GaussianState(0, 1), 0.0) == pytest.approx(math.pi ** -0.25, abs=1e-15)
    assert evaluate(GaussianState(3, 2), 3.0) == pytest.approx((4 * math.pi) ** -0.25, abs=1e-15)
    assert evaluate(GaussianState(0, 1), 0.0) == pytest.approx(0.7511, abs=1e-4)


def test_evaluate_decays_and_peaks_at_mu():
    s = GaussianState(1.5, 0.7)
    xs = np.linspace(-60, 60, 2001)
    vals = evaluate(s, xs)
    assert vals.max() == pytest.approx(evaluate(s, 1.5), rel=1e-6)
    assert evaluate(s, 1e6) == 0.0  # double-precision underflow far out
    assert all(evaluate(s, x) > 0 for x in (-10.0, 0.0, 10.0))


def test_evaluate_normalization_by_quadrature():
    # int psi^2 = 1, via the overlap oracle with identical states
    rng = np.random.default_rng(0)
    for _ in range(100):
        s = GaussianState(rng.uniform(-10, 10), rng.uniform(0.1, 10))
        assert abs(overlap_quadrature(s, s) - 1.0) < 1e-9


# ------------------------------------------------------------------ overlap

def test_overlap_identical_states_is_one():
    assert overlap_closed_form(GaussianState(0, 1), GaussianState(0, 1)) == 1.0
    assert overlap_closed_form(GaussianState(-3.7, 0.4), GaussianState(-3.7, 0.4)) == 1.0


def test_overlap_closed_form_known_values():
    # sqrt(2*s1*s2/(s1^2+s2^2)) with s1=1, s2=2 -> sqrt(4/5)
    got = overlap_closed_form(GaussianState(0, 1), GaussianState(0, 2))
    assert got == pytest.approx(math.sqrt(4.0 / 5.0), abs=1e-15)
    assert got == pytest.approx(0.894427, abs=1e-6)
    # pure mean separation: exp(-dmu^2/(2*(1+1))) = exp(-1) at dmu = 2
    got = overlap_closed_form(GaussianState(0, 1), GaussianState(2, 1))
    assert got == pytest.approx(math.exp(-1), abs=1e-15)


def test_overlap_matches_quadrature_oracle():
    cases = [((0, 1), (0, 2)), ((0, 1), (2, 1)), ((-3, 0.5), (4, 2.5)),
             ((1, 0.1), (1.2, 6.0))]
    for (m1, s1), (m2, s2) in cases:
        a, b = GaussianState(m1, s1), GaussianState(m2, s2)
        assert abs(overlap_closed_form(a, b) - overlap_quadrature(a, b)) < 1e-12


def test_overlap_quadrature_far_separated_is_numerically_zero():
    assert overlap_quadrature(GaussianState(0, 1), GaussianState(40, 1)) < 1e-12


def test_overlap_quadrature_rejects_bad_config():
    with pytest.raises(ValueError):
        overlap_quadrature(GaussianState(0, 1), GaussianState(1, 1),
                           QuadratureConfig(panels=10))


def test_overlap_quadrature_many_matches_scalar():
    rng = np.random.default_rng(3)
    mu = rng.uniform(-10, 10, (2, 32))
    sg = rng.uniform(0.1, 10, (2, 32))
    batch = overlap_quadrature_many(mu[0], sg[0], mu[1], sg[1])
    for i in range(32):
        one = overlap_quadrature(GaussianState(mu[0, i], sg[0, i]),
                                 GaussianState(mu[1, i], sg[1, i]))
        assert batch[i] == one


@pytest.mark.parametrize("panels", [4096, 16384])
def test_overlap_quadrature_many_spans_chunks_bitwise(panels):
    cfg = QuadratureConfig(panels=panels)
    rows = max(1, _NODE_BUDGET // (2 * panels + 1))
    n = 3 * rows + 1
    rng = np.random.default_rng(panels)
    mu = rng.uniform(-10, 10, (2, n))
    sg = rng.uniform(0.1, 10, (2, n))
    batch = overlap_quadrature_many(mu[0], sg[0], mu[1], sg[1], cfg)
    for i in range(n):
        one = overlap_quadrature(GaussianState(mu[0, i], sg[0, i]),
                                 GaussianState(mu[1, i], sg[1, i]), cfg)
        assert batch[i] == one


@pytest.mark.parametrize("cfg", [DEFAULT_QUADRATURE, QuadratureConfig(8.0),
                                 QuadratureConfig(40.0)], ids=["default", "W8", "W40"])
def test_overlap_quadrature_many_holds_at_any_width_ratio(cfg):
    # widths over six decades: a window scaled by the wider state left the
    # narrow one between nodes, 0.49 off on these pairs at 4096 panels
    rng = np.random.default_rng(11)
    mu = rng.uniform(-10, 10, (2, 20000))
    sg = 10.0 ** rng.uniform(-3, 3, (2, 20000))
    quad = overlap_quadrature_many(mu[0], sg[0], mu[1], sg[1], cfg)
    ss = sg[0] ** 2 + sg[1] ** 2
    closed = np.sqrt(2.0 * sg[0] * sg[1] / ss) * np.exp(-((mu[0] - mu[1]) ** 2) / (2.0 * ss))
    assert np.max(np.abs(quad - closed)) <= 1e-10


def test_overlap_quadrature_many_is_zero_where_windows_do_not_meet():
    # the middle pair's windows [mu - 10 sigma, mu + 10 sigma] are 1e150 apart
    mu1, sg1 = np.array([0.0, 0.0, -3.0]), np.array([1.0, 1e-10, 0.5])
    mu2, sg2 = np.array([0.5, 1e150, 4.0]), np.array([2.0, 1e-10, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = overlap_quadrature_many(mu1, sg1, mu2, sg2)
    assert out[1] == 0.0
    # the other rows are bitwise what they are in a batch without that pair
    keep = [0, 2]
    assert np.array_equal(out[keep], overlap_quadrature_many(mu1[keep], sg1[keep],
                                                             mu2[keep], sg2[keep]))
    assert out[0] > 0.5 and out[2] > 0.0


@pytest.mark.parametrize("args", [
    # mismatched sizes used to broadcast at 3 pairs and to fail inside a chunk at 200
    (np.zeros(3), np.ones(3), np.zeros(1), np.ones(1)),
    (np.zeros(200), np.ones(200), np.zeros(1), np.ones(1)),
    (np.zeros((2, 2)), np.ones((2, 2)), np.zeros((2, 2)), np.ones((2, 2))),
])
def test_overlap_quadrature_many_rejects_ragged_or_2d_input(args):
    with pytest.raises(ValueError, match="1-D and of one size"):
        overlap_quadrature_many(*args)


@pytest.mark.parametrize("args", [
    (0.0, -1.0, 0.0, 1.0),  # used to return [1.]
    (0.0, 1.0, 0.0, 0.0),   # used to return [nan] with a RuntimeWarning
    (math.nan, 1.0, 0.0, 1.0),
    (np.zeros(3), np.array([1.0, math.inf, 1.0]), np.zeros(3), np.ones(3)),
])
def test_overlap_quadrature_many_rejects_bad_parameters(args):
    with pytest.raises(ValueError, match="finite and every sigma positive"):
        overlap_quadrature_many(*args)


@pytest.mark.parametrize("sigma, error", [
    (1e-150, ZeroDivisionError),  # (s1*s2)**2 rounds to 0: used to return inf
    (1e-80, ZeroDivisionError),   # subnormal: used to return 1.0000037757635869
    (1e160, OverflowError),       # used to return 0.0 with an overflow warning
    # (s1*s2)**2 is finite but pi**2 times it is not: used to return 0.0
    # with an overflow warning
    (1e77, OverflowError),
])
def test_overlap_quadrature_many_rejects_unrepresentable_prefactor(sigma, error):
    sigmas = np.array([1.0, sigma])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=r"\(sigma1\*sigma2\)\*\*2"):
            overlap_quadrature_many(np.zeros(2), sigmas, np.zeros(2), sigmas)


def test_overlap_quadrature_many_memory_stays_within_node_budget():
    cfg = QuadratureConfig(panels=16384)
    rng = np.random.default_rng(7)
    mu = rng.uniform(-10, 10, (2, 64))
    sg = rng.uniform(0.1, 10, (2, 64))
    overlap_quadrature_many(mu[0], sg[0], mu[1], sg[1], cfg)  # warm the node cache
    tracemalloc.start()
    try:
        overlap_quadrature_many(mu[0], sg[0], mu[1], sg[1], cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@settings(max_examples=100)
@given(states, states)
def test_overlap_symmetric_and_in_unit_interval(a, b):
    o_ab = overlap_closed_form(a, b)
    o_ba = overlap_closed_form(b, a)
    assert o_ab == o_ba
    assert 0.0 <= o_ab <= 1.0
    # positivity underflows once the exponent passes the double-precision range
    if (a.mu - b.mu) ** 2 / (2 * (a.sigma**2 + b.sigma**2)) < 700:
        assert o_ab > 0.0


# ----------------------------------------------------------------- distance

def test_distance_identity_and_known_values():
    a = GaussianState(0, 1)
    assert state_distance(a, a) == 0.0
    got = state_distance(a, GaussianState(2, 1))
    assert got == pytest.approx(math.sqrt(2 - 2 * math.exp(-1)), abs=1e-15)
    # orthogonal limit saturates at sqrt(2)
    assert abs(state_distance(a, GaussianState(1000, 1)) - math.sqrt(2)) < 1e-12


def test_distance_resolves_tiny_separations():
    # the cancellation-free form keeps relative accuracy far below 1e-8
    a = GaussianState(0.0, 1.0)
    b = GaussianState(1e-12, 1.0)
    # local expansion: d ~ |dmu| / (sigma * 2)  for equal sigmas
    assert state_distance(a, b) == pytest.approx(1e-12 / 2, rel=1e-9)


# the worst error seen on pairs drawn as below is 1.5 ulps at seed 0 and 2.0
# ulps over seeds 0-7; independent pairs from [-10, 10] x [0.1, 10] reach 2.7
DISTANCE_ULPS = 4.0


def worst_distance_ulps(mpmath, ma, sa, mb, sb):
    """Largest error of the scalar and the vectorized distance, in ulps of a 130-digit reference."""
    def reference(ma, sa, mb, sb):
        # the naive closed form at 130 digits keeps 50+ digits after the
        # cancellation in 2 - 2<a|b>, even where d is ~1e-31
        with mpmath.workdps(130):
            ma, sa, mb, sb = map(mpmath.mpf, (ma, sa, mb, sb))
            ss = sa * sa + sb * sb
            overlap = mpmath.sqrt(2 * sa * sb / ss) * mpmath.exp(-(ma - mb) ** 2 / (2 * ss))
            return mpmath.sqrt(2 - 2 * overlap)

    vectorized = distance_from_params(ma, sa, mb, sb)
    worst = 0.0
    for i in range(ma.size):
        ref = reference(ma[i], sa[i], mb[i], sb[i])
        scalar = state_distance(GaussianState(ma[i], sa[i]), GaussianState(mb[i], sb[i]))
        for got in (scalar, float(vectorized[i])):
            worst = max(worst, float(abs(mpmath.mpf(got) - ref)) / math.ulp(float(ref)))
    return worst


def test_distance_is_accurate_to_a_few_ulps_down_to_separations_of_1e_30():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(0)
    n = 3000
    sep = 10.0 ** rng.uniform(-30.0, 0.0, n)
    sa = rng.uniform(0.1, 10.0, n)
    # centres at the scale of the separation, so mb - ma keeps its digits
    ma = rng.uniform(-2.0, 2.0, n) * sep * sa
    mb = ma + rng.uniform(-1.0, 1.0, n) * sep * sa
    sb = sa * (1.0 + rng.uniform(-1.0, 1.0, n) * sep)
    sb = np.where(sb == sa, np.nextafter(sa, np.inf), sb)
    # a third of the pairs differ in mu only, a third in sigma only
    group = np.arange(n) % 3
    mb = np.where(group == 1, ma, mb)
    sb = np.where(group == 0, sa, sb)
    assert worst_distance_ulps(mpmath, ma, sa, mb, sb) <= DISTANCE_ULPS


@pytest.mark.parametrize("ratio", [1e2, 1e4, 1e6, 1e8])
def test_distance_is_accurate_to_a_few_ulps_at_any_width_ratio(ratio):
    # a prefactor taken as sqrt(1 - (sa - sb)**2/ss) cancels here: it gave
    # 5.5, 35, 443 and 4882 ulps on these pairs, against 1.8, 1.4, 2.1 and 1.8
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(int(math.log10(ratio)))
    n = 200
    narrow = rng.uniform(0.1, 10.0, n)
    wide_first = rng.random(n) < 0.5
    sa = np.where(wide_first, narrow * ratio, narrow)
    sb = np.where(wide_first, narrow, narrow * ratio)
    ma = rng.uniform(-10.0, 10.0, n)
    # centres within 3 widths, measured in a width between the narrow and the wide one
    mb = ma + rng.uniform(-3.0, 3.0, n) * narrow * ratio ** rng.uniform(0.0, 1.0, n)
    assert worst_distance_ulps(mpmath, ma, sa, mb, sb) <= DISTANCE_ULPS


def test_distance_monotone_in_separation():
    seps = np.linspace(0.0, 10.0, 41)
    vals = [state_distance(GaussianState(0, 1), GaussianState(s, 1)) for s in seps]
    assert all(x < y for x, y in zip(vals, vals[1:]))


# a far pair at a width ratio of 26.7, where v/(1 + p) + p rounded above 1 and the
# distance came out 1.4142135623730954, 1.4 ulps above its true value
FAR_NARROW_PAIR = (GaussianState(0.0, 1.0),
                   GaussianState(111.77695559180432, 0.037457759805036794))


@settings(max_examples=100)
@given(states, states, states)
@example(*FAR_NARROW_PAIR, GaussianState(0.0, 1.0))
def test_distance_metric_properties(a, b, c):
    d_ab, d_ac, d_bc = (state_distance(x, y) for x, y in ((a, b), (a, c), (b, c)))
    assert d_ab == state_distance(b, a)
    assert 0.0 <= d_ab <= math.sqrt(2)
    assert (d_ab == 0.0) is (a == b)
    assert d_ac <= d_ab + d_bc + 1e-12


def test_distance_matches_vectorized_form():
    rng = np.random.default_rng(1)
    mu = rng.uniform(-10, 10, (2, 64))
    sg = rng.uniform(0.1, 10, (2, 64))
    vec = distance_from_params(mu[0], sg[0], mu[1], sg[1])
    for i in range(64):
        scalar = state_distance(GaussianState(mu[0, i], sg[0, i]),
                                GaussianState(mu[1, i], sg[1, i]))
        assert vec[i] == pytest.approx(scalar, rel=1e-14, abs=0)


def test_distance_matches_vectorized_form_bitwise_without_avx512_kernels():
    # both kernels square by multiplication, and without numpy's AVX512
    # kernels np.sqrt and np.expm1 round as libm does; with them on, about 2%
    # of pairs still differ in the last bit through np.expm1
    script = textwrap.dedent("""
        import numpy as np
        from qfixpoint.gaussian import GaussianState, distance_from_params, state_distance
        rng = np.random.default_rng(17)
        mu = rng.uniform(-10.0, 10.0, (2, 20000))
        sg = rng.uniform(0.1, 10.0, (2, 20000))
        vec = distance_from_params(mu[0], sg[0], mu[1], sg[1]).tolist()
        print(sum(state_distance(GaussianState(a, s), GaussianState(b, t)) != v
                  for a, s, b, t, v in zip(mu[0], sg[0], mu[1], sg[1], vec)))
    """)
    src = str(pathlib.Path(qfixpoint.__file__).parent.parent)
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


@pytest.mark.parametrize("a, b", [
    ((1e155, 1e155), (0.0, 1.0)),  # (mu_a - mu_b)**2 and sigma_a**2 overflow
    ((0.0, 1e160), (0.0, 1.0000001e160)),  # sigma_a**2 overflows
    ((0.0, 0.8e154), (1e154, 0.8e154)),  # only 2*(sigma_a**2 + sigma_b**2) overflows
])
def test_vectorized_distance_refuses_overflow_like_the_scalar_one(a, b):
    with pytest.raises(OverflowError):
        state_distance(GaussianState(*a), GaussianState(*b))
    # one overflowing pair among ordinary ones, and no RuntimeWarning on the way
    mu1, sg1, mu2, sg2 = (np.array([1.0, v, 2.0]) for v in (*a, *b))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError):
            distance_from_params(mu1, sg1, mu2, sg2)


def _reference_distance(mpmath, a, b):
    """sqrt(2 - 2<a|b>) at 700 digits: the subtraction cancels 2*log10(1/d), 400 here at most."""
    with mpmath.workdps(700):
        ma, sa, mb, sb = map(mpmath.mpf, (*a, *b))
        ss = sa * sa + sb * sb
        overlap = mpmath.sqrt(2 * sa * sb / ss) * mpmath.exp(-(ma - mb) ** 2 / (2 * ss))
        return float(mpmath.sqrt(2 - 2 * overlap))


@pytest.mark.parametrize("a, b", [
    ((0.0, 1.0), (1e155, 1.0)),
    ((1.7e308, 3.0), (-1.7e308, 3.0)),  # mu_a - mu_b itself overflows
    ((-1.7e308, 3.0), (1.7e308, 3.0)),
    ((0.0, 1.0), (1e200, 2.0)),
])
def test_distance_of_far_apart_states_is_sqrt2(a, b):
    # (mu_a - mu_b)**2 overflows over a finite 2*ss: u = inf, and expm1(-inf) = -1
    mpmath = pytest.importorskip("mpmath")
    assert _reference_distance(mpmath, a, b) == math.sqrt(2.0)
    mu1, sg1, mu2, sg2 = (np.array([1.0, v, 2.0]) for v in (*a, *b))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert distance_from_params(mu1, sg1, mu2, sg2)[1] == math.sqrt(2.0)
        assert state_distance(GaussianState(*a), GaussianState(*b)) == math.sqrt(2.0)
        assert overlap_closed_form(GaussianState(*a), GaussianState(*b)) == 0.0


# distinct states whose centre or width difference squares below the normal
# range, where the unscaled form gives 0 (7.07e-171, 1.57e-16 and 7.1e-201
# true) or a value 5.6e-6 relative off (7.07e-161 true)
NEAR_PAIRS = [
    ((0.0, 1.0), (1e-170, 1.0)),
    ((0.0, 1.0), (1e-160, 1.0)),
    # at unit scale the same relative width difference gives about 1.57e-16
    ((0.0, 1e-150), (0.0, 1e-150 * (1 + 2**-52))),
    ((0.0, 1e100), (1e-100, 1e100)),
]


@pytest.mark.parametrize("a, b", NEAR_PAIRS)
def test_near_states_take_the_scaled_form(a, b):
    """These pairs take the scaled form, within an ulp of the reference on both paths."""
    mpmath = pytest.importorskip("mpmath")
    ref = _reference_distance(mpmath, a, b)
    for x, y in ((a, b), (b, a)):
        scalar = state_distance(GaussianState(*x), GaussianState(*y))
        assert abs(scalar - ref) <= math.ulp(ref)
        # the pair among ordinary ones gets the same bits
        mu1, sg1, mu2, sg2 = (np.array([1.0, v, 2.0]) for v in (*x, *y))
        assert distance_from_params(mu1, sg1, mu2, sg2)[1] == scalar


@pytest.mark.parametrize("a, b, expected", [
    # d = 3.5e-324 rounds up to the smallest subnormal; b = |dmu|/sqrt(2*ss)
    # alone would round to 0 before its scale by sqrt(2)*sqrt(p)
    ((0.0, 1.0), (5e-324, 1.0), 5e-324),
    ((0.0, 1.0), (1e-322, 1.0), 7e-323),
    # d = 3.5e-331 and 3.5e-325 round to 0, which would call distinct states
    # identical; the smallest double is within one subnormal ulp of them
    ((1e-200, 1e130), (1.5e-200, 1e130), 5e-324),
    ((0.0, 10.0), (5e-324, 10.0), 5e-324),
])
def test_subnormal_distances_round_once(a, b, expected):
    mpmath = pytest.importorskip("mpmath")
    ref = _reference_distance(mpmath, a, b)
    assert ref == expected or (ref == 0.0 and expected == math.ulp(0.0))
    arrays = [np.array([1.0, v, 2.0]) for v in (*a, *b)]
    assert state_distance(GaussianState(*a), GaussianState(*b)) == expected
    assert distance_from_params(*arrays)[1] == expected


@pytest.mark.parametrize("a, b", [
    # separations whose squares, u and v stay normal
    ((0.0, 1.0), (1e-150, 1.0)),
    ((0.0, 1.0), (4e-154, 1.0)),
    ((0.0, 1e-150), (0.0, 2e-150)),
    # the centres' term underflows but is negligible against the widths' term,
    # as when an iteration's centre reaches 0 while its width still converges
    ((1e-310, 1.0), (0.0, 1.0 + 2**-40)),
    ((0.0, 3.0), (5e-324, 3.0 + 2**-30)),
])
def test_distance_keeps_resolved_pairs_and_identical_ones(a, b):
    mpmath = pytest.importorskip("mpmath")
    ref = _reference_distance(mpmath, a, b)
    vectorized = distance_from_params(*(np.array([v]) for v in (*a, *b)))[0]
    for got in (state_distance(GaussianState(*a), GaussianState(*b)), vectorized):
        assert abs(got - ref) <= DISTANCE_ULPS * math.ulp(ref)
    for s in (a, b):
        assert state_distance(GaussianState(*s), GaussianState(*s)) == 0.0
        assert distance_from_params(*(np.array([v]) for v in (*s, *s)))[0] == 0.0


@pytest.mark.parametrize("a, b", [
    ((0.0, 1e-160), (0.0, 2e-160)),  # d = 0.4595, but ss is subnormal
    ((0.0, 1e-160), (0.0, 1e-160)),  # identical, distance 0
    ((0.0, 3e-160), (1e-159, 1e-160)),
    ((0.0, 1e-200), (0.0, 2e-200)),  # ss is 0
])
def test_subnormal_width_squares_are_refused(a, b):
    # the prefactor's sigma_a*sigma_b and the distance's ss are subnormal
    a, b = GaussianState(*a), GaussianState(*b)
    with pytest.raises(ZeroDivisionError):
        overlap_closed_form(a, b)
    with pytest.raises(ZeroDivisionError):
        state_distance(a, b)
    with pytest.raises(ZeroDivisionError):
        distance_from_params(*(np.array([1.0, v]) for v in (a.mu, a.sigma, b.mu, b.sigma)))


def test_subnormal_width_product_with_normal_squares_is_kept():
    # sigma_a*sigma_b = 1e-300 is normal although sigma_a**2 is not
    a, b = GaussianState(0.0, 1e-160), GaussianState(0.0, 1e-140)
    assert overlap_closed_form(a, b) == math.sqrt(2e-300 / (1e-320 + 1e-280))
    assert state_distance(a, b) == distance_from_params(*(np.array([v]) for v in (
        a.mu, a.sigma, b.mu, b.sigma)))[0]


def test_vectorized_distance_saturates_far_narrow_states_without_warning():
    # u = dmu**2/(2*ss) overflows to inf, where expm1(-u) = -1 is exact
    a, b = (1e10, 1e-150), (0.0, 1e-150)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = distance_from_params(*(np.array([v]) for v in (*a, *b)))[0]
    assert got == state_distance(GaussianState(*a), GaussianState(*b)) == math.sqrt(2.0)


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # a RuntimeWarning turned into an error lands here too
        return type(exc)


magnitudes = st.floats(-200.0, 200.0).map(lambda e: 10.0 ** e)


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.just(0.0), magnitudes, magnitudes.map(lambda m: -m)), magnitudes,
       st.integers(1, 60), st.sampled_from(["mu", "sigma", "both"]))
@example(1e-200, 1e130, 1, "mu")  # distinct states at distance 3.5e-331
def test_scalar_and_vectorized_distance_refuse_alike(mu, sigma, k, shifted):
    a = (mu, sigma)
    b = (mu * (1 + 2.0**-k) if shifted != "sigma" else mu,
         sigma * (1 + 2.0**-k) if shifted != "mu" else sigma)
    scalar = _outcome(lambda: state_distance(GaussianState(*a), GaussianState(*b)))
    vectorized = _outcome(lambda: float(distance_from_params(
        *(np.array([v]) for v in (*a, *b)))[0]))
    if isinstance(scalar, float) and isinstance(vectorized, float):
        assert abs(scalar - vectorized) <= 4 * math.ulp(max(scalar, vectorized))
        assert (scalar > 0.0) is (a != b)
    else:
        # only widths whose squares leave the double range are refused
        assert scalar == vectorized
        assert scalar in (ZeroDivisionError, OverflowError)


widths = magnitudes.filter(lambda s: 1e-150 <= s <= 1e150)  # squares stay normal
wide_states = st.builds(GaussianState, st.one_of(st.just(0.0), magnitudes,
                                                 magnitudes.map(lambda m: -m)), widths)


@settings(max_examples=500, deadline=None)
@given(wide_states, wide_states, wide_states)
@example(*FAR_NARROW_PAIR, GaussianState(0.0, 1.0))
def test_distance_metric_properties_hold_at_any_scale(a, b, c):
    # centres up to 1e200 and widths over 300 decades, so width ratios far beyond
    # the 1e8 of the accuracy tests and most distances at or near sqrt(2)
    pairs = ((a, b), (a, c), (b, c))
    d_ab, d_ac, d_bc = (state_distance(x, y) for x, y in pairs)
    assert d_ab == state_distance(b, a)
    assert (d_ab == 0.0) is (a == b)
    vectorized = distance_from_params(*map(np.array, zip(*[(x.mu, x.sigma, y.mu, y.sigma)
                                                           for x, y in pairs])))
    for d in (d_ab, d_ac, d_bc, *vectorized.tolist()):
        assert 0.0 <= d <= math.sqrt(2)
    assert d_ac <= d_ab + d_bc + 4 * math.ulp(d_ac)


# ----------------------------------------------------- oracle grid and audit

def test_oracle_equivalence_on_small_grid():
    g = np.linspace(-10, 10, 7)
    s = np.linspace(0.1, 10, 7)
    M1, S1, M2, S2 = map(np.ravel, np.meshgrid(g, s, g, s, indexing="ij"))
    quad = overlap_quadrature_many(M1, S1, M2, S2)
    ss = S1 * S1 + S2 * S2
    closed = np.sqrt(2.0 * S1 * S2 / ss) * np.exp(-((M1 - M2) ** 2) / (2.0 * ss))
    assert np.max(np.abs(quad - closed)) < 1e-10


def test_metric_axiom_audit_passes():
    report = audit_metric_axioms(samples=2000, rng_seed=42)
    assert report.passed
    assert {c.name for c in report.checks} == {
        "symmetry_exact", "identity_of_indiscernibles", "triangle_inequality", "range"}


def test_metric_axiom_audit_rejects_bad_samples():
    with pytest.raises(ValueError):
        audit_metric_axioms(samples=0)
