import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_quadrature_config_invariants():
    with pytest.raises(ValueError):
        QuadratureConfig(half_width_sigmas=5.0)
    with pytest.raises(ValueError):
        QuadratureConfig(panels=63)
    with pytest.raises(ValueError):
        QuadratureConfig(panels=65)  # odd
    assert DEFAULT_QUADRATURE.half_width_sigmas == 10.0
    assert DEFAULT_QUADRATURE.panels == 4096


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


def test_distance_monotone_in_separation():
    seps = np.linspace(0.0, 10.0, 41)
    vals = [state_distance(GaussianState(0, 1), GaussianState(s, 1)) for s in seps]
    assert all(x < y for x, y in zip(vals, vals[1:]))


@settings(max_examples=100)
@given(states, states, states)
def test_distance_metric_properties(a, b, c):
    d_ab = state_distance(a, b)
    assert d_ab == state_distance(b, a)
    assert 0.0 <= d_ab <= math.sqrt(2)
    assert state_distance(a, c) <= d_ab + state_distance(b, c) + 1e-12


def test_distance_matches_vectorized_form():
    rng = np.random.default_rng(1)
    mu = rng.uniform(-10, 10, (2, 64))
    sg = rng.uniform(0.1, 10, (2, 64))
    vec = distance_from_params(mu[0], sg[0], mu[1], sg[1])
    for i in range(64):
        scalar = state_distance(GaussianState(mu[0, i], sg[0, i]),
                                GaussianState(mu[1, i], sg[1, i]))
        assert vec[i] == pytest.approx(scalar, rel=1e-14, abs=0)


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
