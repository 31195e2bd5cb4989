"""Normalized real Gaussian states and the L2 distance between them.

A state is the wavefunction

    psi(x) = (pi * sigma**2) ** -0.25 * exp(-(x - mu)**2 / (2 * sigma**2))

with center ``mu`` and width ``sigma > 0``.  For two such states the inner
product has the closed form

    <a|b> = sqrt(2*sa*sb / (sa**2 + sb**2))
            * exp(-(ma - mb)**2 / (2 * (sa**2 + sb**2)))

and the state distance follows from d**2 = 2 - 2*<a|b>.  A truncated
composite-Simpson quadrature of psi_a(x) * psi_b(x) serves as an independent
numerical oracle for the closed form.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .reports import AuditCheck, AxiomAuditReport

__all__ = [
    "GaussianState",
    "QuadratureConfig",
    "DEFAULT_QUADRATURE",
    "evaluate",
    "overlap_closed_form",
    "overlap_quadrature",
    "overlap_quadrature_many",
    "state_distance",
    "audit_metric_axioms",
]

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class GaussianState:
    """A normalized real Gaussian wavefunction, stored by center and width."""

    mu: float
    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "sigma", float(self.sigma))
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise ValueError("state parameters must be finite")
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")


@dataclass(frozen=True)
class QuadratureConfig:
    """Settings for the truncated composite-Simpson oracle.

    ``half_width_sigmas`` is the truncation radius in units of the wider of
    the two state widths; ``panels`` is the number of Simpson panels, so the
    rule evaluates the integrand at ``2 * panels + 1`` equispaced nodes.
    """

    half_width_sigmas: float = 10.0
    panels: int = 4096

    def __post_init__(self):
        if not (math.isfinite(self.half_width_sigmas) and self.half_width_sigmas >= 6.0):
            raise ValueError("half_width_sigmas must be at least 6")
        if self.panels < 64 or self.panels % 2 != 0:
            raise ValueError("panels must be even and at least 64")


DEFAULT_QUADRATURE = QuadratureConfig()


def evaluate(state: GaussianState, x):
    """Evaluate the wavefunction at ``x`` (scalar or ndarray)."""
    norm = (math.pi * state.sigma**2) ** -0.25
    z = (np.asarray(x, dtype=float) - state.mu) / state.sigma
    out = norm * np.exp(-0.5 * z * z)
    return out if isinstance(x, np.ndarray) else float(out)


def overlap_closed_form(a: GaussianState, b: GaussianState) -> float:
    """Inner product <a|b> of two normalized Gaussian states.

    Symmetric in its arguments, always in (0, 1], and equal to 1 exactly
    when the two parameter pairs coincide.
    """
    ss = _sigma_sq_sum(a, b)
    # grouping keeps the result bitwise symmetric under argument swap
    pref = math.sqrt(2.0 * (a.sigma * b.sigma) / ss)
    return pref * math.exp(-((a.mu - b.mu) ** 2) / (2.0 * ss))


# doubles per quadrature work buffer: 512 KiB, so both buffers fit in L2
_NODE_BUDGET = 65536


@lru_cache(maxsize=8)
def _simpson_nodes(panels: int):
    """Unit-interval node ramp and Simpson weights for 2*panels+1 points."""
    n = 2 * panels + 1
    j = np.arange(n, dtype=float)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return j, w


def overlap_quadrature_many(mu1, sigma1, mu2, sigma2,
                            cfg: QuadratureConfig | None = None) -> np.ndarray:
    """Quadrature overlaps for arrays of state parameters (one pair per entry).

    Same rule as :func:`overlap_quadrature`.  The four inputs must be finite
    1-D arrays (or scalars) of one common size, with every sigma > 0.  Pairs
    are evaluated in chunks of ``max(1, _NODE_BUDGET // (2*panels + 1))``
    rows, so each of the two work buffers holds at most ``_NODE_BUDGET``
    doubles (512 KiB) and both stay in a per-core L2 cache.
    """
    cfg = cfg if cfg is not None else DEFAULT_QUADRATURE
    mu1, sigma1, mu2, sigma2 = map(np.atleast_1d, (mu1, sigma1, mu2, sigma2))
    if any(a.ndim != 1 or a.size != mu1.size for a in (mu1, sigma1, mu2, sigma2)):
        raise ValueError("mu1, sigma1, mu2 and sigma2 must be 1-D and of one size")
    if not (all(np.isfinite(a).all() for a in (mu1, sigma1, mu2, sigma2))
            and (sigma1 > 0.0).all() and (sigma2 > 0.0).all()):
        raise ValueError("state parameters must be finite and every sigma positive")
    jr, wts = _simpson_nodes(cfg.panels)
    npts = jr.size
    rows = max(1, _NODE_BUDGET // npts)
    out = np.empty(mu1.size)
    buf1 = np.empty((min(rows, mu1.size), npts))
    buf2 = np.empty_like(buf1)
    for i in range(0, mu1.size, rows):
        sl = slice(i, min(i + rows, mu1.size))
        m1, s1, m2, s2 = mu1[sl], sigma1[sl], mu2[sl], sigma2[sl]
        w = cfg.half_width_sigmas * np.maximum(s1, s2)
        lo = np.minimum(m1, m2) - w
        hi = np.maximum(m1, m2) + w
        h = (hi - lo) / (npts - 1)
        # z_j = (lo + j*h - mu)/sigma evaluated as a linear ramp in j
        b1 = buf1[: m1.size]
        b2 = buf2[: m1.size]
        np.multiply.outer(h / s1, jr, out=b1)
        b1 += ((lo - m1) / s1)[:, None]
        b1 *= b1
        np.multiply.outer(h / s2, jr, out=b2)
        b2 += ((lo - m2) / s2)[:, None]
        b2 *= b2
        b1 += b2
        b1 *= -0.5
        np.exp(b1, out=b1)
        b1 *= wts
        # row-wise pairwise summation is independent of the chunk size, so
        # batched results match one-pair calls bitwise
        total = b1.sum(axis=1)
        # grouping keeps the result bitwise symmetric under argument swap
        pref = ((math.pi * math.pi) * (s1 * s2) ** 2) ** -0.25
        out[sl] = pref * total * h / 3.0
    return out


def overlap_quadrature(a: GaussianState, b: GaussianState,
                       cfg: QuadratureConfig | None = None) -> float:
    """Numerically integrate psi_a(x) * psi_b(x) on a truncated interval.

    The interval is [min(mu) - W, max(mu) + W] with
    W = half_width_sigmas * max(sigma).  Independent of the closed form;
    agrees with it to well below 1e-10 at the default configuration.
    """
    out = overlap_quadrature_many(
        np.array([a.mu]), np.array([a.sigma]), np.array([b.mu]), np.array([b.sigma]), cfg
    )
    return float(out[0])


def _sigma_sq_sum(a: GaussianState, b: GaussianState) -> float:
    """sigma_a**2 + sigma_b**2, refused where twice it overflows.

    Both closed forms divide the squared centre separation by twice this
    sum; at inf that exponent rounds to 0, and distinct states would come
    out at distance 0 with overlap 1 or NaN.
    """
    ss = a.sigma * a.sigma + b.sigma * b.sigma
    if 2.0 * ss == math.inf:
        raise OverflowError("sigma_a**2 + sigma_b**2 overflows")
    return ss


def _distance(xp, dmu, dsigma, ss):
    """sqrt(2 - 2*<a|b>) from mu_a - mu_b, sigma_a - sigma_b and sigma_a**2 + sigma_b**2.

    ``xp`` is ``math`` for floats and ``numpy`` for arrays.  Both terms of
    1 - <a|b> = (1 - pref) + pref*(1 - exp(-u)) are nonnegative (v <= 1 in
    floating point), so no cancellation and no clamp are needed.
    """
    u = dmu**2 / (2.0 * ss)
    v = dsigma**2 / ss
    p = xp.sqrt(1.0 - v)
    return xp.sqrt(2.0 * (v / (1.0 + p) - p * xp.expm1(-u)))


def state_distance(a: GaussianState, b: GaussianState) -> float:
    """L2 distance between two states, d = sqrt(2 - 2*<a|b>).

    Evaluated through an algebraically equivalent cancellation-free form so
    that distances far below sqrt(machine epsilon) are still exact to a few
    ulps; the naive 2 - 2*overlap subtraction cannot resolve below ~1e-8.
    Zero exactly iff the parameter pairs are identical.  Raises
    OverflowError where sigma_a**2 + sigma_b**2 leaves the double range.
    """
    return _distance(math, a.mu - b.mu, a.sigma - b.sigma, _sigma_sq_sum(a, b))


def distance_from_params(mu1, sigma1, mu2, sigma2):
    """Vectorized :func:`state_distance` on raw parameter arrays (no overflow check)."""
    return _distance(np, mu1 - mu2, sigma1 - sigma2, sigma1 * sigma1 + sigma2 * sigma2)


def audit_metric_axioms(samples: int = 10000, rng_seed: int = 0,
                        mu_range: tuple[float, float] = (-10.0, 10.0),
                        sigma_range: tuple[float, float] = (0.1, 10.0),
                        triangle_slack: float = 1e-12) -> AxiomAuditReport:
    """Randomized audit of the metric axioms for the state distance.

    Samples ``samples`` state triples and checks exact symmetry, the
    identity-of-indiscernibles (zero distance exactly iff parameters agree,
    with 1e-14 relative parameter tolerance), the triangle inequality with
    ``triangle_slack``, and the range bound d <= sqrt(2).
    """
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

    return AxiomAuditReport(target="state-distance-metric-axioms",
                            passed=all(c.passed for c in checks), checks=tuple(checks))


def _pair_witness(mu, sg, i, d_ab, d_ba):
    return {"a": {"mu": float(mu[0, i]), "sigma": float(sg[0, i])},
            "b": {"mu": float(mu[1, i]), "sigma": float(sg[1, i])},
            "d_ab": float(d_ab[i]), "d_ba": float(d_ba[i])}
