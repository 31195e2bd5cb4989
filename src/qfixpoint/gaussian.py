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
import sys
from dataclasses import dataclass
from functools import lru_cache

from .reports import AxiomAuditReport, check

__all__ = [
    "GaussianState",
    "ParameterBox",
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


@dataclass(frozen=True, init=False)
class GaussianState:
    """A normalized real Gaussian wavefunction, stored by center and width."""

    mu: float
    sigma: float

    # hand-written so that each field is converted and set once
    def __init__(self, mu, sigma):
        mu, sigma = float(mu), float(sigma)
        if not (math.isfinite(mu) and math.isfinite(sigma)):
            raise ValueError("state parameters must be finite")
        if sigma <= 0.0:
            raise ValueError("sigma must be positive")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)


@dataclass(frozen=True)
class ParameterBox:
    """Axis-aligned box in (mu, sigma) parameter space."""

    mu_lo: float
    mu_hi: float
    sigma_lo: float
    sigma_hi: float

    def __post_init__(self):
        # the sampler draws uniformly between the bounds, which needs a finite span
        if not (math.isfinite(self.mu_hi - self.mu_lo)
                and math.isfinite(self.sigma_hi - self.sigma_lo)):
            raise ValueError("parameter box bounds and spans must be finite")
        if not self.mu_lo <= self.mu_hi:
            raise ValueError("mu interval is empty")
        if not 0.0 < self.sigma_lo <= self.sigma_hi:
            raise ValueError("sigma interval must have a positive lower bound")

    def sample(self, rng: "np.random.Generator", size=None):
        """Uniform draws (mu, sigma) of shape ``size``, mu drawn first; floats if size is None."""
        return (rng.uniform(self.mu_lo, self.mu_hi, size),
                rng.uniform(self.sigma_lo, self.sigma_hi, size))


@dataclass(frozen=True)
class QuadratureConfig:
    """Settings for the truncated composite-Simpson oracle.

    ``half_width_sigmas`` is W, the radius of each state's own window
    ``[mu - W*sigma, mu + W*sigma]`` in units of that state's width; the rule
    integrates on the intersection of the two windows.  W runs from 8 to 40:
    the cut tails are about exp(-W**2/2), which misses the 1e-10 gate below 8
    (2.9e-9 at W = 6), and exp(-W**2/2) underflows past 38.6, so a wider
    window adds nothing.  ``panels`` is the number of Simpson panels, so the
    rule evaluates the integrand at ``2 * panels + 1`` equispaced nodes.
    """

    half_width_sigmas: float = 10.0
    panels: int = 128

    def __post_init__(self):
        if not 8.0 <= self.half_width_sigmas <= 40.0:
            raise ValueError("half_width_sigmas must be between 8 and 40")
        if self.panels < 64 or self.panels % 2 != 0:
            raise ValueError("panels must be even and at least 64")


DEFAULT_QUADRATURE = QuadratureConfig()


def evaluate(state: GaussianState, x):
    """Evaluate the wavefunction at ``x`` (scalar or ndarray)."""
    import numpy as np
    norm = (math.pi * state.sigma**2) ** -0.25
    z = (np.asarray(x, dtype=float) - state.mu) / state.sigma
    out = norm * np.exp(-0.5 * z * z)
    return out if isinstance(x, np.ndarray) else float(out)


def overlap_closed_form(a: GaussianState, b: GaussianState) -> float:
    """Inner product <a|b> of two normalized Gaussian states.

    Symmetric, in [0, 1] and 1 for coinciding parameter pairs; it rounds to 1 for pairs
    about 1e-8 widths apart too, and to 0.0 as for (0, 1) and (100, 1).  Raises
    ZeroDivisionError where sigma_a*sigma_b is below the smallest normal double.
    """
    dmu = a.mu - b.mu
    ss = a.sigma * a.sigma + b.sigma * b.sigma
    if 2.0 * ss == math.inf:  # refused as in _pair_distance
        raise OverflowError("2*(sigma_a**2 + sigma_b**2) overflows")
    if a.sigma * b.sigma < sys.float_info.min:
        raise ZeroDivisionError("sigma_a*sigma_b underflows")
    # grouping keeps the result bitwise symmetric under argument swap
    pref = math.sqrt(2.0 * (a.sigma * b.sigma) / ss)
    return pref * math.exp(-(dmu * dmu) / (2.0 * ss))


# doubles in the quadrature work buffer: 512 KiB, so it stays in L2
_NODE_BUDGET = 65536


@lru_cache(maxsize=8)
def _simpson_nodes(panels: int):
    """Centred node offsets t = -panels..panels and Simpson weights for 2*panels+1 points."""
    import numpy as np
    t = np.arange(-panels, panels + 1, dtype=float)
    w = np.ones(t.size)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return t, w


def _shared_window(mu1, sigma1, mu2, sigma2, cfg: QuadratureConfig):
    """Where the two states' windows meet, and the Simpson rule's node map there.

    Positions are measured from the peak of psi_1*psi_2, so state i sits at
    o_i = (mu_i - mu_j) * sigma_i**2 / (sigma_1**2 + sigma_2**2): the narrow
    state's offset is small and exact to rounding, and its window does not
    collapse into one ulp of a large centre at any width ratio.  The window is
    the intersection [lo, hi] = [max(o_i - W*sigma_i), min(o_i + W*sigma_i)]
    of the states' own windows, so every node has |z_1|, |z_2| <= W.
    Returns ``meet``, the indices of the pairs with hi > lo, and for those
    pairs the node spacing ``h`` and each state's standardized node position
    as a linear function z_i = d_i + e_i*t of the centred node offset t.
    Every quantity swaps with the two states, so swapped arguments give
    bitwise-equal results.
    """
    import numpy as np
    # a radius that overflows covers the line; an offset overflows only for
    # centres about 1e308 apart, where the overlap is far below the 1e-10
    # gate, and the NaN of inf - inf then fails hi > lo
    with np.errstate(over="ignore", invalid="ignore"):
        o1 = (0.5 * mu1 - 0.5 * mu2) * (2.0 / (1.0 + (sigma2 / sigma1) ** 2))
        o2 = (0.5 * mu2 - 0.5 * mu1) * (2.0 / (1.0 + (sigma1 / sigma2) ** 2))
        r1 = cfg.half_width_sigmas * sigma1
        r2 = cfg.half_width_sigmas * sigma2
        lo = np.maximum(o1 - r1, o2 - r2)
        hi = np.minimum(o1 + r1, o2 + r2)
        meet = np.flatnonzero(hi > lo)
    lo, hi, s1, s2 = lo[meet], hi[meet], sigma1[meet], sigma2[meet]
    centre = 0.5 * lo + 0.5 * hi
    h = (hi - lo) / (2 * cfg.panels)
    return meet, h, (centre - o1[meet]) / s1, h / s1, (centre - o2[meet]) / s2, h / s2


def overlap_quadrature_many(mu1, sigma1, mu2, sigma2,
                            cfg: QuadratureConfig | None = None) -> "np.ndarray":
    """Quadrature overlaps for arrays of state parameters (one pair per entry).

    Same rule as :func:`overlap_quadrature`.  The four inputs must be finite
    1-D arrays (or scalars) of one common size, with every sigma > 0; raises
    ZeroDivisionError where (sigma1*sigma2)**2 is below the smallest normal
    double and OverflowError where pi**2*(sigma1*sigma2)**2 is infinite.  The
    exponent -(z_1**2 + z_2**2)/2 is one quadratic (A*t + B)*t + C in the
    centred node offset t, so near the integrand's peak no large terms cancel.
    Pairs whose windows meet are evaluated in chunks of
    ``max(1, _NODE_BUDGET // (2*panels + 1))`` rows, so the work buffer holds
    at most ``_NODE_BUDGET`` doubles (512 KiB) and stays in a per-core L2
    cache.
    """
    import numpy as np
    cfg = cfg if cfg is not None else DEFAULT_QUADRATURE
    mu1, sigma1, mu2, sigma2 = map(np.atleast_1d, (mu1, sigma1, mu2, sigma2))
    if any(a.ndim != 1 or a.size != mu1.size for a in (mu1, sigma1, mu2, sigma2)):
        raise ValueError("mu1, sigma1, mu2 and sigma2 must be 1-D and of one size")
    if not (all(np.isfinite(a).all() for a in (mu1, sigma1, mu2, sigma2))
            and (sigma1 > 0.0).all() and (sigma2 > 0.0).all()):
        raise ValueError("state parameters must be finite and every sigma positive")
    # the closed form raises the same exceptions for its own underflow and overflow
    with np.errstate(over="ignore", under="ignore"):
        width_sq = (sigma1 * sigma2) ** 2
        scaled = (math.pi * math.pi) * width_sq
    if (width_sq < sys.float_info.min).any():
        raise ZeroDivisionError("(sigma1*sigma2)**2 underflows")
    if (scaled == math.inf).any():
        raise OverflowError("pi**2*(sigma1*sigma2)**2 overflows")
    meet, h, d1, e1, d2, e2 = _shared_window(mu1, sigma1, mu2, sigma2, cfg)
    # sums of per-state terms keep the result bitwise symmetric under argument swap
    qa = -0.5 * (e1 * e1 + e2 * e2)
    qb = -(d1 * e1 + d2 * e2)
    qc = -0.5 * (d1 * d1 + d2 * d2)
    pref = scaled[meet] ** -0.25
    t, wts = _simpson_nodes(cfg.panels)
    rows = max(1, _NODE_BUDGET // t.size)
    out = np.zeros(mu1.size)
    buf = np.empty((min(rows, meet.size), t.size))
    for i in range(0, meet.size, rows):
        sl = slice(i, i + rows)
        b = buf[: meet[sl].size]
        np.multiply.outer(qa[sl], t, out=b)
        b += qb[sl, None]
        b *= t
        b += qc[sl, None]
        np.exp(b, out=b)
        b *= wts
        # row-wise pairwise summation is independent of the chunk size, so
        # batched results match one-pair calls bitwise
        out[meet[sl]] = pref[sl] * b.sum(axis=1) * h[sl] / 3.0
    return out


def overlap_quadrature(a: GaussianState, b: GaussianState,
                       cfg: QuadratureConfig | None = None) -> float:
    """Numerically integrate psi_a(x) * psi_b(x) on the states' shared window.

    The window is the intersection of [mu - W*sigma, mu + W*sigma] over the
    two states, with W = half_width_sigmas.  Where the windows do not meet
    the result is exactly 0.0; the true overlap is then below exp(-W**2/2).
    Independent of the closed form; within 1e-15 of it on the acceptance
    grid, and well below 1e-10 at any width ratio at the default config.
    """
    return float(overlap_quadrature_many(a.mu, a.sigma, b.mu, b.sigma, cfg)[0])


def _distance(xp, dmu2, dsigma, sab, ss):
    """sqrt(2 - 2*<a|b>) from (mu_a - mu_b)**2, sigma_a - sigma_b, sigma_a*sigma_b, ss.

    ``ss`` is sigma_a**2 + sigma_b**2 and ``xp`` is ``math`` or ``numpy``.  Both
    terms of 1 - <a|b> = v/(1 + p) + p*(1 - exp(-u)) are nonnegative, and taking
    p = sqrt(2*sab/ss) avoids the equal sqrt(1 - v), which cancels at wide width ratios.
    """
    u = dmu2 / (2.0 * ss)
    v = dsigma * dsigma / ss
    p = xp.sqrt(2.0 * sab / ss)
    return xp.sqrt(2.0 * (v / (1.0 + p) - p * xp.expm1(-u)))


# a lost square, u or v stands for a term of d**2/2 below float_info.min/min(ss, 1),
# which moves d by under 2**-54 relative where d**2*min(ss, 1) is above this
_RESOLVED_SQ = 2.0**55 * sys.float_info.min


def _near_distance(dmu, dsigma, sab, ss):
    """:func:`_distance` of one pair from v = a**2 and u = b**2, squaring no difference;
    distinct states closer than 2**-1075 get 5e-324, the smallest double, not 0."""
    # differences below 1/2 are scaled up by 2**-e, the larger into [1/2, 1), so neither
    # a nor b rounds below the normal range; d is scaled back in one rounding
    e = min(0, math.frexp(max(abs(dmu), abs(dsigma)))[1])
    a, b = (math.ldexp(abs(x), -e) / math.sqrt(s) for x, s in ((dsigma, ss), (dmu, 2.0 * ss)))
    p, u = math.sqrt(2.0 * sab / ss), math.ldexp(b, e) * math.ldexp(b, e)
    # sqrt(1 - exp(-u)) is b to rounding where u < 1e-17
    g = b if u < 1e-17 else math.ldexp(math.sqrt(-math.expm1(-u)), -e)
    d = math.ldexp(SQRT2 * math.hypot(a / math.sqrt(1.0 + p), math.sqrt(p) * g), e)
    return d if d or not (dmu or dsigma) else math.ulp(0.0)


def _pair_distance(mu_a, sigma_a, mu_b, sigma_b) -> float:
    """:func:`state_distance` of the states (mu_a, sigma_a) and (mu_b, sigma_b).

    Both closed forms divide the squared centre separation by 2*ss, so where
    2*ss overflows they are refused: at inf that exponent rounds to 0, and
    distinct states would come out at distance 0 with overlap 1 or NaN; an
    infinite (mu_a - mu_b)**2 is exact there, at overlap 0.  Squares are
    products, as numpy's are: Python's ``**`` goes through libm ``pow``, which
    can round differently.
    """
    dmu = mu_a - mu_b
    ss = sigma_a * sigma_a + sigma_b * sigma_b
    if 2.0 * ss == math.inf:
        raise OverflowError("2*(sigma_a**2 + sigma_b**2) overflows")
    dsigma, sab = sigma_a - sigma_b, sigma_a * sigma_b
    d = _distance(math, dmu * dmu, dsigma, sab, ss)
    # d*d*min(ss, 1.0) as two comparisons, which cost less than the call of min;
    # d*d < 2.1, so every pair whose ss is subnormal takes this branch
    if d * d < _RESOLVED_SQ or d * d * ss < _RESOLVED_SQ:
        if ss < sys.float_info.min:
            raise ZeroDivisionError("sigma_a**2 + sigma_b**2 underflows")
        d = _near_distance(dmu, dsigma, sab, ss)
    # v/(1 + p) + p is 1 in reals where the overlap term vanishes, but can round above it
    return SQRT2 if d > SQRT2 else d


def state_distance(a: GaussianState, b: GaussianState) -> float:
    """L2 distance between two states, d = sqrt(2 - 2*<a|b>).

    Evaluated through an algebraically equivalent cancellation-free form, exact
    to a few ulps down to distances far below sqrt(machine epsilon) and at width
    ratios up to 1e8; the naive 2 - 2*overlap cannot resolve below ~1e-8.  Where
    a squared difference may leave the normal range it takes the scaled form of
    :func:`_near_distance`.  Zero exactly iff the pairs are identical; distinct
    pairs within 2**-1075 get 5e-324.  Raises ZeroDivisionError where ss =
    sigma_a**2 + sigma_b**2 is subnormal, and OverflowError where 2*ss overflows.
    """
    return _pair_distance(a.mu, a.sigma, b.mu, b.sigma)


def distance_from_params(mu1, sigma1, mu2, sigma2):
    """Vectorized :func:`state_distance` on raw parameter arrays.

    Raises where :func:`state_distance` does, and gives the distinct pairs it
    suspects the same :func:`_near_distance` call, so both paths agree bitwise there.
    """
    import numpy as np
    # (mu1 - mu2)**2 and u overflow for far-apart states, where expm1(-inf) = -1 is exact
    with np.errstate(over="ignore"):
        dmu2 = (mu1 - mu2) ** 2
        ss = sigma1 * sigma1 + sigma2 * sigma2
        if 2.0 * ss.max() == math.inf:
            raise OverflowError("2*(sigma1**2 + sigma2**2) overflows")
        if ss.min() < sys.float_info.min:
            raise ZeroDivisionError("sigma1**2 + sigma2**2 underflows")
        d = _distance(np, dmu2, sigma1 - sigma2, sigma1 * sigma2, ss)
        suspect = d * d * np.minimum(ss, 1.0) < _RESOLVED_SQ
        if suspect.any():  # identical pairs, as in audit_metric_axioms's d_self, stay at 0
            i = np.flatnonzero(suspect & ((mu1 != mu2) | (sigma1 != sigma2)))
            args = (mu1[i] - mu2[i], sigma1[i] - sigma2[i], sigma1[i] * sigma2[i], ss[i])
            d[i] = list(map(_near_distance, *(x.tolist() for x in args)))
    return np.minimum(d, SQRT2, out=d)


def audit_metric_axioms(samples: int = 10000, rng_seed: int = 0,
                        box: ParameterBox = ParameterBox(-10.0, 10.0, 0.1, 10.0),
                        triangle_slack: float = 1e-12) -> AxiomAuditReport:
    """Randomized audit of the metric axioms for the state distance.

    Samples ``samples`` state triples from ``box`` and checks exact
    symmetry, the identity-of-indiscernibles (zero distance exactly iff
    parameters agree, with 1e-14 relative parameter tolerance), the triangle
    inequality with ``triangle_slack``, and the range bound d <= sqrt(2).
    """
    import numpy as np
    if samples < 1:
        raise ValueError("samples must be positive")
    mu, sg = box.sample(np.random.default_rng(rng_seed), (3, samples))

    d_ab = distance_from_params(mu[0], sg[0], mu[1], sg[1])
    d_ba = distance_from_params(mu[1], sg[1], mu[0], sg[0])
    d_bc = distance_from_params(mu[1], sg[1], mu[2], sg[2])
    d_ac = distance_from_params(mu[0], sg[0], mu[2], sg[2])

    d_self = distance_from_params(mu[0], sg[0], mu[0], sg[0])
    rel_equal = (np.abs(mu[0] - mu[1]) <= 1e-14 * np.maximum(np.abs(mu[0]), np.abs(mu[1]))) & (
        np.abs(sg[0] - sg[1]) <= 1e-14 * np.maximum(sg[0], sg[1]))
    excess = d_ac - (d_ab + d_bc)
    all_d = np.concatenate([d_ab, d_bc, d_ac])

    def pair_witness(i):
        return {"a": {"mu": float(mu[0, i]), "sigma": float(sg[0, i])},
                "b": {"mu": float(mu[1, i]), "sigma": float(sg[1, i])},
                "d_ab": float(d_ab[i]), "d_ba": float(d_ba[i])}

    return AxiomAuditReport(target="state-distance-metric-axioms", checks=(
        check("symmetry_exact", d_ab != d_ba, pair_witness),
        # row 0: each point with itself, row 1: distinct pairs at distance 0
        check("identity_of_indiscernibles",
              np.vstack([d_self != 0.0, ~rel_equal & (d_ab <= 0.0)]),
              lambda r, i: pair_witness(i) if r else {
                  "mu": float(mu[0, i]), "sigma": float(sg[0, i]), "distance": float(d_self[i])}),
        check("triangle_inequality", excess > triangle_slack,
              lambda i: {"d_ac": float(d_ac[i]), "d_ab": float(d_ab[i]),
                         "d_bc": float(d_bc[i]), "excess": float(excess[i])},
              detail=f"slack={triangle_slack:g}"),
        check("range", (all_d < 0.0) | (all_d > SQRT2),
              lambda i: {"distance": float(all_d[i])},
              detail="0 <= d <= sqrt(2) in double precision"),
    ))
