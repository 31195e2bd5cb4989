"""Affine contraction maps on Gaussian states and their fixed-point iteration.

A map acts on state parameters as (mu, sigma) -> (mu_scale*mu + mu_shift,
sigma_scale*sigma + sigma_shift).  With |mu_scale| < 1, 0 <= sigma_scale < 1
and sigma_shift > 0 the map sends valid states to valid states and has the
unique parameter fixed point (mu_shift/(1-mu_scale), sigma_shift/(1-sigma_scale)).
The iteration runs on the parameter floats and records them as two columns,
with per-step state distances, an empirical contraction factor and the
geometric error bounds at it; the fixed point is the one state it builds.
estimate_contraction_factor returns the largest sampled ratio: a lower
bound on the region's sup ratio.
"""

import math
from dataclasses import dataclass

# state_distance is not called here, but the benchmark tracer patches solver.state_distance
from .gaussian import (SQRT2, GaussianState, ParameterBox, _pair_distance, distance_from_params,
                       state_distance)
from .reports import AxiomAuditReport, check

__all__ = [
    "AffineGaussianMap",
    "FixedPointReport",
    "NotConvergedError",
    "DEFAULT_MAPS",
    "DEFAULT_STARTS",
    "DEFAULT_REGION",
    "DEFAULT_TOLERANCE",
    "DEFAULT_MAX_ITERATIONS",
    "analytic_fixed_point",
    "sample_state_pairs",
    "estimate_contraction_factor",
    "iterate_to_fixed_point",
    "verify_banach_bounds",
]

# ratios of consecutive steps below this floor are dominated by rounding noise
RATIO_FLOOR = 1e-13

DEFAULT_TOLERANCE = 1e-12
DEFAULT_MAX_ITERATIONS = 10000


class NotConvergedError(RuntimeError):
    """Iteration budget exhausted before the stopping tolerance was met."""


@dataclass(frozen=True)
class AffineGaussianMap:
    """Form-preserving affine map on state parameters."""

    mu_scale: float
    mu_shift: float
    sigma_scale: float
    sigma_shift: float

    def __post_init__(self):
        for name in ("mu_scale", "mu_shift", "sigma_scale", "sigma_shift"):
            object.__setattr__(self, name, float(getattr(self, name)))
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if abs(self.mu_scale) >= 1.0:
            raise ValueError("mu_scale must satisfy |mu_scale| < 1")
        if not 0.0 <= self.sigma_scale < 1.0:
            raise ValueError("sigma_scale must satisfy 0 <= sigma_scale < 1")
        if self.sigma_shift <= 0.0:
            raise ValueError("sigma_shift must be positive")


@dataclass(frozen=True)
class FixedPointReport:
    """Full trace of one fixed-point iteration.

    Iterate n is the state (``mus[n]``, ``sigmas[n]``), start first;
    ``step_distances[n]`` is the state distance between iterates n+1 and n;
    ``k_estimate`` is the largest ratio of consecutive step distances (steps
    below RATIO_FLOOR skipped), 0.0 when no ratio was observed;
    ``a_priori_bounds[n]`` is the geometric tail bound k^n/(1-k) *
    step_distances[0] on the distance from iterate n to the limit, empty when
    no ratio or no contraction factor below 1 was observed.
    """

    mus: tuple[float, ...]
    sigmas: tuple[float, ...]
    step_distances: tuple[float, ...]
    k_estimate: float
    a_priori_bounds: tuple[float, ...]
    fixed_point: GaussianState
    converged: bool
    iterations_used: int

    @property
    def iterates(self) -> tuple[GaussianState, ...]:
        """The trace as states, built on each access; only bench/tracing.py reads it."""
        return tuple(map(GaussianState, self.mus, self.sigmas))


# Default contraction family exercised by the test suite.  Each map keeps
# max(|mu_scale|, sigma_scale) <= 0.8 so multi-start runs land within 1e-11 of each
# other at the default tolerance.  Sampled estimates on DEFAULT_REGION stay below 1,
# but the first map's sup ratio there is within 2e-7 of 1, so a Banach bound is vacuous.
DEFAULT_MAPS = (
    AffineGaussianMap(0.5, 0.0, 0.5, 0.5),
    AffineGaussianMap(0.0, 0.0, 0.0, 1.0),
    AffineGaussianMap(0.8, 0.1, 0.8, 0.9),
    AffineGaussianMap(-0.5, 1.0, 0.25, 1.5),
    AffineGaussianMap(0.3, -2.0, 0.7, 0.3),
)

DEFAULT_STARTS = (
    GaussianState(4.0, 3.0),
    GaussianState(-6.0, 0.2),
    GaussianState(0.0, 10.0),
)

DEFAULT_REGION = ParameterBox(-5.0, 5.0, 0.3, 5.0)


def analytic_fixed_point(m: AffineGaussianMap) -> GaussianState:
    """Exact fixed point of the affine parameter recursion."""
    return GaussianState(m.mu_shift / (1.0 - m.mu_scale),
                         m.sigma_shift / (1.0 - m.sigma_scale))


def sample_state_pairs(region: ParameterBox, samples: int,
                       rng: "np.random.Generator") -> list[tuple[GaussianState, GaussianState]]:
    """Draw uniform state pairs from a parameter box (same stream as the estimator)."""
    (mu1, sg1), (mu2, sg2) = region.sample(rng, samples), region.sample(rng, samples)
    return [(GaussianState(a, b), GaussianState(c, d))
            for a, b, c, d in zip(mu1, sg1, mu2, sg2)]


def _estimator_sample(m: AffineGaussianMap, region: ParameterBox, samples: int, rng_seed: int):
    """estimate_contraction_factor's pairs (mu1, sg1, mu2, sg2), d(a, b), d(Ta, Tb) and k."""
    import numpy as np
    if samples < 100:
        raise ValueError("samples must be at least 100")
    rng = np.random.default_rng(rng_seed)
    (mu1, sg1), (mu2, sg2) = region.sample(rng, samples), region.sample(rng, samples)
    d = distance_from_params(mu1, sg1, mu2, sg2)
    d_f = distance_from_params(m.mu_scale * mu1 + m.mu_shift, m.sigma_scale * sg1 + m.sigma_shift,
                               m.mu_scale * mu2 + m.mu_shift, m.sigma_scale * sg2 + m.sigma_shift)
    mask = d >= 1e-12
    if not mask.any():
        raise ValueError("all sampled pairs are closer than 1e-12")
    return (mu1, sg1, mu2, sg2), d, d_f, float(np.max(d_f[mask] / d[mask]))


def estimate_contraction_factor(m: AffineGaussianMap, region: ParameterBox,
                                samples: int = 10000, rng_seed: int = 0) -> float:
    """Empirical contraction factor of the map in the state distance.

    Returns the largest ratio d(Ta, Tb) / d(a, b) over ``samples`` uniform
    pairs from ``region``, skipping pairs closer than 1e-12.  Deterministic
    for a fixed ``rng_seed``.  Raises ValueError below 100 samples and
    when every sampled pair is skipped.
    """
    return _estimator_sample(m, region, samples, rng_seed)[-1]


def iterate_to_fixed_point(m: AffineGaussianMap, start: GaussianState,
                           tolerance: float = DEFAULT_TOLERANCE,
                           max_iterations: int = DEFAULT_MAX_ITERATIONS) -> FixedPointReport:
    """Picard iteration x_{n+1} = m(x_n) until d(x_{n+1}, x_n) <= ``tolerance``.

    ``converged`` records whether that a-posteriori criterion was met within
    ``max_iterations`` steps; the report always contains the full trace,
    start first.  A tolerance of sqrt(2) or more is refused: no state
    distance exceeds sqrt(2), so the first step would pass for convergence.
    """
    if tolerance >= SQRT2:
        raise ValueError("tolerance must be below sqrt(2), the largest state distance")
    if not (tolerance > 0.0):
        raise ValueError("tolerance must be positive")
    if max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")
    a, b, c, e = m.mu_scale, m.mu_shift, m.sigma_scale, m.sigma_shift
    mu, sigma = start.mu, start.sigma
    mus, sigmas, steps = [mu], [sigma], []
    for _ in range(max_iterations):
        nmu, nsigma = a * mu + b, c * sigma + e
        if not (math.isfinite(nmu) and math.isfinite(nsigma)):
            GaussianState(nmu, nsigma)  # raises the state's own error
        # a module global, looked up per step, so a wrapper set on it sees each call
        steps.append(_pair_distance(nmu, nsigma, mu, sigma))
        mu, sigma = nmu, nsigma
        mus.append(mu)
        sigmas.append(sigma)
        if steps[-1] <= tolerance:
            break

    ratios = [s / prev for prev, s in zip(steps, steps[1:]) if prev > RATIO_FLOOR]
    k = max(ratios, default=0.0)
    s0 = steps[0]
    # with no ratio observed, k = 0 bounds nothing
    bounds = tuple(k**n / (1.0 - k) * s0 for n in range(len(mus))) if ratios and k < 1.0 else ()

    return FixedPointReport(
        mus=tuple(mus),
        sigmas=tuple(sigmas),
        step_distances=tuple(steps),
        k_estimate=k,
        a_priori_bounds=bounds,
        fixed_point=GaussianState(mu, sigma),
        # the loop breaks exactly when a step meets the tolerance
        converged=steps[-1] <= tolerance,
        iterations_used=len(steps),
    )


def verify_banach_bounds(report: FixedPointReport, k: float) -> AxiomAuditReport:
    """Check the geometric step and tail bounds of a contraction trace.

    With contraction factor ``k``, every step must satisfy
    step[n] <= k^n * step[0] + slack, and every iterate must lie within
    k^n/(1-k) * step[0] + slack of the report's fixed point, with slack 1e-12.
    """
    if not 0.0 <= k < 1.0:
        raise ValueError("k must satisfy 0 <= k < 1")
    if len(report.mus) < 2:
        raise ValueError("report must contain at least 2 iterates")

    steps = report.step_distances
    s0 = steps[0]
    powers = [k**n for n in range(len(report.mus))]
    tail = 1.0 / (1.0 - k)
    step_bound = [p * s0 + 1e-12 for p in powers[:len(steps)]]
    tail_bound = [p * tail * s0 + 1e-12 for p in powers]
    fp = report.fixed_point
    dist = [_pair_distance(mu, sigma, fp.mu, fp.sigma)
            for mu, sigma in zip(report.mus, report.sigmas)]
    return AxiomAuditReport(target="banach-bounds", checks=(
        check("geometric_step_bound", [s > b for s, b in zip(steps, step_bound)],
              lambda n: {"n": n, "step_distance": steps[n], "bound": step_bound[n]},
              detail="step[n] <= k^n * step[0] + slack"),
        check("geometric_tail_bound", [d > b for d, b in zip(dist, tail_bound)],
              lambda n: {"n": n, "distance_to_fixed_point": dist[n], "bound": tail_bound[n]},
              detail="d(iterate[n], fixed_point) <= k^n/(1-k) * step[0] + slack"),
    ))
