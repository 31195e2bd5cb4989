"""Affine contraction maps on Gaussian states and certified fixed-point iteration.

A map acts on state parameters as (mu, sigma) -> (mu_scale*mu + mu_shift,
sigma_scale*sigma + sigma_shift).  With |mu_scale| < 1, 0 <= sigma_scale < 1
and sigma_shift > 0 the map sends valid states to valid states and has the
unique parameter fixed point (mu_shift/(1-mu_scale), sigma_shift/(1-sigma_scale)).
The iteration records per-step state distances, an empirical contraction
factor, and the geometric error bounds that certify convergence.
"""

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import GaussianState, distance_from_params, state_distance
from .reports import AuditCheck, AxiomAuditReport

__all__ = [
    "AffineGaussianMap",
    "ParameterBox",
    "FixedPointReport",
    "NotConvergedError",
    "DegenerateRegionError",
    "DEFAULT_MAPS",
    "DEFAULT_STARTS",
    "DEFAULT_REGION",
    "DEFAULT_TOLERANCE",
    "DEFAULT_MAX_ITERATIONS",
    "apply_map",
    "analytic_fixed_point",
    "sample_state_pairs",
    "estimate_contraction_factor",
    "iterate_to_fixed_point",
    "verify_banach_bounds",
    "verify_uniqueness",
]

# ratios of consecutive steps below this floor are dominated by rounding noise
RATIO_FLOOR = 1e-13

DEFAULT_TOLERANCE = 1e-12
DEFAULT_MAX_ITERATIONS = 10000


class NotConvergedError(RuntimeError):
    """Iteration budget exhausted before the stopping tolerance was met."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class DegenerateRegionError(ValueError):
    """All sampled pairs were too close to form a contraction ratio."""


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
class ParameterBox:
    """Axis-aligned box in (mu, sigma) parameter space."""

    mu_lo: float
    mu_hi: float
    sigma_lo: float
    sigma_hi: float

    def __post_init__(self):
        if not self.mu_lo <= self.mu_hi:
            raise ValueError("mu interval is empty")
        if not 0.0 < self.sigma_lo <= self.sigma_hi:
            raise ValueError("sigma interval must have a positive lower bound")


@dataclass(frozen=True)
class FixedPointReport:
    """Full trace of one fixed-point iteration.

    ``step_distances[n]`` is the state distance between iterates n+1 and n;
    ``k_estimate`` is the largest ratio of consecutive step distances (steps
    below RATIO_FLOOR skipped); ``a_priori_bounds[n]`` is the geometric tail
    bound k^n/(1-k) * step_distances[0] on the distance from iterate n to the
    limit, empty when no contraction factor below 1 was observed.
    """

    iterates: tuple[GaussianState, ...]
    step_distances: tuple[float, ...]
    k_estimate: float
    a_priori_bounds: tuple[float, ...]
    fixed_point: GaussianState
    converged: bool
    iterations_used: int


# Default contraction family exercised by the test suite.  Each map keeps
# max(|mu_scale|, sigma_scale) <= 0.8 so multi-start runs land within 1e-11
# of each other at the default tolerance, and keeps sigma_shift large enough
# that the map contracts the state distance on all of DEFAULT_REGION.
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


def apply_map(m: AffineGaussianMap, state: GaussianState) -> GaussianState:
    """Apply the affine parameter map to a state."""
    return GaussianState(m.mu_scale * state.mu + m.mu_shift,
                         m.sigma_scale * state.sigma + m.sigma_shift)


def analytic_fixed_point(m: AffineGaussianMap) -> GaussianState:
    """Exact fixed point of the affine parameter recursion."""
    return GaussianState(m.mu_shift / (1.0 - m.mu_scale),
                         m.sigma_shift / (1.0 - m.sigma_scale))


def _sample_pair_params(region: ParameterBox, samples: int, rng: np.random.Generator):
    mu1 = rng.uniform(region.mu_lo, region.mu_hi, samples)
    sg1 = rng.uniform(region.sigma_lo, region.sigma_hi, samples)
    mu2 = rng.uniform(region.mu_lo, region.mu_hi, samples)
    sg2 = rng.uniform(region.sigma_lo, region.sigma_hi, samples)
    return mu1, sg1, mu2, sg2


def sample_state_pairs(region: ParameterBox, samples: int,
                       rng: np.random.Generator) -> list[tuple[GaussianState, GaussianState]]:
    """Draw uniform state pairs from a parameter box (same stream as the estimator)."""
    mu1, sg1, mu2, sg2 = _sample_pair_params(region, samples, rng)
    return [(GaussianState(a, b), GaussianState(c, d))
            for a, b, c, d in zip(mu1, sg1, mu2, sg2)]


def estimate_contraction_factor(m: AffineGaussianMap, region: ParameterBox,
                                samples: int = 10000, rng_seed: int = 0) -> float:
    """Empirical contraction factor of the map in the state distance.

    Returns the largest ratio d(Ta, Tb) / d(a, b) over ``samples`` uniform
    pairs from ``region``, skipping pairs closer than 1e-12.  Deterministic
    for a fixed ``rng_seed``.  Raises DegenerateRegionError when every
    sampled pair is skipped.
    """
    if samples < 100:
        raise ValueError("samples must be at least 100")
    rng = np.random.default_rng(rng_seed)
    mu1, sg1, mu2, sg2 = _sample_pair_params(region, samples, rng)
    d_pre = distance_from_params(mu1, sg1, mu2, sg2)
    mask = d_pre >= 1e-12
    if not mask.any():
        raise DegenerateRegionError("all sampled pairs are closer than 1e-12")
    d_post = distance_from_params(
        m.mu_scale * mu1 + m.mu_shift, m.sigma_scale * sg1 + m.sigma_shift,
        m.mu_scale * mu2 + m.mu_shift, m.sigma_scale * sg2 + m.sigma_shift)
    return float(np.max(d_post[mask] / d_pre[mask]))


def iterate_to_fixed_point(m: AffineGaussianMap, start: GaussianState,
                           tolerance: float = DEFAULT_TOLERANCE,
                           max_iterations: int = DEFAULT_MAX_ITERATIONS) -> FixedPointReport:
    """Iterate the map until consecutive iterates are within ``tolerance``.

    Stops on the a-posteriori criterion d(iterate_{n+1}, iterate_n) <=
    tolerance; ``converged`` records whether that happened within the budget.
    The report always contains the full trace.
    """
    if not (tolerance > 0.0):
        raise ValueError("tolerance must be positive")
    if max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")

    iterates = [start]
    steps: list[float] = []
    current = start
    converged = False
    for _ in range(max_iterations):
        nxt = apply_map(m, current)
        steps.append(state_distance(nxt, current))
        iterates.append(nxt)
        current = nxt
        if steps[-1] <= tolerance:
            converged = True
            break

    ratios = [steps[n] / steps[n - 1] for n in range(1, len(steps))
              if steps[n - 1] > RATIO_FLOOR]
    k = max(ratios) if ratios else 0.0

    bounds: tuple[float, ...] = ()
    if k < 1.0 and steps:
        s0 = steps[0]
        bounds = tuple(k**n / (1.0 - k) * s0 for n in range(len(iterates)))

    return FixedPointReport(
        iterates=tuple(iterates),
        step_distances=tuple(steps),
        k_estimate=k,
        a_priori_bounds=bounds,
        fixed_point=current,
        converged=converged,
        iterations_used=len(steps),
    )


def verify_banach_bounds(report: FixedPointReport, k: float,
                         slack: float = 1e-12) -> AxiomAuditReport:
    """Check the geometric step and tail bounds of a contraction trace.

    With contraction factor ``k``, every step must satisfy
    step[n] <= k^n * step[0] + slack, and every iterate must lie within
    k^n/(1-k) * step[0] + slack of the report's fixed point.
    """
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

    return AxiomAuditReport(target="banach-bounds",
                            passed=all(c.passed for c in checks), checks=tuple(checks))


def verify_uniqueness(m: AffineGaussianMap, starts, tolerance: float = DEFAULT_TOLERANCE,
                      max_iterations: int = DEFAULT_MAX_ITERATIONS) -> AxiomAuditReport:
    """Run the iteration from several starts and require one common limit.

    Passes when all resulting fixed points are pairwise within
    10 * tolerance of each other.  Raises NotConvergedError if any run
    exhausts its budget.
    """
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
    return AxiomAuditReport(target="uniqueness", passed=check.passed, checks=(check,))
