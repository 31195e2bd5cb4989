"""Side-by-side comparison of the quantum-state and fuzzy-metric frameworks.

The one computable contrast is interference: superposing two normalized
states adds the cross term 2*<a|b> to the squared norm, while a graded
membership has no superposition operation and therefore no analogue.  Both
frameworks are driven by the same affine map.  Under the induced membership
M(x, y, t) = t/(t + d(x, y)) a fuzzy contraction in the state distance is
iterated by the same Picard loop as the Banach one, so the two fixed points
agree by construction; the fuzzy side's independent content is its audit of
the contraction condition.
"""

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

# fuzzy_fixed_point and sample_state_pairs are not called here, but
# bench/tracing.py patches them by name
from .fuzzy import FuzzyMetric, FuzzyFixedPointReport, _condition_audit, fuzzy_fixed_point
from .gaussian import (DEFAULT_QUADRATURE, GaussianState, QuadratureConfig,
                       _simpson_nodes, evaluate, overlap_closed_form, state_distance)
from .solver import (DEFAULT_MAX_ITERATIONS, DEFAULT_REGION, DEFAULT_TOLERANCE,
                     AffineGaussianMap, FixedPointReport, NotConvergedError,
                     ParameterBox, _distances_under_map, _sample_pair_params,
                     estimate_contraction_factor, iterate_to_fixed_point,
                     sample_state_pairs)

__all__ = [
    "ContractionOutcome",
    "FeatureReport",
    "OUT_OF_SCOPE_NOTES",
    "interference_excess",
    "interference_excess_quadrature",
    "gaussian_parameter_metric",
    "gaussian_state_sampler",
    "build_feature_report",
]

# feature rows with no computable construction in either framework here;
# reported as text, never as numbers
OUT_OF_SCOPE_NOTES = {
    "completeness": "completeness is a hypothesis of both fixed-point results, "
                    "not a computed quantity; the affine family keeps every "
                    "iterate inside the state space by construction",
    "phase_sensitivity": "real-valued states carry no phase degree of freedom; "
                         "no construction available, reported as out of scope",
    "topological_protection": "no discrete invariant is defined for this state "
                              "family; reported as out of scope",
    "conservation_laws": "no symmetry/conservation correspondence is computed; "
                         "reported as out of scope",
}


def interference_excess(a: GaussianState, b: GaussianState) -> float:
    """Cross term ||psi_a + psi_b||^2 - ||psi_a||^2 - ||psi_b||^2 = 2*<a|b>."""
    return 2.0 * overlap_closed_form(a, b)


def interference_excess_quadrature(a: GaussianState, b: GaussianState,
                                   cfg: QuadratureConfig | None = None) -> float:
    """Interference excess by direct quadrature of the summed wavefunction.

    Integrates (psi_a + psi_b)^2, psi_a^2 and psi_b^2 on one shared Simpson
    grid and combines them; independent cross-check of the closed form.
    """
    cfg = cfg if cfg is not None else DEFAULT_QUADRATURE
    w = cfg.half_width_sigmas * max(a.sigma, b.sigma)
    lo = min(a.mu, b.mu) - w
    hi = max(a.mu, b.mu) + w
    _, wts = _simpson_nodes(cfg.panels)
    npts = wts.size
    x = np.linspace(lo, hi, npts)
    ya = evaluate(a, x)
    yb = evaluate(b, x)
    h = (hi - lo) / (npts - 1)
    def integral(y):
        return float((y @ wts) * h / 3.0)
    return integral((ya + yb) ** 2) - integral(ya**2) - integral(yb**2)


def gaussian_parameter_metric() -> FuzzyMetric:
    """Fuzzy metric whose carrier is the Gaussian state space under the L2 distance."""
    return FuzzyMetric(base_distance=state_distance)


def gaussian_state_sampler(region: ParameterBox = DEFAULT_REGION) -> Callable:
    """Uniform carrier-point sampler over a state parameter box."""
    def sample(rng: np.random.Generator) -> GaussianState:
        return GaussianState(float(rng.uniform(region.mu_lo, region.mu_hi)),
                             float(rng.uniform(region.sigma_lo, region.sigma_hi)))
    return sample


@dataclass(frozen=True)
class ContractionOutcome:
    """Fixed-point summary of one framework's run."""

    framework: str
    fixed_point: GaussianState
    iterations_used: int
    final_step_distance: float
    converged: bool


@dataclass(frozen=True)
class FeatureReport:
    """Machine-readable feature comparison of the two frameworks."""

    interference_excess_quantum: float
    interference_excess_fuzzy: float  # structurally zero: no superposition exists
    quantum: ContractionOutcome
    fuzzy: ContractionOutcome
    agreement_distance: float
    notes: dict[str, str]
    quantum_report: FixedPointReport
    fuzzy_report: FuzzyFixedPointReport


def build_feature_report(m: AffineGaussianMap, start: GaussianState,
                         probe_pair: tuple[GaussianState, GaussianState],
                         tolerance: float = DEFAULT_TOLERANCE,
                         max_iterations: int = DEFAULT_MAX_ITERATIONS,
                         rng_seed: int = 0,
                         region: ParameterBox = DEFAULT_REGION,
                         condition_samples: int = 2000) -> FeatureReport:
    """Run the iteration once and assemble both frameworks' view of it.

    The fuzzy contraction in the state distance is the same Picard iteration
    as the quantum one, so the fuzzy report and outcome are built from the
    quantum trace and ``agreement_distance`` is 0 by construction.  What the
    fuzzy side adds is its condition audit: the contraction factor is
    estimated on ``region``, and the condition is audited on the same
    sampled pairs' parameter arrays, with 16 t values per pair; states are
    built only for a witness, and no base distance is called.  Raises
    NotConvergedError if the iteration exhausts its budget.
    """
    quantum = iterate_to_fixed_point(m, start, tolerance, max_iterations)
    if not quantum.converged:
        raise NotConvergedError("quantum iteration did not converge", report=quantum)

    k_raw = estimate_contraction_factor(m, region, condition_samples, rng_seed)
    # the condition requires k strictly inside (0, 1); the constant map
    # estimates k = 0, any positive factor below 1 certifies it
    k = min(max(k_raw, 1e-6), 1.0 - 1e-12)
    mu1, sg1, mu2, sg2 = _sample_pair_params(region, condition_samples,
                                             np.random.default_rng(rng_seed))
    d, d_f = _distances_under_map(m, mu1, sg1, mu2, sg2)
    condition = _condition_audit(
        d, d_f, k, np.random.default_rng(rng_seed),
        lambda i: (GaussianState(mu1[i], sg1[i]), GaussianState(mu2[i], sg2[i])))
    outcome = ContractionOutcome("quantum", quantum.fixed_point, quantum.iterations_used,
                                 quantum.step_distances[-1], quantum.converged)

    return FeatureReport(
        interference_excess_quantum=interference_excess(*probe_pair),
        interference_excess_fuzzy=0.0,
        quantum=outcome,
        fuzzy=replace(outcome, framework="fuzzy"),
        agreement_distance=0.0,
        notes=dict(OUT_OF_SCOPE_NOTES),
        quantum_report=quantum,
        fuzzy_report=FuzzyFixedPointReport(
            quantum.iterates, quantum.step_distances, quantum.fixed_point,
            quantum.converged, quantum.iterations_used, k, condition),
    )
