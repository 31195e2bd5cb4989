"""Side-by-side comparison of the quantum-state and fuzzy-metric frameworks.

The one computable contrast is interference: superposing two normalized
states adds the cross term 2*<a|b> to the squared norm, while a graded
membership has no superposition operation, so its excess is 0 by structure.
Both frameworks are driven by the same affine map.  Under the induced
membership M(x, y, t) = t/(t + d(x, y)) a fuzzy contraction in the state
distance is iterated by the same Picard loop as the Banach one, so the two
fixed points agree by construction, at distance 0; the fuzzy side adds the
audit of its contraction condition on the pairs that k is estimated on.
"""

from typing import Callable

# evaluate, estimate_contraction_factor and sample_state_pairs are not called
# here, but bench/tracing.py patches them by name
from .fuzzy import FuzzyMetric, FuzzyFixedPointReport, fuzzy_fixed_point
from .gaussian import (GaussianState, QuadratureConfig, evaluate, overlap_closed_form,
                       overlap_quadrature, state_distance)
from .solver import (DEFAULT_MAX_ITERATIONS, DEFAULT_REGION, DEFAULT_TOLERANCE,
                     AffineGaussianMap, FixedPointReport, NotConvergedError,
                     _estimator_sample, estimate_contraction_factor,
                     iterate_to_fixed_point, sample_state_pairs)

__all__ = [
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
    """Interference excess by quadrature, 2*overlap_quadrature(a, b, cfg).

    The Simpson rule is linear, so S[(psi_a + psi_b)**2] - S[psi_a**2]
    - S[psi_b**2] = 2*S[psi_a*psi_b].  Window, swap symmetry, the 0.0 where
    windows do not meet and the refusals are overlap_quadrature_many's: for
    equal widths, sigma from about 1.2e-77 to 6.5e76.
    """
    return 2.0 * overlap_quadrature(a, b, cfg)


def gaussian_parameter_metric() -> FuzzyMetric:
    """Fuzzy metric whose carrier is the Gaussian state space under the L2 distance."""
    return FuzzyMetric(base_distance=state_distance)


def gaussian_state_sampler() -> Callable:
    """Uniform carrier-point sampler over DEFAULT_REGION's state parameter box."""
    def sample(rng: "np.random.Generator") -> GaussianState:
        return GaussianState(*DEFAULT_REGION.sample(rng))
    return sample


def build_feature_report(m: AffineGaussianMap, start: GaussianState,
                         tolerance: float = DEFAULT_TOLERANCE,
                         max_iterations: int = DEFAULT_MAX_ITERATIONS,
                         rng_seed: int = 0
                         ) -> tuple[FixedPointReport, float, FuzzyFixedPointReport]:
    """Run the iteration once; return its trace, ``k_estimate`` and the fuzzy report.

    The fuzzy contraction in the state distance is the same Picard iteration
    as the quantum one, so the trace is the one trace of both frameworks.
    What the fuzzy side adds is fuzzy_fixed_point's condition audit, on the
    2000 pairs that estimate_contraction_factor draws from DEFAULT_REGION
    with this seed: they are measured once, for the unclamped ``k_estimate``
    and for the audit at every t of T_GRID at the clamped ``k`` the report
    holds; states are built only for a witness, and no base distance is
    called.  Raises NotConvergedError if the iteration exhausts its budget.
    """
    quantum = iterate_to_fixed_point(m, start, tolerance, max_iterations)
    if not quantum.converged:
        raise NotConvergedError("quantum iteration did not converge")

    (mu1, sg1, mu2, sg2), d, d_f, k_raw = _estimator_sample(m, DEFAULT_REGION, 2000, rng_seed)
    # the condition requires k strictly inside (0, 1); the constant map
    # estimates k = 0, any positive factor below 1 certifies it
    k = min(max(k_raw, 1e-6), 1.0 - 1e-12)
    fuzzy = fuzzy_fixed_point(d, d_f, k, lambda i: (
        GaussianState(mu1[i], sg1[i]), GaussianState(mu2[i], sg2[i])))

    return quantum, k_raw, fuzzy
