"""Fuzzy-metric machinery: t-norms, graded membership, and the fuzzy contraction.

The membership function induced by a classical metric d is
M(x, y, t) = t / (t + d(x, y)) for t > 0 and M(x, y, 0) = 0.  The fuzzy
contraction condition audited here is M(f(x), f(y), k*t) >= M(x, y, t) for
a factor k in (0, 1); for the induced membership it is equivalent to
d(f(x), f(y)) <= k * d(x, y).
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable

from .reports import AuditCheck, AxiomAuditReport, _first, check
from .solver import DEFAULT_MAX_ITERATIONS, DEFAULT_TOLERANCE, _iterate

__all__ = [
    "TNormKind",
    "FuzzyMetric",
    "GSConditionAudit",
    "FuzzyFixedPointReport",
    "audit_tnorm_axioms",
    "audit_tnorm_ordering",
    "audit_gv_axioms",
    "fuzzy_fixed_point",
    "absolute_difference",
    "real_line_sampler",
]

# comparisons among audited quantities tolerate roundoff at this scale;
# exact real-arithmetic identities (e.g. T(x,1) = x for the Lukasiewicz
# t-norm) fail by ~1 ulp in binary floating point
AUDIT_SLACK = 1e-12

T_RANGE = (1e-3, 1e3)
LOG_T_RANGE = (math.log10(T_RANGE[0]), math.log10(T_RANGE[1]))
# (pair, t) samples per condition-audit block: 64 KiB per float64 temporary, under
# glibc's mmap threshold, so blocks reuse heap memory instead of faulting in pages
_AUDIT_BLOCK = 8192


class TNormKind(str, Enum):
    MINIMUM = "minimum"
    PRODUCT = "product"
    LUKASIEWICZ = "lukasiewicz"


def _tnorm_fn(kind: TNormKind) -> Callable:
    import numpy as np
    if kind == TNormKind.MINIMUM:
        return np.minimum
    if kind == TNormKind.PRODUCT:
        return np.multiply
    if kind == TNormKind.LUKASIEWICZ:
        return lambda a, b: np.maximum(0.0, a + b - 1.0)
    raise ValueError(f"unknown t-norm kind: {kind!r}")


def audit_tnorm_axioms(tnorm, grid_resolution: int = 21) -> AxiomAuditReport:
    """Exhaustive grid audit of the four t-norm axioms.

    ``tnorm`` is a TNormKind or any callable on ndarray pairs, so the audit
    can also demonstrate failure on a deliberately broken operation.
    Commutativity and the identity element are checked on all grid pairs,
    associativity and monotonicity on all grid triples/pairs, each with
    AUDIT_SLACK tolerance.
    """
    import numpy as np
    if grid_resolution < 5:
        raise ValueError("grid_resolution must be at least 5")
    fn = _tnorm_fn(TNormKind(tnorm)) if isinstance(tnorm, (TNormKind, str)) else tnorm
    g = np.linspace(0.0, 1.0, grid_resolution)
    x = g[:, None, None]
    y = g[None, :, None]
    z = g[None, None, :]

    vals = fn(x[:, :, 0], y[:, :, 0])
    return AxiomAuditReport(target="tnorm-axioms", checks=(
        _grid_check("commutativity", np.abs(vals - fn(y[:, :, 0], x[:, :, 0])), g),
        _grid_check("associativity", np.abs(fn(x, fn(y, z)) - fn(fn(x, y), z)), g),
        # along the sorted grid, T(x, .) must be nondecreasing
        check("monotonicity", np.diff(vals, axis=1) < -AUDIT_SLACK,
              lambda i, j: {"x": float(g[i]), "y": float(g[j]), "z": float(g[j + 1]),
                            "t_xy": float(vals[i, j]), "t_xz": float(vals[i, j + 1])}),
        _grid_check("identity_element", np.abs(fn(g, np.ones_like(g)) - g), g),
    ))


def _grid_check(name, diff, g):
    """Check diff <= AUDIT_SLACK on a grid; the witness is the worst grid point."""
    import numpy as np
    idx = np.unravel_index(int(np.argmax(diff)), diff.shape)
    worst = float(diff[idx])
    witness = None
    if worst > AUDIT_SLACK:
        witness = {chr(ord("x") + i): float(g[j]) for i, j in enumerate(idx)}
        witness["abs_difference"] = worst
    return AuditCheck(name=name, passed=worst <= AUDIT_SLACK, checked=diff.size,
                      witness=witness)


def audit_tnorm_ordering(grid_resolution: int = 21) -> AxiomAuditReport:
    """Check lukasiewicz <= product <= minimum on an exhaustive grid."""
    import numpy as np
    if grid_resolution < 5:
        raise ValueError("grid_resolution must be at least 5")
    g = np.linspace(0.0, 1.0, grid_resolution)
    luk, prod, mini = (_tnorm_fn(kind)(g[:, None], g[None, :]) for kind in (
        TNormKind.LUKASIEWICZ, TNormKind.PRODUCT, TNormKind.MINIMUM))
    return AxiomAuditReport(target="tnorm-ordering", checks=(
        _grid_check("lukasiewicz_le_product", np.maximum(luk - prod, 0.0), g),
        _grid_check("product_le_minimum", np.maximum(prod - mini, 0.0), g),
    ))


@dataclass(frozen=True)
class FuzzyMetric:
    """Graded indistinguishability induced by a classical metric."""

    base_distance: Callable[[Any, Any], float]
    tnorm: TNormKind = TNormKind.PRODUCT


def _grade(t, d, out=None):
    """The membership formula t / (t + d), taken as 0 where t = 0.

    ``t`` and ``d`` broadcast, so one call grades a whole sweep of t values.
    The grades are written to ``out`` when given; it must not overlap ``t``.
    """
    import numpy as np
    t = np.asarray(t, dtype=float)
    out = np.empty(np.broadcast_shapes(t.shape, np.shape(d))) if out is None else out
    with np.errstate(invalid="ignore"):
        np.divide(t, np.add(t, d, out=out), out=out)
    np.copyto(out, 0.0, where=t == 0.0)
    return out


def _distances(fm: FuzzyMetric, pairs) -> "np.ndarray":
    """One ``fm.base_distance`` call per (x, y) pair, checked nonnegative."""
    import numpy as np
    d = np.array([fm.base_distance(x, y) for x, y in pairs], dtype=float)
    if (d < 0.0).any():
        raise ValueError("base_distance returned a negative value")
    return d


def audit_gv_axioms(fm: FuzzyMetric, point_sampler: Callable, point_samples: int = 64,
                    t_samples: int = 16, rng_seed: int = 0) -> AxiomAuditReport:
    """Randomized audit of the five fuzzy-metric axioms.

    ``point_sampler(rng)`` draws carrier points.  Axioms 1-4 (zero at t=0,
    identity, symmetry, t-norm triangle inequality) are checked on sampled
    pairs/triples with t, s drawn log-uniformly from T_RANGE.  Axiom 5
    (continuity in t) is probed per pair on a dense log-spaced t-grid:
    membership must be nondecreasing in t and small relative t-steps must
    produce membership changes below 1e-6.

    The distances do not depend on t, so ``fm.base_distance`` is called
    6 * point_samples - 2 times whatever ``t_samples`` is: once per point
    with itself, once per adjacent pair in each orientation, and three times
    per triple.  Each witness is the first failure in pair-major order.
    """
    import numpy as np
    if point_samples < 10:
        raise ValueError("point_samples must be at least 10")
    if t_samples < 5:
        raise ValueError("t_samples must be at least 5")
    rng = np.random.default_rng(rng_seed)
    pts = [point_sampler(rng) for _ in range(point_samples)]
    ts = 10.0 ** rng.uniform(*LOG_T_RANGE, t_samples)
    tri = rng.integers(0, point_samples, size=(point_samples, 3))
    t, s = (10.0 ** rng.uniform(*LOG_T_RANGE, (point_samples, 2))).T
    tnorm = _tnorm_fn(fm.tnorm)

    adjacent = list(zip(pts[:-1], pts[1:]))
    d_xy = _distances(fm, adjacent)[:, None]
    m_xy = _grade(ts, d_xy)
    m_yx = _grade(ts, _distances(fm, [(y, x) for x, y in adjacent])[:, None])
    m_self = _grade(ts, _distances(fm, [(p, p) for p in pts])[:, None])
    xs, ys, zs = ([pts[i] for i in col] for col in tri.T)
    lhs = tnorm(_grade(t, _distances(fm, zip(xs, ys))), _grade(s, _distances(fm, zip(ys, zs))))
    rhs = _grade(t + s, _distances(fm, zip(xs, zs)))
    grid = np.geomspace(T_RANGE[0], T_RANGE[1], 64)
    vals = _grade(grid, d_xy)
    jump = np.abs(_grade(grid * (1.0 + 1e-6), d_xy) - vals)

    m0 = _grade(0.0, d_xy)
    n = len(pts)
    distinct = np.array([x != y for x, y in adjacent])[:, None]
    steps = len(grid) - 1

    def pair_witness(i, **values):
        x, y = adjacent[i]
        return {"x": x, "y": y, **{k: float(v) for k, v in values.items()}}

    return AxiomAuditReport(target="fuzzy-metric-axioms", checks=(
        check("zero_at_t0", m0 != 0.0, lambda i, _: pair_witness(i, membership_at_0=m0[i, 0])),
        # distinct carrier points must never reach grade 1; this also catches
        # degenerate base distances that report 0 for distinct points.  Rows
        # are the points with themselves, then the adjacent pairs.
        check("identity", np.vstack([m_self != 1.0, (m_xy >= 1.0) & distinct]),
              lambda r, j: ({"x": pts[r], "t": float(ts[j]), "membership": float(m_self[r, j])}
                            if r < n else pair_witness(r - n, t=ts[j], membership=m_xy[r - n, j])),
              checked=m_self.size + int(distinct.sum()) * t_samples),
        check("symmetry", m_xy != m_yx,
              lambda i, j: pair_witness(i, t=ts[j], m_xy=m_xy[i, j], m_yx=m_yx[i, j])),
        check("tnorm_triangle", lhs > rhs + AUDIT_SLACK,
              lambda i: {"x": xs[i], "y": ys[i], "z": zs[i], "t": float(t[i]), "s": float(s[i]),
                         "lhs": float(lhs[i]), "rhs": float(rhs[i])}),
        # per pair: the 63 monotonicity steps, then the 64 relative-step probes
        check("continuity_in_t",
              np.hstack([vals[:, 1:] < vals[:, :-1] - AUDIT_SLACK, jump > 1e-6]),
              lambda i, j: (pair_witness(i, t=grid[j], drop=vals[i, j] - vals[i, j + 1])
                            if j < steps else
                            pair_witness(i, t=grid[j - steps], jump=jump[i, j - steps])),
              detail="monotone on a log grid; 1e-6 relative-step probe"),
    ))


@dataclass(frozen=True)
class GSConditionAudit:
    """Sampled audit of the fuzzy contraction condition M(fx, fy, kt) >= M(x, y, t)."""

    samples: int
    violations: int
    min_margin: float
    max_abs_margin: float
    witness: dict | None
    holds: bool


@dataclass(frozen=True)
class FuzzyFixedPointReport:
    """Trace of the fuzzy contraction iteration plus its condition audit."""

    iterates: tuple
    step_distances: tuple[float, ...]
    fixed_point: Any
    converged: bool
    iterations_used: int
    k: float
    condition: GSConditionAudit


def _condition_audit(d, d_f, k: float, rng: "np.random.Generator", pair_at: Callable,
                     t_samples: int = 16) -> GSConditionAudit:
    """Audit M(f(x), f(y), k*t) >= M(x, y, t) from the t-independent distances.

    The 1-D arrays ``d`` and ``d_f`` hold d(x, y) and d(f(x), f(y)) per
    pair.  Each pair gets a row of ``t_samples`` t values drawn log-uniformly
    over T_RANGE from ``rng``.  The witness is the first violation in
    pair-major order, and ``pair_at(i)`` gives the (x, y) it names.  Pairs
    are graded in blocks of at most _AUDIT_BLOCK samples, drawing each
    block's t values in turn from the one sequential stream, so the result is
    bitwise that of one draw over all pairs.
    """
    import numpy as np
    rows = max(1, _AUDIT_BLOCK // t_samples)
    violations, min_margin, max_abs, witness = 0, math.inf, 0.0, None
    for lo in range(0, d.size, rows):
        ts = 10.0 ** rng.uniform(*LOG_T_RANGE, (min(rows, d.size - lo), t_samples))
        kt = k * ts
        margin = _grade(kt, d_f[lo:lo + rows, None])
        margin -= _grade(ts, d[lo:lo + rows, None], out=kt)
        failed = margin < -AUDIT_SLACK
        violations += int(np.count_nonzero(failed))
        if witness is None and (bad := _first(failed)) is not None:
            x, y = pair_at(lo + int(bad[0]))
            witness = {"x": x, "y": y, "t": float(ts[bad]), "margin": float(margin[bad])}
        # fmin/fmax skip NaN margins, as the comparisons that count violations do
        min_margin = np.fmin.reduce(margin, axis=None, initial=min_margin)
        max_abs = np.fmax.reduce(np.abs(margin, out=margin), axis=None, initial=max_abs)
    return GSConditionAudit(d.size * t_samples, violations, float(min_margin), float(max_abs),
                            witness, holds=violations == 0)


def fuzzy_fixed_point(fm: FuzzyMetric, f: Callable, k: float, start,
                      tolerance: float = DEFAULT_TOLERANCE,
                      max_iterations: int = DEFAULT_MAX_ITERATIONS, *,
                      condition_pairs=None, point_sampler: Callable | None = None,
                      pair_samples: int = 200, t_samples: int = 16,
                      rng_seed: int = 0) -> FuzzyFixedPointReport:
    """Iterate f to a fixed point, and audit the fuzzy contraction condition.

    The iteration is the solver's Picard loop in the base distance, run
    until consecutive iterates are within ``tolerance``.  The condition
    M(f(x), f(y), k*t) >= M(x, y, t) is sampled on ``condition_pairs`` (or
    on pairs drawn via ``point_sampler``) with t log-uniform over T_RANGE;
    violations are reported but do not stop the iteration, and the witness
    is the first violation in pair-major order.  Raises ValueError when there
    is no pair or no t value, since an empty audit would hold vacuously.

    ``fm.base_distance`` is called once per iteration step, plus
    2 * len(pairs) times by the audit, since d(x, y) and d(f(x), f(y)) do
    not depend on t.
    """
    import numpy as np
    if not 0.0 < k < 1.0:
        raise ValueError("k must lie in (0, 1)")
    rng = np.random.default_rng(rng_seed)
    if condition_pairs is None:
        if point_sampler is None:
            raise ValueError("provide condition_pairs or a point_sampler")
        condition_pairs = [(point_sampler(rng), point_sampler(rng))
                           for _ in range(pair_samples)]
    pairs = list(condition_pairs)
    if not pairs or t_samples < 1:
        raise ValueError("the condition audit needs at least one pair and one t value")
    iterates, steps, converged = _iterate(f, fm.base_distance, start, tolerance,
                                          max_iterations)
    d_f = _distances(fm, [(f(x), f(y)) for x, y in pairs])
    return FuzzyFixedPointReport(
        iterates=tuple(iterates),
        step_distances=tuple(steps),
        fixed_point=iterates[-1],
        converged=converged,
        iterations_used=len(steps),
        k=k,
        condition=_condition_audit(_distances(fm, pairs), d_f, k, rng, pairs.__getitem__,
                                   t_samples),
    )


def absolute_difference(x: float, y: float) -> float:
    """The usual metric on the real line."""
    return abs(x - y)


def real_line_sampler() -> Callable:
    """Uniform carrier-point sampler for the real line, over [-10, 10]."""
    def sample(rng: "np.random.Generator") -> float:
        return float(rng.uniform(-10.0, 10.0))
    return sample
