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

from .reports import AxiomAuditReport, _first, check

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
T_SAMPLES = 16  # t values per pair in the fuzzy contraction audit
# the audit's t values, log-spaced over T_RANGE with both ends exact, by libm pow
T_GRID = tuple(10.0 ** (LOG_T_RANGE[0] + (LOG_T_RANGE[1] - LOG_T_RANGE[0]) * i / (T_SAMPLES - 1))
               for i in range(T_SAMPLES))
# pairs per condition-audit block: 8192 (pair, t) samples, 64 KiB per float64 temporary,
# under glibc's mmap threshold, so blocks reuse heap memory instead of faulting in pages
_AUDIT_ROWS = 8192 // T_SAMPLES


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


def _grid(grid_resolution: int):
    """``grid_resolution`` evenly spaced points on [0, 1]; refused below 5."""
    import numpy as np
    if grid_resolution < 5:
        raise ValueError("grid_resolution must be at least 5")
    return np.linspace(0.0, 1.0, grid_resolution)


def _within_slack(name, diff, g):
    """The check diff <= AUDIT_SLACK at every grid point, which NaN fails."""
    return check(name, ~(diff <= AUDIT_SLACK), lambda *idx: {
        **{"xyz"[i]: float(g[j]) for i, j in enumerate(idx)}, "abs_difference": float(diff[idx])})


def audit_tnorm_axioms(tnorm, grid_resolution: int = 21) -> AxiomAuditReport:
    """Exhaustive grid audit of the four t-norm axioms.

    ``tnorm`` is a TNormKind or any callable on ndarray pairs, so the audit
    can also demonstrate failure on a deliberately broken operation.
    Commutativity and the identity element are checked on all grid pairs,
    associativity and monotonicity on all grid triples/pairs, each with
    AUDIT_SLACK tolerance; a NaN value fails the check it enters.
    """
    import numpy as np
    g = _grid(grid_resolution)
    fn = _tnorm_fn(TNormKind(tnorm)) if isinstance(tnorm, (TNormKind, str)) else tnorm
    x = g[:, None, None]
    y = g[None, :, None]
    z = g[None, None, :]

    vals = fn(x[:, :, 0], y[:, :, 0])
    return AxiomAuditReport(target="tnorm-axioms", checks=(
        _within_slack("commutativity", np.abs(vals - fn(y[:, :, 0], x[:, :, 0])), g),
        _within_slack("associativity", np.abs(fn(x, fn(y, z)) - fn(fn(x, y), z)), g),
        # along the sorted grid, T(x, .) must be nondecreasing
        check("monotonicity", ~(np.diff(vals, axis=1) >= -AUDIT_SLACK),
              lambda i, j: {"x": float(g[i]), "y": float(g[j]), "z": float(g[j + 1]),
                            "t_xy": float(vals[i, j]), "t_xz": float(vals[i, j + 1])}),
        _within_slack("identity_element", np.abs(fn(g, np.ones_like(g)) - g), g),
    ))


def audit_tnorm_ordering(grid_resolution: int = 21) -> AxiomAuditReport:
    """Check lukasiewicz <= product <= minimum on an exhaustive grid."""
    g = _grid(grid_resolution)
    luk, prod, mini = (_tnorm_fn(kind)(g[:, None], g[None, :]) for kind in (
        TNormKind.LUKASIEWICZ, TNormKind.PRODUCT, TNormKind.MINIMUM))
    return AxiomAuditReport(target="tnorm-ordering", checks=(
        _within_slack("lukasiewicz_le_product", luk - prod, g),
        _within_slack("product_le_minimum", prod - mini, g),
    ))


@dataclass(frozen=True)
class FuzzyMetric:
    """Graded indistinguishability induced by a classical metric."""

    base_distance: Callable[[Any, Any], float]
    tnorm: TNormKind = TNormKind.PRODUCT


def _grade(t, d):
    """The membership formula t / (t + d), taken as 0 where t = 0.

    ``t`` and ``d`` broadcast, so one call grades a whole sweep of t values.
    """
    import numpy as np
    t = np.asarray(t, dtype=float)
    with np.errstate(invalid="ignore"):
        return np.where(t == 0.0, 0.0, t / (t + d))


def _distances(fm: FuzzyMetric, pairs) -> "np.ndarray":
    """One ``fm.base_distance`` call per (x, y) pair, checked nonnegative."""
    import numpy as np
    d = np.array([fm.base_distance(x, y) for x, y in pairs], dtype=float)
    if (d < 0.0).any():
        raise ValueError("base_distance returned a negative value")
    return d


def audit_gv_axioms(fm: FuzzyMetric, point_sampler: Callable, point_samples: int = 64,
                    t_samples: int = 16, rng_seed: int = 0) -> AxiomAuditReport:
    """Randomized audit of the fuzzy-metric axioms that a base distance can fail.

    ``point_sampler(rng)`` draws carrier points.  Identity, symmetry and the
    t-norm triangle inequality are checked on sampled pairs/triples with t, s
    drawn log-uniformly from T_RANGE.  Zero at t = 0 and continuity in t hold
    for t / (t + d) whatever d >= 0 is, so unit tests of :func:`_grade` check them.

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
    m_xy = _grade(ts, _distances(fm, adjacent)[:, None])
    m_yx = _grade(ts, _distances(fm, [(y, x) for x, y in adjacent])[:, None])
    m_self = _grade(ts, _distances(fm, [(p, p) for p in pts])[:, None])
    xs, ys, zs = ([pts[i] for i in col] for col in tri.T)
    lhs = tnorm(_grade(t, _distances(fm, zip(xs, ys))), _grade(s, _distances(fm, zip(ys, zs))))
    rhs = _grade(t + s, _distances(fm, zip(xs, zs)))

    n = len(pts)
    distinct = np.array([x != y for x, y in adjacent])[:, None]

    def pair_witness(i, **values):
        x, y = adjacent[i]
        return {"x": x, "y": y, **{k: float(v) for k, v in values.items()}}

    return AxiomAuditReport(target="fuzzy-metric-axioms", checks=(
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
    ))


@dataclass(frozen=True)
class GSConditionAudit:
    """Audit of the fuzzy contraction condition M(fx, fy, kt) >= M(x, y, t) on T_GRID."""

    samples: int
    violations: int
    min_margin: float
    max_abs_margin: float
    holds: bool
    witness: dict | None


@dataclass(frozen=True)
class FuzzyFixedPointReport:
    """The factor k of the fuzzy contraction and its condition audit."""

    k: float
    condition: GSConditionAudit


def fuzzy_fixed_point(d, d_f, k: float, pair_at: Callable) -> FuzzyFixedPointReport:
    """Audit M(f(x), f(y), k*t) >= M(x, y, t); the fixed point is the Picard one in d.

    ``d`` and ``d_f`` are 1-D arrays of d(x, y) and d(f(x), f(y)), graded _AUDIT_ROWS
    pairs at a time at every t of T_GRID.  A margin t(k d - d_f)/((kt + d_f)(t + d))
    >= 0 is least at an end of T_RANGE, so ``min_margin`` is exact whenever the
    condition holds.  The witness is the first violation in pair-major order, named
    by ``pair_at(i)``; NaN margins count as neither violations nor extremes.
    Raises ValueError unless 0 < k < 1, or if d is empty.
    """
    import numpy as np
    if not 0.0 < k < 1.0:
        raise ValueError("k must lie in (0, 1)")
    if d.size == 0:
        raise ValueError("the condition audit needs at least one pair")
    ts = np.array(T_GRID)
    violations, min_margin, max_abs, witness = 0, math.inf, 0.0, None
    for lo in range(0, d.size, _AUDIT_ROWS):
        margin = _grade(k * ts, d_f[lo:lo + _AUDIT_ROWS, None])
        margin -= _grade(ts, d[lo:lo + _AUDIT_ROWS, None])
        failed = margin < -AUDIT_SLACK
        violations += int(np.count_nonzero(failed))
        if witness is None and (bad := _first(failed)) is not None:
            x, y = pair_at(lo + int(bad[0]))
            witness = {"x": x, "y": y, "t": T_GRID[bad[1]], "margin": float(margin[bad])}
        # fmin/fmax skip NaN margins, as the comparisons that count violations do
        min_margin = np.fmin.reduce(margin, axis=None, initial=min_margin)
        max_abs = np.fmax.reduce(np.abs(margin, out=margin), axis=None, initial=max_abs)
    condition = GSConditionAudit(d.size * T_SAMPLES, violations, float(min_margin),
                                 float(max_abs), violations == 0, witness)
    return FuzzyFixedPointReport(k=k, condition=condition)


def absolute_difference(x: float, y: float) -> float:
    """The usual metric on the real line."""
    return abs(x - y)


def real_line_sampler() -> Callable:
    """Uniform carrier-point sampler for the real line, over [-10, 10]."""
    def sample(rng: "np.random.Generator") -> float:
        return float(rng.uniform(-10.0, 10.0))
    return sample
