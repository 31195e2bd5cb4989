"""The CLI renderers against verbatim copies of the value-by-value ones.

``cli._json`` and the csv rows render value by value, and ``iterate``
renders each json run of its trace, and its whole csv body, in one ``%``
call each.  All must print exactly what rendering each value on its own
printed, and refuse NaN and inf in json the same way.
"""

import contextlib
import dataclasses
import functools
import io
import itertools
import json
import math
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfixpoint import cli
from qfixpoint.gaussian import GaussianState
from qfixpoint.solver import AffineGaussianMap, iterate_to_fixed_point

# ------------------------------------------ value-by-value reference renderers

_scalar = functools.lru_cache(maxsize=1024, typed=True)(json.dumps)


def _json(value) -> str:
    """JSON text of ``value``; floats carry 17 significant digits."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("non-finite float in report")
        return format(value, ".17g")
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(_json, value)) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{_scalar(k)}: {_json(v)}" for k, v in value.items()) + "}"
    if dataclasses.is_dataclass(value):
        return _json({f.name: getattr(value, f.name) for f in dataclasses.fields(value)})
    return _scalar(value)


def _g17(x) -> str:
    return format(x, ".17g") if isinstance(x, float) else str(x)


def reference_csv(rows) -> str:
    return "".join(",".join(map(_g17, row)) + "\n" for row in rows)


# ------------------------------------------------------------------ helpers

@dataclasses.dataclass(frozen=True)
class Point:
    """Two float fields with no validation, so NaN and inf can sit in a run."""

    x: float
    y: float


@dataclasses.dataclass(frozen=True)
class Single:
    value: float


@dataclasses.dataclass(frozen=True)
class Mixed:
    count: int
    weight: float


def render_csv(rows) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._render(types.SimpleNamespace(format="csv", out=None), "test", {}, {}, rows, "")
    return out.getvalue()


def rendered_or_error(render, value):
    try:
        return render(value)
    except ValueError as exc:
        return ("ValueError", str(exc))


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
               1e308, -1e308, 1.7976931348623157e308, 0.1, 1 / 3, 123456789.0]

finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
any_float = st.floats() | st.sampled_from(EDGE_FLOATS)
text = st.text(alphabet=st.sampled_from('%"\'\\ ,\nabcé')) | st.sampled_from(
    ["%s", "%.17g", "%%", '"quoted"', "100%", ""])
numpy_float = finite.map(np.float64)
states = st.builds(GaussianState, mu=finite,
                   sigma=st.floats(min_value=5e-324, allow_infinity=False))
maps = st.builds(AffineGaussianMap, mu_scale=st.floats(-0.99, 0.99),
                 mu_shift=finite, sigma_scale=st.floats(0.0, 0.99),
                 sigma_shift=st.floats(min_value=1e-300, allow_infinity=False))
points = st.builds(Point, x=finite, y=finite)
leaves = (finite | st.integers() | st.booleans() | st.none() | text | numpy_float
          | states | maps | points | st.builds(Single, finite)
          | st.builds(Mixed, st.integers(), finite))
# long homogeneous runs, as reports hold them
runs = (st.lists(finite, max_size=40) | st.lists(states, max_size=40)
        | st.lists(points, max_size=40) | st.lists(numpy_float, max_size=5)
        | st.lists(maps, max_size=5)).map(tuple)
documents = st.recursive(
    leaves | runs,
    lambda children: (st.lists(children, max_size=6)
                      | st.lists(children, max_size=6).map(tuple)
                      | st.dictionaries(text, children, max_size=6)),
    max_leaves=30)


# -------------------------------------------------------------------- json

@settings(max_examples=100, deadline=None)
@given(documents)
@example([1e308, 1e308, 1e308])  # finite run whose sum overflows
@example([])
@example([GaussianState(-0.0, 5e-324), GaussianState(1e308, 1e308)])
@example([1.0, 2, 3.0])
@example([1.0, np.float64(2.0)])
@example([1.0, True])
@example([Mixed(10**20, 1.0), Mixed(1, 2.0)])  # dataclass runs holding non-floats
@example([Point(True, 1.0), Point(2.0, 3.0)])
@example([Point(np.float64(0.5), 1.0), Point(2.0, 3.0)])
@example([Single(0.5), Single(1.5)])
def test_json_matches_the_value_by_value_renderer(document):
    assert cli._json(document) == _json(document)


@settings(max_examples=60, deadline=None)
@given(leaves | runs, st.sampled_from([math.nan, -math.nan, math.inf, -math.inf]), st.data())
def test_json_refuses_nan_and_inf_as_before(document, bad, data):
    """A non-finite float anywhere, a run or a dataclass included, raises the same error."""
    where = data.draw(st.sampled_from(["list", "run", "point", "dict"]))
    if where == "list":
        doc = [document, bad]
    elif where == "run":
        doc = {"run": [0.5] * data.draw(st.integers(0, 5)) + [bad, 1.5]}
    elif where == "point":
        doc = [Point(1.0, 2.0), Point(bad, 3.0), Point(4.0, 5.0)]
    else:
        doc = {"a": document, "b": (Point(1.0, bad),)}
    expected = ("ValueError", "non-finite float in report")
    assert rendered_or_error(_json, doc) == expected
    assert rendered_or_error(cli._json, doc) == expected


def test_a_trace_report_renders_as_value_by_value():
    report = iterate_to_fixed_point(AffineGaussianMap(0.5, 0.0, 0.5, 0.5),
                                    GaussianState(4.0, 3.0))
    assert cli._json(report) == _json(report)


# (map, start, tolerance, max_iterations): a trace with bounds, a k >= 1 trace
# (no bounds), a trace whose steps go subnormal, and a one-step trace (no ratio)
TRACES = [
    ((0.5, 0.0, 0.5, 0.5), (4.0, 3.0), 1e-12, 10000),
    ((0.5, 0.0, 0.5, 0.5), (1e300, 3.0), 1e-12, 10000),
    ((0.1, 0.0, 0.5, 1e130), (4.0, 3.0), 5e-324, 10000),
    ((0.5, 0.0, 0.5, 1.0), (0.5, 2.0), 1e-12, 1),
]


@pytest.mark.parametrize("m, start, tolerance, max_iterations", TRACES)
def test_iterate_renders_its_trace_as_value_by_value(capsys, m, start, tolerance,
                                                     max_iterations):
    argv = ["iterate", "--map=" + ",".join(map(repr, m)), "--start=" + ",".join(map(repr, start)),
            "--tol", repr(tolerance), "--max-iter", str(max_iterations)]
    m, start = AffineGaussianMap(*m), GaussianState(*start)
    r = iterate_to_fixed_point(m, start, tolerance, max_iterations)
    printed = {}
    for fmt in ("json", "csv"):
        cli.main([*argv, "--format", fmt])
        printed[fmt] = capsys.readouterr().out

    result = {"converged": r.converged, "iterations_used": r.iterations_used,
              "k_estimate": r.k_estimate, "fixed_point": r.fixed_point,
              "iterates": list(map(GaussianState, r.mus, r.sigmas)),
              "step_distances": r.step_distances, "a_priori_bounds": r.a_priori_bounds}
    inputs = {"map": m, "start": start, "tolerance": tolerance,
              "max_iterations": max_iterations}
    assert printed["json"] == _json({"command": "iterate", "inputs": inputs, "result": result,
                                     "version": 1}) + "\n"
    trace = itertools.zip_longest(r.mus, r.sigmas, r.step_distances, r.a_priori_bounds,
                                  fillvalue="")
    rows = [("n", "mu", "sigma", "step_distance", "a_priori_bound"),
            *((n, *row) for n, row in enumerate(trace))]
    assert printed["csv"] == reference_csv(rows)


def test_percent_g17_matches_format_on_random_bit_patterns():
    bits = np.random.default_rng(0).integers(0, 2**64, size=100_000, dtype=np.uint64,
                                             endpoint=False)
    values = bits.view(np.float64).tolist() + EDGE_FLOATS + [math.nan, math.inf, -math.inf]
    assert ["%.17g" % x for x in values] == [format(x, ".17g") for x in values]


# --------------------------------------------------------------------- csv

csv_cells = any_float | st.integers() | st.booleans() | st.none() | text | numpy_float
csv_rows = st.lists(st.lists(csv_cells, max_size=6).map(tuple), max_size=20)


@settings(max_examples=100, deadline=None)
@given(csv_rows)
@example([("n", "mu", "sigma"), (0, 4.0, 3.0), (1, 2.0, ""), (2, -0.0, math.nan)])
@example([("100%", "%s", '"q"'), (np.float64(0.1), True, None)])
def test_csv_rows_match_the_value_by_value_join(rows):
    assert render_csv(rows) == reference_csv(rows)


def test_csv_accepts_a_generator_of_rows():
    def rows():
        yield "n", "value"
        for n in range(3):
            yield n, n / 3

    assert render_csv(rows()) == reference_csv(list(rows()))
