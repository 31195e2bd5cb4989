"""Seeded job lists for the oracle, certify and compare workloads.

A workload is a list of rounds and a round is a list of jobs.  One job is
one public library call, or one in-process ``qfixpoint.cli.main(argv)`` with
stdout and stderr captured.  Every input, and every job's expected exit
code, is made here from the seed before any timing starts; the program
receives only the generated parameters and argv lists.

A run makes repeated passes over a workload's rounds, so every job runs
several times; the benchmark reports each job's median time.  Each round
has a fixed composition: the properties that set a job's cost (batch size
and panel count for the oracle, contraction rate and output format for the
CLI workloads) are stratified over the round, and the seed draws everything
else.  Runs on different seeds therefore do the same amount of work, so
their timings can be compared.
"""

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import qfixpoint.cli
import qfixpoint.compare
import qfixpoint.gaussian
from qfixpoint.compare import gaussian_parameter_metric, gaussian_state_sampler
from qfixpoint.fuzzy import FuzzyMetric, absolute_difference, audit_gv_axioms, real_line_sampler
from qfixpoint.gaussian import (GaussianState, QuadratureConfig, audit_metric_axioms,
                                overlap_closed_form, state_distance)
from qfixpoint.solver import (AffineGaussianMap, analytic_fixed_point,
                              iterate_to_fixed_point, verify_banach_bounds)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

ORACLE_BATCHES = 16             # batch jobs per oracle round, sizes log-uniform 1..4096
ORACLE_MAX_PAIRS = 4096
ORACLE_EXCESS = 1               # interference_excess_quadrature jobs per oracle round
QUAD_GATE = 1e-10               # |quadrature - closed form|
EXCESS_GATE = 1e-12             # |excess quadrature - 2 * closed form|, acceptance criterion 09

MAX_SCALE = 0.99                # bound on |mu_scale| and sigma_scale
FIXED_POINT_GATE = 1e-9         # state distance from the analytic fixed point
AGREEMENT_GATE = 1e-11
CONDITION_SAMPLES = 2000 * 16   # build_feature_report pairs x fuzzy_fixed_point t samples
CSV_HEADER = "n,mu,sigma,step_distance,a_priori_bound"

CERTIFY_ROUNDS = 8
CERTIFY_TRACES = 16             # trace jobs per certify round
CERTIFY_KINDS = ("iterate-json", "iterate-csv", "iterate-table", "audit-banach")
COMPARE_ROUNDS = 1
COMPARE_REPORTS = 6             # compare jobs per compare round, plus one gv audit per carrier


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


@dataclass
class Job:
    """One timed call.  ``check`` returns None or the reason the output is wrong."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def run_cli(argv):
    """Call ``qfixpoint.cli.main`` in process, looked up at call time."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = qfixpoint.cli.main(list(argv))
        except SystemExit as exc:   # argparse rejects argv by exiting
            code = exc.code
    return CliResult(code, out.getvalue(), err.getvalue())


def output_bytes(output) -> bytes:
    """Canonical bytes of a job output, for the outputs digest."""
    if isinstance(output, CliResult):
        return f"{output.code}\n{output.stdout}\0{output.stderr}\0".encode()
    if isinstance(output, np.ndarray):
        return output.tobytes()
    return float(output).hex().encode()


def digest(outputs) -> str:
    h = hashlib.sha256()
    for output in outputs:
        h.update(output_bytes(output))
    return h.hexdigest()


def _g(x: float) -> str:
    return repr(float(x))


def _state_arg(s: GaussianState) -> str:
    return f"{_g(s.mu)},{_g(s.sigma)}"


# values are passed as --flag=value: argparse takes a separate "-0.5,..." for an option
def _map_arg(m: AffineGaussianMap) -> str:
    return ",".join(_g(v) for v in (m.mu_scale, m.mu_shift, m.sigma_scale, m.sigma_shift))


def _weyl(rng, rounds: int):
    """Stratum offsets v_j = frac(v_0 + j * golden) that spread evenly over the rounds."""
    v0 = rng.random()
    return [(v0 + j * GOLDEN) % 1.0 for j in range(rounds)]


def _box_state(rng) -> GaussianState:
    """A state from the acceptance-grid box mu in [-10, 10], sigma in [0.1, 10]."""
    return GaussianState(rng.uniform(-10.0, 10.0), rng.uniform(0.1, 10.0))


def _random_map(rng, u: float) -> AffineGaussianMap:
    """Affine map whose larger scale is the ``u`` quantile of max(U1, U2) on [0, 0.99].

    |mu_scale| and sigma_scale are each uniform up to 0.99; only the larger
    of the two, which sets the trace length, is stratified.  The fixed point
    is uniform on mu in [-5, 5], sigma in [0.3, 5].  Draws are not filtered.
    """
    hi = MAX_SCALE * math.sqrt(u)
    lo = hi * rng.random()
    mu_scale, sigma_scale = (hi, lo) if rng.random() < 0.5 else (lo, hi)
    if rng.random() < 0.5:
        mu_scale = -mu_scale
    mu_star, sigma_star = rng.uniform(-5.0, 5.0), rng.uniform(0.3, 5.0)
    return AffineGaussianMap(mu_scale, mu_star * (1.0 - mu_scale),
                             sigma_scale, sigma_star * (1.0 - sigma_scale))


def _near(state: GaussianState, target: GaussianState) -> bool:
    return state_distance(state, target) <= FIXED_POINT_GATE


def _expect_code(result, code: int) -> str | None:
    if not isinstance(result, CliResult):
        return f"not a CLI result: {result!r}"
    if result.code != code:
        message = result.stderr.strip().splitlines()[-1:] or [""]
        return f"exit code {result.code}, expected {code}: {message[0][:200]}"
    return None


def _json_result(result, command: str):
    """Parse a CLI JSON document; returns (result dict, None) or (None, reason)."""
    try:
        doc = json.loads(result.stdout)
    except json.JSONDecodeError as exc:
        return None, f"stdout is not JSON: {exc}"
    if not isinstance(doc, dict) or doc.get("command") != command:
        return None, f"not a {command} document"
    return doc["result"], None


# -------------------------------------------------------------------- oracle

def _oracle_batch(rng, pairs: int, panels: int) -> Job:
    mu1, mu2 = rng.uniform(-10.0, 10.0, (2, pairs))
    sg1, sg2 = rng.uniform(0.1, 10.0, (2, pairs))
    cfg = QuadratureConfig(panels=panels)
    closed = np.array([overlap_closed_form(GaussianState(a, b), GaussianState(c, d))
                       for a, b, c, d in zip(mu1, sg1, mu2, sg2)])

    def run():
        return qfixpoint.gaussian.overlap_quadrature_many(mu1, sg1, mu2, sg2, cfg)

    def check(out):
        if not isinstance(out, np.ndarray) or out.shape != closed.shape:
            return f"wrong result shape for {pairs} pairs"
        err = float(np.max(np.abs(out - closed)))
        if not err <= QUAD_GATE:
            return f"|quadrature - closed form| = {err:.3e} > {QUAD_GATE:g} ({panels} panels)"
        return None

    return Job(f"quadrature-{panels}", run, check)


def _oracle_excess(rng) -> Job:
    a, b = _box_state(rng), _box_state(rng)
    expected = 2.0 * overlap_closed_form(a, b)

    def run():
        return qfixpoint.compare.interference_excess_quadrature(a, b)

    def check(out):
        err = abs(float(out) - expected)
        if not err <= EXCESS_GATE:
            return f"|excess - 2*closed form| = {err:.3e} > {EXCESS_GATE:g}"
        return None

    return Job("interference-excess", run, check)


def oracle_rounds(rng):
    """One round: batches at the midpoints of 16 log-uniform size strata, every 4th
    at 16384 panels, and one single-pair interference_excess_quadrature call.

    A pass takes about two seconds, so a run repeats this one round.
    """
    jobs = [_oracle_batch(rng, max(1, round(ORACLE_MAX_PAIRS ** ((i + 0.5) / ORACLE_BATCHES))),
                          16384 if i % 4 == 2 else 4096)
            for i in range(ORACLE_BATCHES)]
    return [jobs + [_oracle_excess(rng) for _ in range(ORACLE_EXCESS)]]


# ------------------------------------------------------------------- certify

def _iterate_job(rng, u: float, fmt: str) -> Job:
    m, start = _random_map(rng, u), _box_state(rng)
    argv = ["iterate", f"--map={_map_arg(m)}", f"--start={_state_arg(start)}", "--format", fmt]
    trace = iterate_to_fixed_point(m, start)
    code = 0 if trace.converged else 3
    steps = trace.iterations_used
    target = analytic_fixed_point(m)

    def check(out):
        bad = _expect_code(out, code)
        if bad or code:
            return bad
        if fmt == "json":
            res, bad = _json_result(out, "iterate")
            if bad:
                return bad
            if res["iterations_used"] != steps or len(res["iterates"]) != steps + 1:
                return f"trace has {len(res['iterates'])} iterates, expected {steps + 1}"
            fp = GaussianState(res["fixed_point"]["mu"], res["fixed_point"]["sigma"])
        elif fmt == "csv":
            lines = out.stdout.splitlines()
            if not lines or lines[0] != CSV_HEADER:
                return f"csv header {lines[:1]!r}, expected {CSV_HEADER!r}"
            if len(lines) != steps + 2:
                return f"csv has {len(lines) - 1} rows, expected {steps + 1}"
            last = lines[-1].split(",")
            fp = GaussianState(float(last[1]), float(last[2]))
        else:
            table = dict(line.split(None, 1) for line in out.stdout.splitlines())
            if int(table.get("iterations_used", -1)) != steps:
                return f"table iterations_used {table.get('iterations_used')}, expected {steps}"
            fp = GaussianState(float(table["fixed_point_mu"]), float(table["fixed_point_sigma"]))
        if not _near(fp, target):
            return f"fixed point ({fp.mu!r}, {fp.sigma!r}) is not within {FIXED_POINT_GATE:g} " \
                   f"of the analytic ({target.mu!r}, {target.sigma!r})"
        return None

    return Job(f"iterate-{fmt}", lambda: run_cli(argv), check)


def _banach_job(rng, u: float) -> Job:
    m, start = _random_map(rng, u), _box_state(rng)
    argv = ["audit", "--target", "banach-bounds", f"--map={_map_arg(m)}",
            f"--start={_state_arg(start)}", "--format", "json"]
    trace = iterate_to_fixed_point(m, start)
    if not trace.converged:
        code = 3
    elif not 0.0 <= trace.k_estimate < 1.0:
        # the CLI passes the trace's own k_estimate to verify_banach_bounds,
        # which rejects k >= 1; the error then names --k, which was not given
        code = 2
    else:
        code = 0 if verify_banach_bounds(trace, trace.k_estimate).passed else 4

    def check(out):
        bad = _expect_code(out, code)
        if bad:
            return bad
        if code == 2:
            return None if "--k" in out.stderr and not out.stdout else "exit 2 without a --k message"
        res, bad = _json_result(out, "audit")
        if bad:
            return bad
        if res["passed"] != (code == 0) or "banach-bounds" not in res["reports"]:
            return "audit document disagrees with its exit code"
        return None

    return Job("audit-banach", lambda: run_cli(argv), check)


def _metric_axioms_job(rng) -> Job:
    seed = int(rng.integers(0, 2**31))
    argv = ["audit", "--target", "metric-axioms", "--seed", str(seed), "--format", "json"]
    code = 0 if audit_metric_axioms(10000, seed).passed else 4

    def check(out):
        bad = _expect_code(out, code)
        if bad:
            return bad
        res, bad = _json_result(out, "audit")
        if bad:
            return bad
        return None if res["passed"] == (code == 0) else "audit document disagrees with its exit code"

    return Job("audit-metric-axioms", lambda: run_cli(argv), check)


def certify_rounds(rng):
    """16 trace jobs over the contraction-rate strata, plus one metric-axioms audit.

    The output formats rotate over the strata from round to round, so each
    format meets every rate.
    """
    rounds = []
    for j, v in enumerate(_weyl(rng, CERTIFY_ROUNDS)):
        jobs = []
        for i in range(CERTIFY_TRACES):
            u = (i + v) / CERTIFY_TRACES
            kind = CERTIFY_KINDS[(i + j) % len(CERTIFY_KINDS)]
            jobs.append(_banach_job(rng, u) if kind == "audit-banach"
                        else _iterate_job(rng, u, kind.split("-")[1]))
        rounds.append(jobs + [_metric_axioms_job(rng)])
    return rounds


# ------------------------------------------------------------------- compare

def _compare_job(rng, u: float) -> Job:
    m, start = _random_map(rng, u), _box_state(rng)
    probe_a, probe_b = _box_state(rng), _box_state(rng)
    seed = int(rng.integers(0, 2**31))
    argv = ["compare", f"--map={_map_arg(m)}", f"--start={_state_arg(start)}",
            f"--probe-a={_state_arg(probe_a)}", f"--probe-b={_state_arg(probe_b)}",
            "--seed", str(seed), "--format", "json"]
    code = 0 if iterate_to_fixed_point(m, start).converged else 3
    target = analytic_fixed_point(m)

    def check(out):
        bad = _expect_code(out, code)
        if bad or code:
            return bad
        res, bad = _json_result(out, "compare")
        if bad:
            return bad
        if not res["agreement_distance"] <= AGREEMENT_GATE:
            return f"agreement_distance {res['agreement_distance']!r} > {AGREEMENT_GATE:g}"
        if res["fuzzy_condition"]["samples"] != CONDITION_SAMPLES:
            return f"condition audit has {res['fuzzy_condition']['samples']} samples, " \
                   f"expected {CONDITION_SAMPLES}"
        fp = res["contraction_framework_results"]["quantum"]["fixed_point"]
        if not _near(GaussianState(fp["mu"], fp["sigma"]), target):
            return "quantum fixed point is not at the analytic fixed point"
        return None

    return Job("compare", lambda: run_cli(argv), check)


def _gv_job(rng, carrier: str) -> Job:
    seed = int(rng.integers(0, 2**31))
    argv = ["audit", "--target", "gv", "--carrier", carrier, "--seed", str(seed),
            "--format", "json"]
    if carrier == "line":
        fm, sampler = FuzzyMetric(base_distance=absolute_difference), real_line_sampler()
    else:
        fm, sampler = gaussian_parameter_metric(), gaussian_state_sampler()
    code = 0 if audit_gv_axioms(fm, sampler, 64, 16, seed).passed else 4

    def check(out):
        bad = _expect_code(out, code)
        if bad:
            return bad
        res, bad = _json_result(out, "audit")
        if bad:
            return bad
        if res["passed"] != (code == 0) or carrier not in res["reports"]:
            return "audit document disagrees with its exit code"
        return None

    return Job(f"gv-{carrier}", lambda: run_cli(argv), check)


def compare_rounds(rng):
    """Six compare reports over the rate strata, plus one gv audit per carrier."""
    rounds = []
    for v in _weyl(rng, COMPARE_ROUNDS):
        jobs = [_compare_job(rng, (i + v) / COMPARE_REPORTS) for i in range(COMPARE_REPORTS)]
        rounds.append(jobs + [_gv_job(rng, "gaussian"), _gv_job(rng, "line")])
    return rounds


WORKLOADS = {"oracle": oracle_rounds, "certify": certify_rounds, "compare": compare_rounds}


def make_rounds(name: str, seed: int):
    return WORKLOADS[name](np.random.default_rng([seed, list(WORKLOADS).index(name)]))
