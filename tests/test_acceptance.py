"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the whole module completes in well under a minute on one core.
"""

import contextlib
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from qfixpoint.cli import main as cli_main
from qfixpoint.compare import (build_feature_report, interference_excess,
                               interference_excess_quadrature)
from qfixpoint.fuzzy import (TNormKind, audit_tnorm_axioms, audit_tnorm_ordering,
                             fuzzy_fixed_point)
from qfixpoint.gaussian import (GaussianState, audit_metric_axioms, distance_from_params,
                                overlap_quadrature, overlap_quadrature_many,
                                state_distance)
from qfixpoint.solver import (DEFAULT_MAPS, DEFAULT_REGION, DEFAULT_STARTS,
                              analytic_fixed_point, estimate_contraction_factor,
                              iterate_to_fixed_point, verify_banach_bounds)

PROBE = (GaussianState(0, 1), GaussianState(1, 1))


@pytest.fixture(scope="module")
def default_runs():
    """All 5 default maps from all 3 default starts at the default tolerance."""
    return {(m, s): iterate_to_fixed_point(m, s, 1e-12, 10000)
            for m in DEFAULT_MAPS for s in DEFAULT_STARTS}


def test_criterion_01_overlap_oracle_equivalence():
    grid_mu = np.linspace(-10.0, 10.0, 20)
    grid_sigma = np.linspace(0.1, 10.0, 20)
    params = np.stack(np.meshgrid(grid_mu, grid_sigma, indexing="ij"), -1).reshape(-1, 2)
    # the quadrature rule is bitwise symmetric under argument swap (verified
    # below), so the 20^4 ordered grid reduces to unordered pairs
    i, j = np.triu_indices(params.shape[0])
    m1, s1 = params[i, 0], params[i, 1]
    m2, s2 = params[j, 0], params[j, 1]

    rng = np.random.default_rng(0)
    for idx in rng.integers(0, m1.size, 50):
        a = GaussianState(m1[idx], s1[idx])
        b = GaussianState(m2[idx], s2[idx])
        assert overlap_quadrature(a, b) == overlap_quadrature(b, a)

    quad = overlap_quadrature_many(m1, s1, m2, s2)
    ss = s1 * s1 + s2 * s2
    closed = np.sqrt(2.0 * s1 * s2 / ss) * np.exp(-((m1 - m2) ** 2) / (2.0 * ss))
    err = np.abs(quad - closed)
    violations = int(np.count_nonzero(err > 1e-10))
    assert violations == 0
    print(f"\n[acceptance 01] PASS - closed form vs quadrature on 20^4 grid: "
          f"max |err| = {err.max():.3e}, violations = {violations}")


def test_criterion_02_metric_axioms():
    report = audit_metric_axioms(samples=10000, rng_seed=0)
    for check in report.checks:
        assert check.passed, check
    assert report.passed
    print("[acceptance 02] PASS - 10000 random triples: symmetry exact, "
          "identity at exact parameter equality, triangle slack 1e-12")


def test_criterion_03_convergence_and_uniqueness(default_runs):
    worst_fp = worst_pair = 0.0
    for m in DEFAULT_MAPS:
        target = analytic_fixed_point(m)
        limits = []
        for s in DEFAULT_STARTS:
            report = default_runs[(m, s)]
            assert report.converged and report.iterations_used <= 10000
            worst_fp = max(worst_fp, state_distance(report.fixed_point, target))
            limits.append(report.fixed_point)
        # one limit from every start: pairwise within 10 x the tolerance of 1e-12
        pairwise = [state_distance(a, b) for i, a in enumerate(limits) for b in limits[i + 1:]]
        assert max(pairwise) <= 1e-11, (m, pairwise)
        worst_pair = max(worst_pair, *pairwise)
    assert worst_fp <= 1e-10
    print(f"[acceptance 03] PASS - 5 maps x 3 starts converge; "
          f"max distance to analytic fixed point = {worst_fp:.3e}, "
          f"max pairwise distance between limits = {worst_pair:.3e}")


def test_criterion_04_banach_proof_bounds(default_runs):
    for (m, s), report in default_runs.items():
        audit = verify_banach_bounds(report, report.k_estimate)  # slack 1e-12
        assert audit.passed, (m, s, [c for c in audit.checks if not c.passed])
    print("[acceptance 04] PASS - step and tail bounds hold at every index "
          "for all 15 converged runs (k = trace estimate, slack 1e-12)")


def test_criterion_05_contraction_certificates():
    worst = 0.0
    for m in DEFAULT_MAPS:
        k = estimate_contraction_factor(m, DEFAULT_REGION, samples=10000, rng_seed=0)
        assert k < 1.0, m
        worst = max(worst, k)
    print(f"[acceptance 05] PASS - all default maps estimated contractive on "
          f"mu [-5,5] x sigma [0.3,5]; largest estimate = {worst:.15f} "
          f"(a lower bound on the sup ratio, not a certificate)")


def test_criterion_06_tnorm_axioms_and_ordering():
    for kind in TNormKind:
        report = audit_tnorm_axioms(kind, grid_resolution=21)
        assert report.passed, (kind, [c for c in report.checks if not c.passed])
    ordering = audit_tnorm_ordering(21)
    assert ordering.passed
    print("[acceptance 06] PASS - minimum/product/lukasiewicz axioms exhaustive "
          "at resolution 21; ordering lukasiewicz <= product <= minimum holds")


def test_criterion_07_fuzzy_contraction_execution():
    # a converged run on the state carrier, audited on state pairs whose mapped
    # distance is exactly half: at k = 1/2 the condition holds with equality
    m = DEFAULT_MAPS[0]
    trace = iterate_to_fixed_point(m, GaussianState(4, 3), 1e-12, 10000)
    mu, sigma = DEFAULT_REGION.sample(np.random.default_rng(0), (2, 500))
    d = distance_from_params(mu[0], sigma[0], mu[1], sigma[1])
    report = fuzzy_fixed_point(d, 0.5 * d, 0.5, lambda i: (
        GaussianState(mu[0, i], sigma[0, i]), GaussianState(mu[1, i], sigma[1, i])))
    miss = state_distance(trace.fixed_point, analytic_fixed_point(m))
    assert trace.converged
    assert miss <= 1e-10
    assert report.condition.holds
    assert report.condition.max_abs_margin <= 1e-14
    print(f"[acceptance 07] PASS - fuzzy run on the state carrier converges to "
          f"{miss:.3e} of the analytic fixed point; halving condition margins <= "
          f"{report.condition.max_abs_margin:.3e}")


def test_criterion_08_cross_framework_consistency():
    # under the induced membership the fuzzy contraction in the state
    # distance is the Banach iteration, so the report's one trace serves
    # both frameworks; this is why their fixed points agree by construction
    start = GaussianState(4, 3)
    steps = 0
    for m in DEFAULT_MAPS:
        trace, _, _ = build_feature_report(m, start)
        miss = state_distance(trace.fixed_point, analytic_fixed_point(m))
        assert trace.converged and miss < 1e-10, m
        steps += trace.iterations_used
    print(f"[acceptance 08] PASS - one trace serves the fuzzy and quantum frameworks, and "
          f"it reaches the analytic fixed point for all default maps ({steps} steps)")


def test_criterion_09_interference_contrast():
    excess = interference_excess(*PROBE)
    # unit widths, unit separation: overlap = exp(-1/(2*(1+1))) = exp(-1/4)
    expected = 2.0 * math.exp(-0.25)
    assert abs(excess - expected) <= 1e-12
    cross = interference_excess_quadrature(*PROBE)
    assert abs(excess - cross) <= 1e-12
    # the compare document prints the same excess and the fuzzy side's structural 0
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli_main(["compare", "--format", "json"]) == 0
    result = json.loads(out.getvalue())["result"]
    assert result["interference_excess_quantum"] == excess
    assert result["interference_excess_fuzzy"] == 0
    print(f"[acceptance 09] PASS - interference excess = {excess:.12f} (= 2*exp(-1/4), "
          f"quadrature cross-check {abs(excess - cross):.2e}); fuzzy excess = 0")


def test_criterion_10_cli_determinism_and_exit_codes(capsys):
    commands = [
        ["distance", "--a", "0,1", "--b", "2,1", "--quadrature", "--format", "json"],
        ["iterate", "--map", "0.5,0,0.5,0.5", "--start", "4,3", "--format", "json"],
        ["audit", "--target", "tnorm", "--seed", "0", "--format", "json"],
        ["audit", "--target", "gv", "--seed", "0", "--format", "json"],
        ["audit", "--target", "metric-axioms", "--seed", "0", "--format", "json"],
        ["audit", "--target", "banach-bounds", "--seed", "0", "--format", "json"],
        ["compare", "--seed", "0", "--format", "json"],
    ]
    for argv in commands:
        assert cli_main(list(argv)) == 0
        first = capsys.readouterr().out
        assert cli_main(list(argv)) == 0
        second = capsys.readouterr().out
        assert first == second, argv
        json.loads(first)

    run = [sys.executable, "-m", "qfixpoint.cli"]
    reps = {
        0: run + ["distance", "--a", "0,1", "--b", "2,1"],
        2: run + ["distance", "--a", "0,-1", "--b", "0,1"],
        3: run + ["iterate", "--map", "0.99999,0,0.5,0.5", "--start", "4,3",
                  "--max-iter", "10"],
        4: run + ["audit", "--target", "banach-bounds", "--k", "0.1"],
    }
    for expected_code, argv in reps.items():
        proc = subprocess.run(argv, capture_output=True)
        assert proc.returncode == expected_code, (argv, proc.stderr)
    print("[acceptance 10] PASS - byte-identical JSON for 7 seeded commands; "
          "exit codes 0/2/3/4 verified end to end")
