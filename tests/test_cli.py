import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfixpoint import cli
from qfixpoint.cli import SIZE_LIMITS, SIZE_MINIMA, build_parser, main
from qfixpoint.fuzzy import (FuzzyMetric, absolute_difference, audit_gv_axioms,
                             audit_tnorm_axioms, real_line_sampler)
from qfixpoint.gaussian import GaussianState, audit_metric_axioms
from qfixpoint.solver import AffineGaussianMap, iterate_to_fixed_point

LINE = FuzzyMetric(base_distance=absolute_difference)

RUN = [sys.executable, "-m", "qfixpoint.cli"]


def invoke(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# ------------------------------------------------------------------ distance

def test_distance_table(capsys):
    code, out = invoke(capsys, "distance", "--a", "0,1", "--b", "2,1")
    assert code == 0
    assert "distance" in out
    assert f"{math.sqrt(2 - 2 * math.exp(-1)):.17g}" in out


def test_distance_identical_states(capsys):
    code, out = invoke(capsys, "distance", "--a", "0,1", "--b", "0,1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["distance"] == 0.0
    assert doc["result"]["overlap_closed_form"] == 1.0


def test_distance_quadrature_cross_check(capsys):
    code, out = invoke(capsys, "distance", "--a", "0,1", "--b", "0,2",
                       "--quadrature", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["overlap_closed_form"] == pytest.approx(math.sqrt(0.8), abs=1e-15)
    assert doc["result"]["quadrature_discrepancy"] < 1e-10


@pytest.mark.parametrize("a, b", [
    # the window used to scale with the wide state, so the narrow one fell
    # between the nodes: overlap_quadrature 0.0918 against 0.0141, exit 0
    ("0,0.01", "0,100"),
    ("-3,1e-3", "5,1000"),
    # windows that do not meet: used to print numpy overflow warnings on stderr
    ("0,1e-10", "1e150,1e-10"),
    # windows narrower than one ulp of the centres: used to print 0
    ("1e150,1e-10", "1e150,1e-10"),
    ("0,1", "1,1e-19"),
])
def test_distance_quadrature_holds_at_any_width_ratio(capsys, a, b):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["distance", f"--a={a}", f"--b={b}", "--quadrature", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert json.loads(captured.out)["result"]["quadrature_discrepancy"] <= 1e-10


def test_distance_invalid_sigma_exits_2(capsys):
    code = main(["distance", "--a", "0,-1", "--b", "0,1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "sigma must be positive" in err
    assert "--a" in err


# ------------------------------------------------------------------- iterate

def test_iterate_json_report(capsys):
    code, out = invoke(capsys, "iterate", "--map", "0.5,0,0.5,0.5",
                       "--start", "4,3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "iterate" and doc["version"] == 1
    res = doc["result"]
    assert res["converged"] is True
    assert abs(res["fixed_point"]["mu"]) < 1e-10
    assert abs(res["fixed_point"]["sigma"] - 1.0) < 1e-10
    assert len(res["iterates"]) == res["iterations_used"] + 1
    assert len(res["step_distances"]) == res["iterations_used"]


def test_iterate_constant_map(capsys):
    code, out = invoke(capsys, "iterate", "--map", "0,0,0,1", "--start", "9,9",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["iterations_used"] <= 2


def test_iterate_csv_trace_schema(capsys):
    code, out = invoke(capsys, "iterate", "--map", "0.5,0,0.5,0.5",
                       "--start", "4,3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,mu,sigma,step_distance,a_priori_bound"
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 4.0 and float(first[2]) == 3.0
    # final iterate has no forward step
    assert lines[-1].split(",")[3] == ""


def test_iterate_negative_start_via_equals_form(capsys):
    code, out = invoke(capsys, "iterate", "--map", "0.5,0,0.5,0.5",
                       "--start=-6,0.2", "--format", "json")
    assert code == 0
    assert json.loads(out)["inputs"]["start"]["mu"] == -6.0


def test_iterate_invalid_map_exits_2(capsys):
    code = main(["iterate", "--map", "1.5,0,0.5,0.5", "--start", "1,1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "mu_scale" in err


def test_iterate_budget_exhaustion_exits_3_with_report(capsys):
    code, out = invoke(capsys, "iterate", "--map", "0.99999,0,0.5,0.5",
                       "--start", "4,3", "--max-iter", "10", "--format", "json")
    assert code == 3
    doc = json.loads(out)  # report still emitted
    assert doc["result"]["converged"] is False


# --------------------------------------------------------------------- audit

def test_audit_tnorm_single_kind(capsys):
    code, out = invoke(capsys, "audit", "--target", "tnorm", "--kind", "lukasiewicz")
    assert code == 0
    assert "overall: PASS" in out


def test_audit_tnorm_all_kinds_json(capsys):
    code, out = invoke(capsys, "audit", "--target", "tnorm", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    reports = doc["result"]["reports"]
    assert set(reports) == {"minimum", "product", "lukasiewicz", "ordering"}
    assert all(r["passed"] for r in reports.values())


def test_audit_metric_axioms(capsys):
    code, out = invoke(capsys, "audit", "--target", "metric-axioms",
                       "--samples", "2000", "--seed", "0", "--format", "json")
    assert code == 0
    assert json.loads(out)["result"]["passed"] is True


def test_audit_gv_both_carriers(capsys):
    for carrier in ("line", "gaussian"):
        code, out = invoke(capsys, "audit", "--target", "gv", "--carrier", carrier,
                           "--points", "24", "--format", "json")
        assert code == 0, carrier
        assert json.loads(out)["result"]["passed"] is True


def test_audit_banach_bounds_default_k(capsys):
    code, out = invoke(capsys, "audit", "--target", "banach-bounds", "--format", "json")
    assert code == 0
    assert json.loads(out)["result"]["passed"] is True


def test_audit_banach_bounds_small_k_exits_4(capsys):
    code, out = invoke(capsys, "audit", "--target", "banach-bounds", "--k", "0.1",
                       "--format", "json")
    assert code == 4
    doc = json.loads(out)
    assert doc["result"]["passed"] is False


def test_failing_audit_csv_quotes_the_json_witness_as_one_field(capsys):
    argv = ["audit", "--target", "banach-bounds", "--k", "0.1", "--format"]
    _, text = invoke(capsys, *argv, "csv")
    _, doc = invoke(capsys, *argv, "json")
    rows = list(csv.reader(io.StringIO(text)))
    assert [len(row) for row in rows] == [5] * 3
    checks = json.loads(doc)["result"]["reports"]["banach-bounds"]["checks"]
    assert [json.loads(row[4]) for row in rows[1:]] == [c["witness"] for c in checks]


def test_audit_banach_bounds_estimate_not_below_one_names_missing_k(capsys):
    # this trace's own k_estimate is about 1.15
    code = main(["audit", "--target", "banach-bounds", "--map=0.26,-1.4,0.04,0.1",
                 "--start=3.1,4.6", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: --k was not given") and captured.err.count("\n") == 1
    assert "k_estimate 1.15" in captured.err and "pass --k" in captured.err


def test_audit_banach_bounds_explicit_bad_k_exits_2(capsys):
    code = main(["audit", "--target", "banach-bounds", "--k", "1.5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --k: k must satisfy 0 <= k < 1\n"


def test_audit_unknown_target_exits_2(capsys):
    code = main(["audit", "--target", "bogus"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: argument --target: invalid choice: 'bogus'")
    assert captured.err.count("\n") == 1


# ------------------------------------------------------------------- compare

def test_compare_defaults_json(capsys):
    code, out = invoke(capsys, "compare", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    res = doc["result"]
    assert res["interference_excess_quantum"] == pytest.approx(2 * math.exp(-0.25), abs=1e-12)
    assert res["interference_excess_fuzzy"] == 0
    frameworks = res["contraction_framework_results"]
    assert frameworks["quantum"]["converged"]
    # both rows print the one trace
    assert frameworks["fuzzy"] == {**frameworks["quantum"], "framework": "fuzzy"}
    assert res["agreement_distance"] <= 1e-11
    assert set(res["notes"]) == {"completeness", "phase_sensitivity",
                                 "topological_protection", "conservation_laws"}


def test_compare_json_reports_the_estimated_and_the_clamped_k(capsys):
    # the estimate on the default region is 2.70, so the audit runs at 1 - 1e-12
    code, out = invoke(capsys, "compare", "--map", "0.95,0,0.3,0.2", "--format", "json")
    assert code == 0
    condition = json.loads(out)["result"]["fuzzy_condition"]
    assert list(condition)[:2] == ["k_estimate", "k"]
    assert condition["k_estimate"] == pytest.approx(2.697, abs=1e-3)
    assert condition["k"] == 1.0 - 1e-12
    assert not condition["holds"]


def test_compare_identical_probe(capsys):
    code, out = invoke(capsys, "compare", "--probe-a", "0,1", "--probe-b", "0,1",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["result"]["interference_excess_quantum"] == 2.0


def test_compare_non_convergence_exits_3(capsys):
    code = main(["compare", "--map", "0.99999,0,0.5,0.5", "--max-iter", "10"])
    assert code == 3


# ------------------------------------------------- output contract and files

def test_json_documents_round_trip(capsys):
    for argv in (["distance", "--a", "0,1", "--b", "2,1", "--format", "json"],
                 ["iterate", "--map", "0.5,0,0.5,0.5", "--start", "4,3",
                  "--format", "json"]):
        code, out = invoke(capsys, *argv)
        assert code == 0
        doc = json.loads(out)
        assert json.loads(json.dumps(doc)) == doc
        assert set(doc) == {"command", "inputs", "result", "version"}


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = invoke(capsys, "distance", "--a", "0,1", "--b", "2,1",
                       "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["command"] == "distance"


def test_out_to_unwritable_path_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code = main(["distance", "--a", "0,1", "--b", "2,1", "--out", str(target)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: --out: ") and err.count("\n") == 1
    assert not target.exists()


@pytest.mark.parametrize("argv", [
    ["iterate", "--map", "0.5,0,0.5,0.5", "--start", "4,3", "--tol", "nan",
     "--max-iter", "50"],
    ["compare", "--tol", "nan"],
    ["audit", "--target", "banach-bounds", "--tol", "nan"],
    # no state distance exceeds sqrt(2), so such a tolerance passes every step
    *([*command, "--tol", tol] for tol in ("inf", "1.5") for command in (
        ["iterate", "--map", "0.5,0,0.5,0.5", "--start", "4,3"], ["compare"],
        ["audit", "--target", "banach-bounds"])),
    # main checks --tol for every subcommand that accepts it, whatever the target
    *([*command, "--tol", tol] for tol in ("0", "-1") for command in (
        ["iterate", "--map", "0.5,0,0.5,0.5", "--start", "4,3"], ["compare"],
        ["audit", "--target", "banach-bounds"], ["audit", "--target", "tnorm"])),
    ["audit", "--target", "tnorm", "--tol", "1.5"],
])
def test_nan_tolerance_exits_2(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: --tol: ") and captured.err.count("\n") == 1
    assert ("tolerance must be positive" if argv[argv.index("--tol") + 1] in ("nan", "0", "-1")
            else "tolerance must be below sqrt(2)") in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["distance", "--a", "0,1e-300", "--b", "0,1e300"],
    # the first step's 2*(sigma_a**2 + sigma_b**2) overflows
    ["iterate", "--map", "0.5,0,0.5,0.5", "--start", "0,1e300"],
    ["compare", "--start", "0,1e300"],
    ["audit", "--target", "banach-bounds", "--start", "0,1e300"],
    # 2*(sigma_a**2 + sigma_b**2) overflows, which would put these distinct
    # states at distance 0
    *(["distance", *pair, "--format", fmt] for fmt in ("table", "csv") for pair in (
        ["--a", "0,1e160", "--b", "5e150,1e160"],
        ["--a", "0,1e160", "--b", "0,1.0000001e160"],
        ["--a", "0,0.8e154", "--b", "1e154,0.8e154"])),
    # pi**2*(sigma_a*sigma_b)**2 in the quadrature prefactor overflows: this
    # used to print overlap_quadrature 0 with exit 0 and a RuntimeWarning
    ["distance", "--a", "0,1e77", "--b", "0,1e77", "--quadrature"],
    # refused before the audit prints anything, with --k given
    *(["audit", "--target", "banach-bounds", "--map=0.99,0,0.5,0.5", "--start=0,1e155",
       "--max-iter", "1000000", "--k", "0.999", "--format", fmt] for fmt in ("table", "csv")),
])
def test_overflowing_parameters_exit_2(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "overflow" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    # the unscaled form gives distance 0 or a value 5.6e-6 relative off here
    *(["distance", "--a", "0,1", "--b", b, "--format", fmt]
      for b in ("1e-170,1", "1e-160,1") for fmt in ("table", "json")),
    ["distance", "--a", "0,1e100", "--b", "1e-100,1e100"],
    # the steps shrink into the subnormal range, where a step computed as 0
    # would pass for convergence
    ["iterate", "--map", "0.5,0,0.5,0.5", "--start", "4,3", "--tol", "5e-324"],
    # d = 3.5e-324 rounds up to the smallest subnormal
    ["distance", "--a", "0,1", "--b", "5e-324,1"],
    # d = 3.5e-331 and 3.5e-325 round to 0, which distinct states must not print;
    # they get the smallest subnormal, within an ulp of the reference 0
    ["distance", "--a", "1e-200,1e130", "--b", "1.5e-200,1e130"],
    ["distance", "--a", "0,10", "--b", "5e-324,10", "--format", "json"],
])
def test_near_states_are_computed_by_the_cli(capsys, argv):
    """Near states whose squared differences underflow exit 0 with their distance."""
    mpmath = pytest.importorskip("mpmath")
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    if argv[0] == "iterate":
        # the last step is 5e-324, the smallest subnormal, and meets the tolerance
        assert "iterations_used      1075\n" in captured.out
        assert "final_step_distance  4.9406564584124654e-324\n" in captured.out
        return
    a, b = (tuple(map(float, argv[i].split(","))) for i in (2, 4))
    got = (json.loads(captured.out)["result"]["distance"] if "json" in argv
           else float(captured.out.split()[1]))
    # equal widths: d = |dmu|/(sqrt(2)*sigma) to far below an ulp at these separations
    with mpmath.workdps(40):
        ref = float(abs(mpmath.mpf(a[0]) - mpmath.mpf(b[0])) / (mpmath.sqrt(2) * a[1]))
    assert abs(got - ref) <= math.ulp(ref)


# at width 2e130 the last step, between centres 4e-194 and 4e-195, is about
# 1.3e-324 and rounds to 0; it is computed as the smallest double, which meets --tol
SUBNORMAL_STEP = ["--map", "0.1,0,0.5,1e130", "--start", "4,3", "--tol", "5e-324"]


@pytest.mark.parametrize("argv", [
    ["iterate", *SUBNORMAL_STEP, "--format", "json"],
    ["compare", *SUBNORMAL_STEP],
    ["audit", "--target", "banach-bounds", *SUBNORMAL_STEP],
])
def test_a_step_below_the_smallest_double_converges(capsys, argv):
    """A step between distinct states that jumps below 2**-1075 meets any tolerance."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    if argv[0] == "iterate":
        res = json.loads(captured.out)["result"]
        assert res["converged"] and res["iterations_used"] == 195
        assert res["step_distances"][-1] == 5e-324
    if argv[0] == "audit":
        assert captured.out.endswith("overall: PASS\n")


@pytest.mark.parametrize("argv, code, expected", [
    # (mu_a - mu_b)**2 overflows, but u = inf gives exactly overlap 0 and sqrt(2)
    (["distance", "--a", "0,1", "--b", "1e155,1"], 0,
     "distance             1.4142135623730951\noverlap_closed_form  0\n"),
    # every step is sqrt(2) until the centres come within range; k_estimate is
    # 1.0000000000000002, so the trace has no a-priori bounds
    (["iterate", "--map", "0.5,0,0.5,0.5", "--start", "1e300,3", "--format", "json"], 0,
     '"iterations_used": 1036, "k_estimate": 1.0000000000000002'),
    (["compare", "--start", "1e300,3"], 0, "fuzzy_condition_holds        True\n"),
    # ... and without --k the audit has no factor below 1 to check
    (["audit", "--target", "banach-bounds", "--start", "1e300,3"], 2,
     "error: --k was not given and the trace's k_estimate 1.0000000000000002 is not in "
     "[0, 1); pass --k with 0 <= k < 1\n"),
    # the steps saturate at sqrt(2) above any bound with k = 0.999
    (["audit", "--target", "banach-bounds", "--map=0.99,0,0.5,0.5", "--start=1e155,1",
      "--max-iter", "1000000", "--k", "0.999"], 4,
     "banach-bounds/geometric_step_bound: FAIL (37769 checks)\n"
     '  witness: {"n": 1, "step_distance": 1.4142135623730951, '
     '"bound": 1.4127993488117221}\n'),
    # at a width ratio of 26.7, v/(1 + p) + p rounds above 1; d stops at sqrt(2)
    (["distance", "--a", "0,1", "--b", "111.77695559180432,0.037457759805036794"], 0,
     "distance             1.4142135623730951\noverlap_closed_form  0\n"),
])
def test_far_apart_states_are_computed(capsys, argv, code, expected):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert expected in (captured.err if code == 2 else captured.out)
    assert "Traceback" not in captured.err
    if code != 2:
        assert captured.err == ""
    if argv[0] == "iterate":
        assert '"a_priori_bounds": []' in captured.out


@pytest.mark.parametrize("argv", [
    ["distance", "--a", "0,1e-200", "--b", "0,1e-200"],
    ["distance", "--a", "0,1e-200", "--b", "1,1e-200"],
    ["iterate", "--map", "0.5,0,0.5,1e-300", "--start", "0,1e-300"],
    # (sigma_a*sigma_b)**2 in the quadrature prefactor is zero or subnormal:
    # these used to print inf, and an overlap 3.8e-6 off, with exit 0
    ["distance", "--a", "0,1e-150", "--b", "0,1e-150", "--quadrature"],
    ["distance", "--a", "0,1e-80", "--b", "0,1e-80", "--quadrature"],
    # sigma_a*sigma_b in the overlap prefactor is subnormal: this used to print an
    # interference excess 4.9e-5 relative off, with exit 0
    ["compare", "--probe-a", "0,3e-160", "--probe-b", "1e-159,1e-160"],
    # sigma_a**2 + sigma_b**2 is subnormal: d = 0.4595 used to be refused as too
    # close to resolve, and identical such states printed distance 0
    ["distance", "--a", "0,1e-160", "--b", "0,2e-160"],
    ["distance", "--a", "0,1e-160", "--b", "0,1e-160"],
])
def test_underflowing_widths_exit_2(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: the inputs underflow double-precision arithmetic; "
                            "use larger widths\n")


@pytest.mark.parametrize("argv, message", [
    # used to print overflow warnings and an overlap of 9.18e295 with exit 0
    *((["distance", "--a", "0,1", "--b", "0,1", "--quadrature", "--half-width", "1e300",
        "--format", fmt], "--half-width/--panels: half_width_sigmas must be between 8 and 40")
      for fmt in ("table", "csv")),
    # numpy's refusal used to name no flag
    *(([*command, "--seed", "-1"], "--seed: must be non-negative") for command in (
        ["compare"], ["audit", "--target", "metric-axioms"], ["audit", "--target", "gv"])),
    # the library's refusals used to name no flag
    *(([*command, "--max-iter", "0"], "--max-iter: must be at least 1") for command in (
        ["compare"], ["audit", "--target", "banach-bounds"])),
])
def test_out_of_range_option_exits_2_naming_it(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


# main checks the size options, --seed and --tol whatever the audit target reads
@pytest.mark.parametrize("option, message", [
    (["--resolution", "3"], "--resolution: must be at least 5"),
    (["--points", "5"], "--points: must be at least 10"),
    (["--t-samples", "4"], "--t-samples: must be at least 5"),
    (["--samples", "0"], "--samples: must be at least 1"),
    (["--max-iter", "0"], "--max-iter: must be at least 1"),
    (["--seed=-1"], "--seed: must be non-negative"),
    (["--tol", "0"], "--tol: tolerance must be positive"),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_tnorm_audit_checks_the_options_it_ignores(capsys, option, message):
    code = main(["audit", "--target", "tnorm", *option])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_only_banach_bounds_parses_map_start_and_k(capsys):
    # the other targets never read these three options, so they are not checked there
    _, want = invoke(capsys, "audit", "--target", "tnorm")
    for option in (["--k", "1.5"], ["--start=0,-1"], ["--map", "1,0,0,1"]):
        assert invoke(capsys, "audit", "--target", "tnorm", *option) == (0, want)
        assert main(["audit", "--target", "banach-bounds", *option]) == 2
        assert capsys.readouterr().err.startswith(f"error: {option[0].split('=')[0]}")


def _limit_argv(flag, value):
    command = {"--panels": ["distance", "--a", "0,1", "--b", "1,1", "--quadrature"],
               "--resolution": ["audit", "--target", "tnorm"],
               "--samples": ["audit", "--target", "metric-axioms"],
               "--points": ["audit", "--target", "gv"],
               "--t-samples": ["audit", "--target", "gv"],
               "--max-iter": ["iterate", "--map", "0.99999,0,0.5,0.5", "--start", "4,3"]}
    return [*command[flag], flag, str(value)]


@pytest.mark.parametrize("flag", sorted(SIZE_LIMITS))
@pytest.mark.parametrize("excess", [1, 10**30])
def test_size_options_above_their_limit_exit_2(capsys, flag, excess):
    limit = SIZE_LIMITS[flag]
    tracemalloc.start()
    try:
        code = main(_limit_argv(flag, limit + excess))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {flag}: must be at most {limit}\n"
    assert peak < 2**20  # rejected before any work
    # and below the lower limit, where the library's message named no flag
    if flag in SIZE_MINIMA:
        low = SIZE_MINIMA[flag]
        assert main(_limit_argv(flag, low - excess)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag}: must be at least {low}\n"


# the library call behind each flag of SIZE_MINIMA, and its own refusal below the minimum
LIBRARY_MINIMA = {
    "--resolution": (lambda n: audit_tnorm_axioms("product", n),
                     "grid_resolution must be at least 5"),
    "--points": (lambda n: audit_gv_axioms(LINE, real_line_sampler(), n, 5),
                 "point_samples must be at least 10"),
    "--t-samples": (lambda n: audit_gv_axioms(LINE, real_line_sampler(), 10, n),
                    "t_samples must be at least 5"),
    "--samples": (audit_metric_axioms, "samples must be positive"),
    "--max-iter": (lambda n: iterate_to_fixed_point(
        AffineGaussianMap(0.5, 0.0, 0.5, 0.5), GaussianState(4, 3), max_iterations=n),
        "max_iterations must be at least 1"),
}


@pytest.mark.parametrize("flag", sorted(SIZE_MINIMA))
def test_size_minima_restate_the_library_minima(flag):
    # SIZE_MINIMA repeats these minima so that the message names the flag
    call, message = LIBRARY_MINIMA[flag]
    with pytest.raises(ValueError, match=message):
        call(SIZE_MINIMA[flag] - 1)
    call(SIZE_MINIMA[flag])


def test_size_limits_admit_the_defaults():
    parser = build_parser()
    for argv in ("distance --a 0,1 --b 1,1", "iterate --map 0.5,0,0.5,0.5 --start 4,3",
                 "compare", "audit --target tnorm"):
        args = parser.parse_args(argv.split())
        for flag, limit in SIZE_LIMITS.items():
            value = getattr(args, flag[2:].replace("-", "_"), None)
            assert value is None or SIZE_MINIMA.get(flag, value) <= value <= limit


def test_main_ignores_a_later_rebinding_of_build_parser(capsys, monkeypatch):
    # main builds its parser once, through a cache bound at import; the
    # benchmark's tracer rebinds cli.build_parser, which must not reach main
    def outcome(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    argvs = (["iterate", "--map", "0.5,0,0.5,0.5", "--start", "4,3"], ["iterate"])
    first = [outcome(argv) for argv in argvs]

    def refuse():
        raise AssertionError("main rebuilt its parser")

    monkeypatch.setattr(cli, "build_parser", refuse)
    assert [outcome(argv) for argv in argvs] == first
    assert first[0][0] == 0 and first[1][0] == 2
    assert build_parser() is not build_parser()


# ---------------------------------------------------------------- argv fuzz

BAD = ["nan", "inf", "-inf", "-1", "0", "1e-200", "1e-300", "1e300", "-1e300", "x"]
HUGE = ["1000001", "99999999999999999999", "1e300"]


def _tokens(*good):
    return st.one_of(st.sampled_from(good), st.sampled_from(BAD))


def _sizes(lo, hi):
    # valid sizes stay small so an example takes milliseconds
    return st.one_of(st.integers(lo, hi).map(str), st.sampled_from([*BAD, *HUGE]))


def _joined(*parts):
    """Comma-joined values: all drawn from the good ones, or each from all."""
    good = [st.sampled_from(p) for p in parts]
    mixed = [_tokens(*p) for p in parts]
    return st.one_of(st.tuples(*good), st.tuples(*mixed)).map(",".join)


STATE = st.one_of(_joined(("0", "1.5", "-2", "4"), ("1", "0.5", "3")),
                  st.sampled_from(["1", "1,2,3", ""]))
MAP = _joined(("0.5", "-0.5", "0", "0.9", "1.5"), ("0", "1", "-2"), ("0.5", "0", "0.9", "1"),
              ("0.5", "1", "0.2"))
TOL = _tokens("1e-12", "1e-6", "0.1")
SEED = st.one_of(st.integers(0, 10**6).map(str), st.sampled_from(BAD))
FLAGS = {
    "distance": {"--a": STATE, "--b": STATE, "--quadrature": st.just(None),
                 "--half-width": _tokens("6", "10", "12", "5"),
                 "--panels": st.sampled_from(["64", "256", "63", "65", "1048578",
                                              *BAD, *HUGE])},
    "iterate": {"--map": MAP, "--start": STATE, "--tol": TOL, "--max-iter": _sizes(1, 200)},
    "audit": {"--target": st.sampled_from(["tnorm", "gv", "metric-axioms",
                                           "banach-bounds", "bogus"]),
              "--kind": st.sampled_from(["minimum", "product", "lukasiewicz", "all"]),
              "--carrier": st.sampled_from(["line", "gaussian"]),
              "--resolution": _sizes(5, 21), "--points": _sizes(10, 64),
              "--t-samples": _sizes(5, 16), "--samples": _sizes(1, 2000), "--seed": SEED,
              "--map": MAP, "--start": STATE, "--tol": TOL, "--max-iter": _sizes(1, 200),
              "--k": _tokens("0.1", "0.5", "0.9", "1", "1.5")},
    "compare": {"--map": MAP, "--start": STATE, "--probe-a": STATE, "--probe-b": STATE,
                "--tol": TOL, "--max-iter": _sizes(1, 200), "--seed": SEED},
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command, "--format", draw(st.sampled_from(["json", "csv", "table"]))]
    required = {"distance": ("--a", "--b"), "iterate": ("--map", "--start"),
                "audit": ("--target",)}.get(command, ())
    for flag, values in FLAGS[command].items():
        if flag in required or draw(st.booleans()):
            value = draw(values)
            argv.append(flag if value is None else f"{flag}={value}")
    return argv


@settings(max_examples=300, deadline=None)
@given(argvs())
def test_every_argv_ends_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err
    if code == 2:
        assert out == "" and err
    if err:
        assert err.startswith("error: ") and err.count("\n") == 1
    if argv[2] == "csv" and out:
        rows = list(csv.reader(io.StringIO(out)))
        assert {len(row) for row in rows} == {len(rows[0])}


def test_identical_invocations_byte_identical(capsys):
    argv = ["compare", "--seed", "0", "--format", "json"]
    _, first = invoke(capsys, *argv)
    _, second = invoke(capsys, *argv)
    assert first == second


def test_exit_codes_end_to_end():
    ok = subprocess.run(RUN + ["distance", "--a", "0,1", "--b", "2,1"],
                        capture_output=True)
    assert ok.returncode == 0
    bad = subprocess.run(RUN + ["distance", "--a", "0,-1", "--b", "0,1"],
                         capture_output=True)
    assert bad.returncode == 2
    assert b"sigma must be positive" in bad.stderr


def _one_error_line(proc, message):
    assert proc.returncode == 2
    assert proc.stderr.decode().splitlines() == [message]


def test_closed_stdout_exits_2_with_one_error_line():
    # with fd 1 closed at startup, Python's sys.stdout is None
    argv = shlex.join(RUN + ["distance", "--a", "0,1", "--b", "1,1"])
    proc = subprocess.run(["sh", "-c", f"exec {argv} >&-"], stderr=subprocess.PIPE)
    _one_error_line(proc, "error: stdout: not open")


def test_broken_pipe_on_stdout_exits_2_with_one_error_line():
    # the pipe's read end is closed before the command starts, so every write fails
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(RUN + ["compare"], stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    _one_error_line(proc, "error: stdout: [Errno 32] Broken pipe")


# ------------------------------------------------------------- pinned bytes

# sha256 of f"{exit code}\0{stdout}\0{stderr}" for each argv + "--format FMT",
# taken before the output layer was rewritten (numpy 2.4.6, x86-64 Linux); a
# different libm or numpy may move the last printed digit of some floats.  The
# three compare json digests were re-taken when fuzzy_condition gained the
# estimated and the audited contraction factor, the three distance-quadrature
# digests when the oracle moved to the states' shared window at 128 panels
# (the overlap's last digit), and distance-json with them, because its inputs
# echo the default panel count.  compare-json was re-taken again when the
# distance took its prefactor from the width product (the last two digits of
# k_estimate and k, and the condition audit's margins).  audit-banach-k0.1-csv
# was re-taken when the csv witness became the json witness text quoted as one
# field, its floats at 17 significant digits.  The six compare csv and table
# digests and audit-banach-k0.1-table were re-taken when each table came to
# print the csv rows by the csv cell rule and an audit witness as its json
# text: compare's table lists the fixed points as four 17-digit rows instead
# of two .12g tuples, its csv gained the fuzzy_condition_holds row, and the
# audit table's witness is json instead of a Python dict repr.  The six audit-gv
# digests were re-taken when the gv audit dropped its zero_at_t0 and
# continuity_in_t checks, which no base distance can fail; every other line of
# those outputs is unchanged.  The three compare json digests were re-taken when
# the condition audit moved from random t draws to one fixed log-spaced grid over
# T_RANGE: max_abs_margin, and for compare-witness the violation count, the
# min_margin and the witness, changed; every other value is unchanged.
GOLDEN_ARGVS = {
    "distance": ["distance", "--a", "0,1", "--b", "2,1"],
    "distance-quadrature": ["distance", "--a", "0,1", "--b", "0.5,2", "--quadrature"],
    "iterate": ["iterate", "--map", "0.5,0,0.5,0.5", "--start", "4,3"],
    "iterate-constant": ["iterate", "--map", "0,0,0,1", "--start", "9,9"],
    "iterate-budget": ["iterate", "--map", "0.99999,0,0.5,0.5", "--start", "4,3",
                       "--max-iter", "10"],
    "audit-tnorm": ["audit", "--target", "tnorm"],
    "audit-gv-line": ["audit", "--target", "gv", "--carrier", "line"],
    "audit-gv-gaussian": ["audit", "--target", "gv", "--carrier", "gaussian"],
    "audit-metric-axioms": ["audit", "--target", "metric-axioms"],
    "audit-banach": ["audit", "--target", "banach-bounds"],
    "audit-banach-k0.1": ["audit", "--target", "banach-bounds", "--k", "0.1"],
    "audit-banach-k1.5": ["audit", "--target", "banach-bounds", "--k", "1.5"],
    "compare": ["compare"],
    "compare-seed3": ["compare", "--map=0.8,0.1,0.8,0.9", "--seed", "3"],
    "compare-witness": ["compare", "--map", "0.95,0,0.3,0.2"],
    "negative-sigma": ["distance", "--a", "0,-1", "--b", "0,1"],
    "nan-tolerance": ["iterate", "--map", "0.5,0,0.5,0.5", "--start", "4,3", "--tol", "nan"],
}

GOLDEN_DIGESTS = {
    "distance-json": "4e26ed40b682168bb911763eedb10912b165f031e645b4a12788b58ea64843d8",
    "distance-csv": "279f34bcb026bcf985f04539d2725568e20d009bc875e7ff7c20458d22d8342c",
    "distance-table": "65d47f73170e9a3f04e330f87e2c219cdaab6634fde4eb57d40989b54f29abe8",
    "distance-quadrature-json": "ae4de583c1f346565f2b925451613eccd5bc3281875726b270285e7e09691305",
    "distance-quadrature-csv": "850820aae68acf4f5d6dd55535c1a78424eb81fdb6bb761f03234f21043a1c38",
    "distance-quadrature-table": "b785c05c5bd0d1ea1ed996126fca267ccc5f42df813d04e40b123adf7847a168",
    "iterate-json": "feae2ad44e83a3ed5881821f0fc08878b288a269ccd9bbbf4e6088994731212b",
    "iterate-csv": "7641de3b1ac005da6c1abfa3a64c0c476959c96f2f1b87cc88d9152f2ade2c13",
    "iterate-table": "c8a7a45c2f0c288c9147e7e947697e84885133fb012f851cc9900eebabd80ea0",
    "iterate-constant-json": "4851920ed5cb547343f882ff3b73cb0842032b47aedbe9dfc3292b3935a124f0",
    "iterate-constant-csv": "801ae7c7ad4d737abff75eab5f89cb82d3f2631584cfe47f8de3527936b3aef0",
    "iterate-constant-table": "fade6db10296717590c1f0840d6fba8685d0836e81343c3b0af65457d44c4689",
    "iterate-budget-json": "27599d9b4aedab8a118252586dcf8813af7c6ea2bfce8d0ec2123a139306e108",
    "iterate-budget-csv": "5cac88fcfa17873fff140203388a369e6f4db44638bb164f14cbf3592a254b95",
    "iterate-budget-table": "7d34b112631532c22593c8c3a64e359bb037e0a799fefff3325f7cdce6858e1f",
    "audit-tnorm-json": "8b596df213b187014438e1abd7cf9e353761e877323c460ca390e19919603a17",
    "audit-tnorm-csv": "f226aa3a1d0feb2d3bc97f06477fb96a0af81110afc57e0fc6eb3a744a36092a",
    "audit-tnorm-table": "e7aac4b59db44798a3a1f07dd5155a433d24797457c41207a86ac37e088aa438",
    "audit-gv-line-json": "4a9eba78aae443848018c31b27a3b047edbf52583558dd9855bbd0242e7d0036",
    "audit-gv-line-csv": "9a1644757d854611d524ef42d9270c967f8a11cbd357cf461c9d7118f6a1eb9f",
    "audit-gv-line-table": "12e2832027d2040f562bfd2172ade7890d76b58fc8d2b03100720287542f50bb",
    "audit-gv-gaussian-json": "f0b9191796beb30f93f624aa65c6409161a2ca475521113bafd59f2266c74e00",
    "audit-gv-gaussian-csv": "85d4f4085c2ee531d13722199001378ebd52eac0d589eb207cb6778f9a406b22",
    "audit-gv-gaussian-table": "ddf4f54e768cb0e0d68885d4bff8fd7d19d2b1258e37dbb0fcbab481fd5eaa45",
    "audit-metric-axioms-json": "7edb6a9fe38114de4a0294915dcf0cdcc52e050ae52c93a387be88261cb2ea8a",
    "audit-metric-axioms-csv": "e7f770847ff8abe44e02d83d3ea97ed2268ce66c691ea8ec0655ef5a3e8bd77c",
    "audit-metric-axioms-table": "063ee987ba330d1f4a12168fe74f6881c761d0f78faf9e10f4a6143537b15418",
    "audit-banach-json": "45f92d988b33bed65cbd0b813396f54b8f33a4b5da41f0b3a1402e30af410855",
    "audit-banach-csv": "665e480daf66326e0f03f64f3c84eec30348fcfa59898a3fc21e7f759cbec8c3",
    "audit-banach-table": "fb81d44af60cc8459b281cd488dd0c9e8a3f4458b3b16a94936c1fca5efb5f9a",
    "audit-banach-k0.1-json": "fecd109406183151942a07e5fabbb4497072495d07747cf97725dbcc63843f39",
    "audit-banach-k0.1-csv": "5ebe80c249b49427ff187c0aa84cc3bb23225b809db90b51448f2c1cabcfc3f0",
    "audit-banach-k0.1-table": "6609af7302118db40fe3c16b50dcfc4fdf6820b3a9097114f770d9a71cdc2628",
    "audit-banach-k1.5-json": "1c068c04551ecd439386df6a756b4f61289cf5a44a55211a058ce0f5630d520c",
    "audit-banach-k1.5-csv": "1c068c04551ecd439386df6a756b4f61289cf5a44a55211a058ce0f5630d520c",
    "audit-banach-k1.5-table": "1c068c04551ecd439386df6a756b4f61289cf5a44a55211a058ce0f5630d520c",
    "compare-json": "2500942cdfc28d3f14accddfaa45df9b71e316a7aa8b1be3a44b70589f3a34c2",
    "compare-csv": "5bedf00427676db78c017f9abe63ae756b800f9523c63e3ad334dee32e43453b",
    "compare-table": "2d1d5d847112e80f5235efc497e4fe3ecb97ebce3c70080f6be273ccdf0f0956",
    "compare-seed3-json": "52e26b3ee7182109fc174a6554825dd46fc1d1cfa6ecbb1bc1c1be59eb4dc9f7",
    "compare-seed3-csv": "34c4b7be8dc9a468195976a43e8f9f17a3c7d332595484c02d5f814f0c42aa87",
    "compare-seed3-table": "a1d18242a7cab745c1b5501b2716fa48a654714b58b97fae395196da672cf8bd",
    "compare-witness-json": "31d8802def47b6b63ee5522203b39b9ce5c82fc4715c3ade2ba38adeb7b281e1",
    "compare-witness-csv": "3ab89d8f6d340d3c70c5d56c4c38fea951dc7269cea808e9e19b428739450e3e",
    "compare-witness-table": "0b5aab587bdc8ef0d6a6ccbe205e0ac1cec84670bd1126beffe209bd556228c3",
    "negative-sigma-json": "bfa39869f8e463ae20f25bb343376b40c6f60c43a1f5b97efbf54ba85fccbc6e",
    "negative-sigma-csv": "bfa39869f8e463ae20f25bb343376b40c6f60c43a1f5b97efbf54ba85fccbc6e",
    "negative-sigma-table": "bfa39869f8e463ae20f25bb343376b40c6f60c43a1f5b97efbf54ba85fccbc6e",
    "nan-tolerance-json": "4431f3560eec6f47b8ccb05e7380349c495c1693b1e1035477ac9383a927da0a",
    "nan-tolerance-csv": "4431f3560eec6f47b8ccb05e7380349c495c1693b1e1035477ac9383a927da0a",
    "nan-tolerance-table": "4431f3560eec6f47b8ccb05e7380349c495c1693b1e1035477ac9383a927da0a",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_DIGESTS))
def test_output_bytes_are_pinned(capsys, case):
    name, fmt = case.rsplit("-", 1)
    code = main([*GOLDEN_ARGVS[name], "--format", fmt])
    captured = capsys.readouterr()
    blob = f"{code}\0{captured.out}\0{captured.err}".encode()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_DIGESTS[case]


def test_a_table_prints_the_csv_cells_and_the_json_witness_text(capsys):
    # a table's key/value lines are the csv rows, value text included
    for name in ("distance", "distance-quadrature", "compare", "compare-seed3",
                 "compare-witness"):
        _, table = invoke(capsys, *GOLDEN_ARGVS[name], "--format", "table")
        _, text = invoke(capsys, *GOLDEN_ARGVS[name], "--format", "csv")
        lines = table.split("note[")[0].splitlines()
        assert [line.split() for line in lines] == list(csv.reader(io.StringIO(text)))[1:]
    # an audit table's witness is the json document's witness text
    argv = GOLDEN_ARGVS["audit-banach-k0.1"]
    _, table = invoke(capsys, *argv, "--format", "table")
    _, doc = invoke(capsys, *argv, "--format", "json")
    witnesses = [json.loads(line.removeprefix("  witness: "))
                 for line in table.splitlines() if line.startswith("  witness: ")]
    checks = json.loads(doc)["result"]["reports"]["banach-bounds"]["checks"]
    assert witnesses == [c["witness"] for c in checks] and len(witnesses) == 2
