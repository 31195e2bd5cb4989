import json
import math
import subprocess
import sys

import pytest

from qfixpoint.cli import main

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


def test_audit_unknown_target_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["audit", "--target", "bogus"])
    assert exc.value.code == 2


# ------------------------------------------------------------------- compare

def test_compare_defaults_json(capsys):
    code, out = invoke(capsys, "compare", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    res = doc["result"]
    assert res["interference_excess_quantum"] == pytest.approx(2 * math.exp(-0.25), abs=1e-12)
    assert res["interference_excess_fuzzy"] == 0
    frameworks = res["contraction_framework_results"]
    assert frameworks["quantum"]["converged"] and frameworks["fuzzy"]["converged"]
    assert res["agreement_distance"] <= 1e-11
    assert set(res["notes"]) == {"completeness", "phase_sensitivity",
                                 "topological_protection", "conservation_laws"}


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
])
def test_nan_tolerance_exits_2(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "tolerance must be positive" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["distance", "--a", "0,1e-300", "--b", "0,1e300"],
    ["iterate", "--map", "0.5,0,0.5,0.5", "--start", "1e300,3"],
    ["compare", "--start", "1e300,3"],
    ["audit", "--target", "banach-bounds", "--start", "1e300,3"],
])
def test_overflowing_parameters_exit_2(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "overflow" in captured.err
    assert "Traceback" not in captured.err


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
