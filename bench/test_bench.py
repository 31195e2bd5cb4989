"""Tests of the benchmark itself.  Run from the repository root:

    python -m pytest bench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

qfixpoint = run.load_program(ROOT)

import tracing  # noqa: E402
import workloads  # noqa: E402


def first_job(workload, kind, seed=5):
    return next(job for rnd in workloads.make_rounds(workload, seed)
                for job in rnd if job.kind == kind)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_short_run_has_no_failures(workload):
    record = run.end_to_end(ROOT, workload, seed=5, seconds=0.1, min_jobs=1, setup_reps=1)
    assert record["attempted"] >= 1
    assert record["failed"] == 0, record["failures"]
    assert record["extra"]["failed_frac"][0] == 0.0
    assert all(value > 0 for value, _ in record["metrics"].values())


def test_same_seed_gives_same_inputs_and_outputs():
    a = run.warm_up(workloads.make_rounds("certify", 9), "certify")[1]
    b = run.warm_up(workloads.make_rounds("certify", 9), "certify")[1]
    c = run.warm_up(workloads.make_rounds("certify", 10), "certify")[1]
    assert a == b != c


def test_traced_run_reports_every_layer_metric_and_restores_the_program():
    originals = (qfixpoint.cli.main, qfixpoint.solver.state_distance,
                 qfixpoint.reports.AxiomAuditReport.to_dict)
    record = run.traced(ROOT, "certify", seed=5, seconds=0.3)
    assert record["failed"] == 0, record["failures"]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    assert sorted(names) == sorted(record["metrics"])
    for workload in run.WORKLOAD_NAMES:
        assert 0.0 < record["extra"][f"{workload}.self_share_sum"][0] <= 1.0
    assert record["metrics"]["gaussian.state_distance.calls"][0] > 0
    assert 0.0 < record["metrics"]["fuzzy.base_distance.distinct_frac"][0] < 1.0
    assert originals == (qfixpoint.cli.main, qfixpoint.solver.state_distance,
                         qfixpoint.reports.AxiomAuditReport.to_dict)


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    tracer.begin_job("w", "k")
    child = tracer.wrap("m.child", lambda: sum(range(20000)))
    parent = tracer.wrap("m.parent", lambda: child() + child())
    parent()
    calls, total, self_ns, _ = tracer.stats[("w", "k", "m.parent", None)]
    child_total = tracer.stats[("w", "k", "m.child", None)][1]
    assert calls == 1 and self_ns == total - child_total
    assert [s[3] for s in tracer.spans] == ["m.child", "m.child", "m.parent"]
    assert tracer.spans[0][1] == tracer.spans[2][0]   # the child's parent id


def test_quadrature_off_by_1e9_fails():
    job = first_job("oracle", "quadrature-4096")
    out = job.run()
    assert job.check(out) is None
    bad = out.copy()
    bad[0] += 1e-9
    assert "closed form" in job.check(bad)


def test_corrupted_excess_counts_as_failed_in_a_run(monkeypatch):
    rounds = [[job for job in workloads.make_rounds("oracle", 5)[0]
               if job.kind == "interference-excess"]]
    original = qfixpoint.compare.interference_excess_quadrature
    monkeypatch.setattr(qfixpoint.compare, "interference_excess_quadrature",
                        lambda a, b: original(a, b) + 1e-9)
    phase = run.run_jobs(rounds, "oracle", 0, 1)
    assert phase.attempted == len(rounds[0]) and len(phase.failures) == phase.attempted


def test_truncated_json_fails():
    job = first_job("certify", "iterate-json")
    out = job.run()
    assert run.check(job, out) is None
    cut = workloads.CliResult(out.code, out.stdout[: len(out.stdout) // 2], out.stderr)
    assert "not JSON" in run.check(job, cut)


def test_wrong_csv_header_fails():
    job = first_job("certify", "iterate-csv")
    out = job.run()
    assert run.check(job, out) is None
    renamed = workloads.CliResult(out.code, out.stdout.replace("step_distance", "step", 1),
                                  out.stderr)
    assert "header" in run.check(job, renamed)


def test_wrong_exit_code_fails():
    job = first_job("compare", "gv-line")
    out = job.run()
    assert run.check(job, out) is None
    assert "exit code 4" in run.check(job, workloads.CliResult(4, out.stdout, out.stderr))


def test_banach_audit_with_trace_k_at_least_one_expects_exit_2():
    jobs = [job for rnd in workloads.make_rounds("certify", 5) for job in rnd
            if job.kind == "audit-banach"]
    outs = [(job, job.run()) for job in jobs]
    rejected = [(job, out) for job, out in outs if out.code == 2]
    assert rejected and all(run.check(job, out) is None for job, out in outs)
    job, out = rejected[0]
    assert "--k" in out.stderr
    assert run.check(job, workloads.CliResult(0, "{}", "")) is not None


def test_fails_without_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "oracle", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
