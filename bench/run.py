"""qfixpoint benchmark: oracle, certify and compare workloads.

Run from the root of a source checkout (the directory holding ``src/``):

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

The load is a closed loop: one client in this one process issues the next
job when the previous one has returned.  A run makes whole passes over the
workload's jobs until ``--seconds`` of job time have passed and at least
``MIN_JOBS`` jobs are done; every output is checked between jobs, outside
the timed phase.  Each job's time is the median over its repeats, which
keeps short bursts of load from other processes out of the figures:
``jobs_per_s`` is the number of distinct jobs over the time of one pass at
those medians, and ``job_ms_p50``/``job_ms_p90`` are taken over them.

``--trace 0`` prints the end-to-end metrics of the named workload.
``--trace 1`` traces the three workloads' jobs in turn, starting with the
named one, and prints the per-layer metrics: several layers do work in only
one workload, and every layer metric needs a measured value.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A record of the run, with its
provenance and the sha256 of the outputs of one pass over every job, is
written to ``.bench_out/``.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

MIN_JOBS = 100          # job runs per timed phase, whatever --seconds says
SETUP_REPS = 7          # fresh CLI processes timed per run for setup_s
SETUP_CODE = "import qfixpoint.cli; qfixpoint.cli.build_parser()"
OUT_DIR = ".bench_out"
WORKLOAD_NAMES = ("oracle", "certify", "compare")

# modules whose self time each workload's jobs can reach
REACHED = {
    "oracle": ("gaussian", "compare"),
    "certify": ("cli", "solver", "gaussian", "reports"),
    "compare": ("cli", "compare", "fuzzy", "solver", "gaussian", "reports"),
}

# per-layer numbers from the ROADMAP re-anchor, printed beside the traced values
BASELINES = (
    ("quadrature ns/node at 4096 panels", "quad_ns_per_node_4096", 10.0, 10.0),
    ("state_distance ns/call", "gaussian.state_distance.ns_per_call", 600.0, 600.0),
    ("iteration us/step (total)", "iterate_us_per_step", 2.0, 3.5),
)


@dataclass
class Phase:
    """Outcome of passes over a workload's rounds."""

    times_ns: dict = field(default_factory=lambda: defaultdict(list))  # (round, index) -> times
    failures: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    attempted: int = 0
    elapsed_ns: int = 0
    passes: int = 0

    def job_times(self):
        """Each job's median wall time over its repeats, in ns."""
        return [statistics.median(t) for t in self.times_ns.values()]

    def pass_ns(self):
        """Time of one pass over all jobs at each job's median time."""
        return sum(self.job_times())


def load_program(root):
    """Put ``root/src`` first on the import path and import qfixpoint from it."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "qfixpoint", "cli.py")):
        raise FileNotFoundError(f"no qfixpoint sources under {src}; "
                                "run from the root of a qfixpoint checkout")
    sys.path.insert(0, src)
    import qfixpoint
    if os.path.dirname(os.path.abspath(qfixpoint.__file__)) != os.path.join(src, "qfixpoint"):
        raise ImportError(f"qfixpoint was imported from {qfixpoint.__file__}, not from {src}")
    return qfixpoint


def run_jobs(rounds, workload, seconds, min_jobs, tracer=None, keep_outputs=False):
    """Make whole passes over ``rounds`` until ``seconds`` of job time and ``min_jobs`` jobs.

    Every output is checked right after its job; the checking time is
    excluded from ``elapsed_ns``.
    """
    clock = time.perf_counter_ns
    phase = Phase()
    begin = clock()
    checking = 0
    while True:
        for r, jobs in enumerate(rounds):
            for i, job in enumerate(jobs):
                if tracer is not None:
                    tracer.begin_job(workload, job.kind)
                t0 = clock()
                try:
                    out = job.run()
                except Exception as exc:  # a crashing job is a failed job, not a crashed run
                    out = exc
                t1 = clock()
                phase.times_ns[(r, i)].append(t1 - t0)
                phase.attempted += 1
                if tracer is not None:
                    tracer.end_job(t1 - t0, len(getattr(out, "stdout", "")))
                reason = check(job, out)
                if reason is not None:
                    phase.failures.append(f"{job.kind}: {reason}")
                if keep_outputs:
                    phase.outputs.append(out if not isinstance(out, Exception) else repr(out))
                checking += clock() - t1
        phase.passes += 1
        phase.elapsed_ns = clock() - begin - checking
        if phase.elapsed_ns >= seconds * 1e9 and phase.attempted >= min_jobs:
            return phase


def check(job, out):
    if isinstance(out, Exception):
        return f"raised {type(out).__name__}: {out}"
    try:
        return job.check(out)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"malformed output ({type(exc).__name__}: {exc})"


def warm_up(rounds, workload):
    """One untimed pass; returns it and the sha256 of all its outputs."""
    import workloads
    phase = run_jobs(rounds, workload, 0, 0, keep_outputs=True)
    return phase, workloads.digest(phase.outputs)


def measure_setup(root, reps=SETUP_REPS):
    """Median wall time of fresh processes that import the CLI and build its parser."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    cmd = [sys.executable, "-c", SETUP_CODE]
    samples = []
    for i in range(reps + 1):   # the first launch may write bytecode caches
        t0 = time.perf_counter()
        # no timeout: with one, subprocess polls the child in sleeps of up to 50 ms
        subprocess.run(cmd, cwd=root, env=env, check=True, stdout=subprocess.DEVNULL)
        if i:
            samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def end_to_end(root, workload, seed, seconds, min_jobs=MIN_JOBS, setup_reps=SETUP_REPS):
    """Untraced run of one workload; returns the run record."""
    import workloads
    setup_s = measure_setup(root, setup_reps)
    rounds = workloads.make_rounds(workload, seed)
    warm, sha = warm_up(rounds, workload)
    timed = run_jobs(rounds, workload, seconds, min_jobs)
    per_job = timed.job_times()
    p90 = statistics.quantiles(per_job, n=10, method="inclusive")[-1]
    attempted = warm.attempted + timed.attempted
    failed = len(warm.failures) + len(timed.failures)
    metrics = {
        "jobs_per_s": (len(per_job) / (timed.pass_ns() / 1e9), "1/s"),
        "job_ms_p50": (statistics.median(per_job) / 1e6, "ms"),
        "job_ms_p90": (p90 / 1e6, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    return {
        "attempted": attempted, "failed": failed, "failures": (warm.failures + timed.failures)[:20],
        "metrics": metrics,
        "extra": {"failed_frac": (failed / attempted, "share"),
                  "timed_jobs": (timed.attempted, "count"),
                  "distinct_jobs": (len(per_job), "count"),
                  "passes": (timed.passes, "count"),
                  "jobs_per_s_wall": (timed.attempted / (timed.elapsed_ns / 1e9), "1/s")},
        "outputs_sha256": sha, "digest_jobs": warm.attempted,
    }


def traced(root, first, seed, seconds):
    """Traced run over all three workloads; returns the run record."""
    import tracing
    import workloads
    tracer = tracing.Tracer()
    attempted, failures, overhead = 0, [], {}
    shas = {}
    for name in (first,) + tuple(w for w in WORKLOAD_NAMES if w != first):
        rounds = workloads.make_rounds(name, seed)
        warm, shas[name] = warm_up(rounds, name)
        with tracing.instrument(tracer):
            phase = run_jobs(rounds, name, seconds / len(WORKLOAD_NAMES), 1, tracer)
        plain = run_jobs(rounds, name, 0, phase.attempted)
        overhead[name] = phase.pass_ns() / plain.pass_ns() - 1.0
        for p in (warm, phase, plain):
            attempted += p.attempted
            failures += p.failures
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    tracer.write_spans(os.path.join(root, OUT_DIR, f"spans-{first}-seed{seed}.jsonl"))
    metrics, extra = layer_metrics(tracer, overhead)
    return {"attempted": attempted, "failed": len(failures), "failures": failures[:20],
            "metrics": metrics, "extra": extra, "outputs_sha256": shas[first],
            "spans": len(tracer.spans)}


def layer_metrics(tracer, overhead):
    """Per-layer metrics from the tracer's aggregates."""
    def total(name, kind=None, label=lambda lab: True):
        out = [0, 0, 0, 0]
        for (_, k, n, lab), stat in tracer.stats.items():
            if n == name and (kind is None or k == kind) and label(lab):
                out = [a + b for a, b in zip(out, tracer.corrected(n, stat))]
        return out   # calls, total ns, self ns, units

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    quad = total("gaussian.overlap_quadrature_many")
    nodes = sum(stat[3] * (2 * lab[0] + 1) for (_, _, n, lab), stat in tracer.stats.items()
                if n == "gaussian.overlap_quadrature_many")
    quad4096 = total("gaussian.overlap_quadrature_many", label=lambda lab: lab[0] == 4096)
    single = total("gaussian.overlap_quadrature_many", label=lambda lab: lab[1])
    excess = total("compare.interference_excess_quadrature")
    sd = total("gaussian.state_distance")
    dfp = total("gaussian.distance_from_params")
    it = total("solver.iterate_to_fixed_point")
    banach = total("solver.verify_banach_bounds")
    est = total("solver.estimate_contraction_factor")
    sampler = total("solver.sample_state_pairs")
    cond = total("fuzzy.fuzzy_fixed_point")
    gv_line = total("fuzzy.audit_gv_axioms", kind="gv-line")
    gv_gauss = total("fuzzy.audit_gv_axioms", kind="gv-gaussian")
    report = total("compare.build_feature_report")
    main = total("cli.main")
    parse = [a + b for a, b in zip(total("cli.build_parser"), total("cli.parse_args"))]
    to_dict = total("reports.to_dict")
    render_bytes = sum(tracer.render_bytes.values())

    m = {
        "gaussian.quadrature.pairs": (quad[3], "count"),
        "gaussian.quadrature.nodes": (nodes, "count"),
        "gaussian.quadrature.ns_per_node": (ratio(quad[1], nodes), "ns"),
        "gaussian.quadrature.us_per_single_pair":
            (ratio(single[1] + excess[1], single[0] + excess[0], 1e-3), "us"),
        "gaussian.state_distance.calls": (sd[0], "count"),
        "gaussian.state_distance.ns_per_call": (ratio(sd[1], sd[0]), "ns"),
        "gaussian.distance_from_params.elements": (dfp[3], "count"),
        "gaussian.distance_from_params.ns_per_element": (ratio(dfp[1], dfp[3]), "ns"),
        "solver.iterate.steps": (it[3], "count"),
        "solver.iterate.self_us_per_step": (ratio(it[2], it[3], 1e-3), "us"),
        "solver.banach.us_per_iterate": (ratio(banach[1], banach[3], 1e-3), "us"),
        "solver.estimate.ns_per_sample": (ratio(est[1], est[3]), "ns"),
        "solver.sample_state_pairs.us_per_pair": (ratio(sampler[1], sampler[3], 1e-3), "us"),
        "fuzzy.condition.samples": (cond[3], "count"),
        "fuzzy.condition.self_us_per_sample": (ratio(cond[2], cond[3], 1e-3), "us"),
        "fuzzy.base_distance.calls": (tracer.base_calls, "count"),
        "fuzzy.base_distance.distinct_frac": (ratio(tracer.distinct, tracer.base_calls), "share"),
        "fuzzy.gv_audit.line_ms": (ratio(gv_line[1], gv_line[0], 1e-6), "ms"),
        "fuzzy.gv_audit.gaussian_ms": (ratio(gv_gauss[1], gv_gauss[0], 1e-6), "ms"),
        "compare.build_feature_report.self_ms": (ratio(report[2], report[0], 1e-6), "ms"),
        "cli.parse_us": (ratio(parse[1], main[0], 1e-3), "us"),
        "cli.render.bytes": (render_bytes, "B"),
        "cli.render.ns_per_byte": (ratio(main[2], render_bytes), "ns/B"),
        "cli.render.self_ms": (ratio(main[2], main[0], 1e-6), "ms"),
        "reports.to_dict.us_per_call": (ratio(to_dict[1], to_dict[0], 1e-3), "us"),
    }
    for w in WORKLOAD_NAMES:
        for module in REACHED[w]:
            self_ns = sum(tracer.corrected(n, stat)[2]
                          for (wl, _, n, _), stat in tracer.stats.items()
                          if wl == w and n.split(".")[0] == module)
            m[f"{w}.{module}.self_share"] = (ratio(self_ns, tracer.job_ns[w]), "share")
        m[f"{w}.trace_overhead"] = (overhead[w], "share")
    extra = {
        "quad_ns_per_node_4096": (ratio(quad4096[1], quad4096[3] * 8193), "ns"),
        "iterate_us_per_step": (ratio(it[1], it[3], 1e-3), "us"),
    }
    for w in WORKLOAD_NAMES:
        shares = sum(m[f"{w}.{mod}.self_share"][0] for mod in REACHED[w])
        extra[f"{w}.self_share_sum"] = (shares, "share")
    return m, extra


def provenance(root, workload, seed):
    def command(*argv, **kw):
        try:
            return subprocess.run(argv, cwd=root, capture_output=True, text=True,
                                  timeout=30, **kw).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            return None

    import numpy
    src = os.path.join(root, "src", "qfixpoint")
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    # the checkout need not be a git repository; do not let git look above it
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    return {
        "workload": workload, "seed": seed,
        "git_commit": command("git", "rev-parse", "HEAD", env=git_env),
        "src_sha256": h.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "l2_bytes": command("getconf", "LEVEL2_CACHE_SIZE"),
        "l3_bytes": command("getconf", "LEVEL3_CACHE_SIZE"),
    }


def report(record, trace):
    """Print the human-readable summary and return the final JSON line."""
    for name, (value, unit) in {**record["metrics"], **record["extra"]}.items():
        print(f"  {name:<44} {value:>16.6g} {unit}")
    if trace:
        print("  traced per-layer numbers beside the ROADMAP re-anchor baselines:")
        values = {**record["metrics"], **record["extra"]}
        for text, key, lo, hi in BASELINES:
            v = values[key][0]
            dev = 0.0 if lo <= v <= hi else (v / (lo if v < lo else hi) - 1.0)
            print(f"    {text:<36} {v:10.4g}  baseline {lo:g}-{hi:g}  deviation {dev:+.0%}")
    for reason in record["failures"]:
        print(f"  FAILED {reason}")
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()},
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    try:
        load_program(root)
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

    if args.trace:
        record = traced(root, args.workload, args.seed, args.seconds)
    else:
        record = end_to_end(root, args.workload, args.seed, args.seconds)
    record["provenance"] = provenance(root, args.workload, args.seed)
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    path = os.path.join(root, OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{record['attempted']} jobs, {record['failed']} failed, "
          f"outputs sha256 {record['outputs_sha256']}")
    print("provenance " + json.dumps(record["provenance"]))
    print(report(record, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
