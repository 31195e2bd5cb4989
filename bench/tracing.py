"""Span tracing of qfixpoint's layers from outside the package.

``instrument`` replaces public functions at the module attributes their
callers look them up through (``qfixpoint.solver.state_distance``,
``qfixpoint.cli.build_feature_report``, ...) with wrappers that record a
span per call, and restores the originals on exit.  Spans nest from
``cli.main`` down to the ``gaussian`` kernels, so a span's self time is its
duration minus the time its child spans cover.

Every call is added to an aggregate keyed by (workload, job kind, span
name, label).  Full span records (id, parent id, job id, name, start, end)
are kept in memory for every span except the scalar ``state_distance``,
which runs tens of thousands of times per job: it gets a cheaper leaf
wrapper that only aggregates.  The fuzzy base distance is counted, not
timed, so that the distinct-argument ratio costs no clock reads.

Each wrapper's own clock overhead, measured on a no-op at start-up, is
subtracted from the durations it reports (``Tracer.bias_ns``).
"""

import contextlib
import dataclasses
import functools
import inspect
import json
import time
from collections import defaultdict

import numpy as np

CALIBRATION_CALLS = 20000
LEAVES = frozenset({"gaussian.state_distance"})


class Tracer:
    """Collects spans and per-span aggregates for the jobs of a traced run."""

    def __init__(self):
        self.clock = time.perf_counter_ns
        self.stack = []          # open frames: [span id, child ns]
        self.spans = []          # (id, parent id, job id, name, start ns, end ns)
        self.stats = defaultdict(lambda: [0, 0, 0, 0])  # calls, total ns, self ns, units
        self.job_ns = defaultdict(int)       # workload -> summed job wall time
        self.render_bytes = defaultdict(int)  # workload -> CLI stdout bytes
        self.base_calls = 0      # fuzzy base-distance calls
        self.distinct = 0        # distinct base-distance argument pairs, summed per job
        self.pairs = []          # this job's base-distance arguments
        self.workload = None
        self.kind = None
        self.job_id = 0
        self.next_id = 0
        self.bias_ns = self._calibrate()

    def _calibrate(self):
        """Mean duration each kind of wrapper reports for a no-op, in ns."""
        def nop(a=None, b=None):
            return None
        bias = {}
        for make in (self.wrap, self.leaf):
            traced = make("calibration", nop)
            for _ in range(CALIBRATION_CALLS):
                traced(None, None)
            stat = self.stats.pop((None, None, "calibration", None))
            bias[make.__name__] = stat[1] / stat[0]
        self.spans.clear()
        return bias

    def begin_job(self, workload, kind):
        self.workload, self.kind = workload, kind
        self.job_id += 1
        self.pairs.clear()

    def end_job(self, wall_ns, stdout_bytes):
        self.job_ns[self.workload] += wall_ns
        self.render_bytes[self.workload] += stdout_bytes
        # hashed here, after the job's clock has stopped
        self.base_calls += len(self.pairs)
        self.distinct += len(set(self.pairs))
        self.pairs.clear()

    def wrap(self, name, fn, units=None, label=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``units(args, kwargs, result)`` gives the work count added to the
        aggregate; ``label(args, kwargs)`` splits the aggregate further.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            tracer.next_id += 1
            frame = [tracer.next_id, 0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            done = False
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = tracer.clock()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                key = (tracer.workload, tracer.kind, name,
                       None if label is None else label(args, kwargs))
                stat = tracer.stats[key]
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[1]
                if units is not None and done:
                    stat[3] += units(args, kwargs, result)
                tracer.spans.append((frame[0], None if parent is None else parent[0],
                                     tracer.job_id, name, start, end))

        return traced

    def leaf(self, name, fn):
        """Cheaper span for a two-argument kernel that calls nothing traced."""
        tracer = self
        clock = self.clock

        @functools.wraps(fn)
        def traced(a, b):
            start = clock()
            result = fn(a, b)
            dur = clock() - start
            if tracer.stack:
                tracer.stack[-1][1] += dur
            stat = tracer.stats[(tracer.workload, tracer.kind, name, None)]
            stat[0] += 1
            stat[1] += dur
            stat[2] += dur
            return result

        return traced

    def base_distance(self, fn):
        """Record the argument pairs of a fuzzy base distance, untimed."""
        note = self.pairs.append

        @functools.wraps(fn)
        def counted(x, y):
            note((x, y))
            return fn(x, y)

        return counted

    def corrected(self, name, stat):
        """(calls, total ns, self ns, units) less the wrapper's own clock overhead."""
        bias = stat[0] * self.bias_ns["leaf" if name in LEAVES else "wrap"]
        return [stat[0], max(0.0, stat[1] - bias), max(0.0, stat[2] - bias), stat[3]]

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, parent, job, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "job": job,
                                     "name": name, "start_ns": start, "end_ns": end}) + "\n")


def _bound(fn):
    sig = inspect.signature(fn)

    def arguments(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments
    return arguments


@contextlib.contextmanager
def instrument(tracer):
    """Install span wrappers on qfixpoint's module attributes; restore on exit."""
    from qfixpoint import cli, compare, gaussian, reports, solver

    quad_args = _bound(gaussian.overlap_quadrature_many)

    def quad_label(args, kwargs):
        a = quad_args(args, kwargs)
        cfg = a["cfg"] if a["cfg"] is not None else gaussian.DEFAULT_QUADRATURE
        return cfg.panels, np.size(a["mu1"]) == 1

    def quad_pairs(args, kwargs, result):
        return result.size

    def elements(args, kwargs, result):
        return result.size

    def steps(args, kwargs, result):
        return result.iterations_used

    def iterates(args, kwargs, result):
        return len(args[0].iterates)

    estimate_args = _bound(solver.estimate_contraction_factor)

    def estimate_samples(args, kwargs, result):
        return estimate_args(args, kwargs)["samples"]

    def pairs(args, kwargs, result):
        return len(result)

    def condition_samples(args, kwargs, result):
        return result.condition.samples

    def traced_metric(original):
        @functools.wraps(original)
        def metric(*args, **kwargs):
            fm = original(*args, **kwargs)
            return dataclasses.replace(fm, base_distance=tracer.base_distance(fm.base_distance))
        return metric

    def traced_parser(original):
        traced_build = tracer.wrap("cli.build_parser", original)

        @functools.wraps(original)
        def build():
            parser = traced_build()
            parser.parse_args = tracer.wrap("cli.parse_args", parser.parse_args)
            return parser
        return build

    # (owner, attribute, replacement factory); the same function is wrapped
    # under every module that imports it by name
    patches = [
        (gaussian, "overlap_quadrature_many",
         lambda f: tracer.wrap("gaussian.overlap_quadrature_many", f, quad_pairs, quad_label)),
        (gaussian, "distance_from_params",
         lambda f: tracer.wrap("gaussian.distance_from_params", f, elements)),
        (solver, "distance_from_params",
         lambda f: tracer.wrap("gaussian.distance_from_params", f, elements)),
        (solver, "state_distance", lambda f: tracer.leaf("gaussian.state_distance", f)),
        (compare, "state_distance", lambda f: tracer.leaf("gaussian.state_distance", f)),
        (cli, "state_distance", lambda f: tracer.leaf("gaussian.state_distance", f)),
        (compare, "evaluate", lambda f: tracer.wrap("gaussian.evaluate", f)),
        (cli, "audit_metric_axioms", lambda f: tracer.wrap("gaussian.audit_metric_axioms", f)),
        (compare, "interference_excess_quadrature",
         lambda f: tracer.wrap("compare.interference_excess_quadrature", f)),
        (cli, "iterate_to_fixed_point",
         lambda f: tracer.wrap("solver.iterate_to_fixed_point", f, steps)),
        (compare, "iterate_to_fixed_point",
         lambda f: tracer.wrap("solver.iterate_to_fixed_point", f, steps)),
        (cli, "verify_banach_bounds",
         lambda f: tracer.wrap("solver.verify_banach_bounds", f, iterates)),
        (compare, "estimate_contraction_factor",
         lambda f: tracer.wrap("solver.estimate_contraction_factor", f, estimate_samples)),
        (compare, "sample_state_pairs",
         lambda f: tracer.wrap("solver.sample_state_pairs", f, pairs)),
        (compare, "fuzzy_fixed_point",
         lambda f: tracer.wrap("fuzzy.fuzzy_fixed_point", f, condition_samples)),
        (compare, "gaussian_parameter_metric", traced_metric),
        (cli, "gaussian_parameter_metric", traced_metric),
        (cli, "absolute_difference", tracer.base_distance),
        (cli, "audit_gv_axioms", lambda f: tracer.wrap("fuzzy.audit_gv_axioms", f)),
        (cli, "build_feature_report", lambda f: tracer.wrap("compare.build_feature_report", f)),
        (cli, "build_parser", traced_parser),
        (cli, "main", lambda f: tracer.wrap("cli.main", f)),
        (reports.AxiomAuditReport, "to_dict", lambda f: tracer.wrap("reports.to_dict", f)),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, make in patches:
            setattr(owner, attr, make(owner.__dict__[attr]))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
