"""Command-line front end: distance, iterate, audit and compare subcommands.

Exit codes: 0 success, 2 invalid input, 3 non-convergence, 4 audit failure.
Machine formats (json, csv) print floats with 17 significant digits so the
output round-trips doubles losslessly; identical invocations produce
byte-identical output.
"""

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from itertools import chain

from .compare import (OUT_OF_SCOPE_NOTES, build_feature_report, gaussian_parameter_metric,
                      gaussian_state_sampler, interference_excess)
from .fuzzy import (TNormKind, absolute_difference, audit_gv_axioms,
                    audit_tnorm_axioms, audit_tnorm_ordering, FuzzyMetric,
                    real_line_sampler)
from .gaussian import (DEFAULT_QUADRATURE, SQRT2, GaussianState, QuadratureConfig,
                       audit_metric_axioms, overlap_closed_form, overlap_quadrature,
                       state_distance)
from .solver import (DEFAULT_MAX_ITERATIONS, DEFAULT_TOLERANCE, AffineGaussianMap,
                     NotConvergedError, iterate_to_fixed_point, verify_banach_bounds)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NOT_CONVERGED = 3
EXIT_AUDIT_FAILED = 4


# lower and upper limits of the size options, checked before any work is done
SIZE_MINIMA = {"--resolution": 5, "--points": 10, "--t-samples": 5, "--samples": 1,
               "--max-iter": 1}
SIZE_LIMITS = {"--panels": 2**20, "--resolution": 101, "--samples": 10**6,
               "--points": 4096, "--t-samples": 1024, "--max-iter": 10**6}


# ---------------------------------------------------------------- rendering

# keys and scalars repeat across a document, and json.dumps costs microseconds
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
    # a function stands for json text that is rendered only when a document needs it
    return value() if callable(value) else _scalar(value)


def _cell(value) -> str:
    """A csv cell or table value: floats at 17 significant digits, the rest by str."""
    return format(value, ".17g") if isinstance(value, float) else str(value)


def _kv_table(pairs) -> str:
    width = max(len(k) for k, _ in pairs)
    return "".join(f"{k:<{width}}  {_cell(v)}\n" for k, v in pairs)


def _render(args, command: str, inputs: dict, result: dict, rows, table: str) -> None:
    """Write the json document, the csv ``rows`` or the ``table`` text to stdout or --out."""
    if args.format == "json":
        text = _json({"command": command, "inputs": inputs, "result": result,
                      "version": SCHEMA_VERSION}) + "\n"
    elif args.format == "csv":
        # a function renders the whole csv text in one call
        text = rows() if callable(rows) else "".join(
            ",".join(map(_cell, row)) + "\n" for row in rows)
    else:
        text = table
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"--out: {exc}") from None
    elif sys.stdout is None:  # fd 1 was closed when the interpreter started
        raise ValueError("stdout: not open")
    else:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            if isinstance(exc, BrokenPipeError):  # Python flushes stdout again at exit
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise ValueError(f"stdout: {exc}") from None


# ------------------------------------------------------------------- parsing

def _parse(text: str, flag: str, kind):
    """Build a GaussianState or AffineGaussianMap from comma-separated numbers."""
    parts = text.split(",")
    n = len(dataclasses.fields(kind))
    if len(parts) != n:
        raise ValueError(f"{flag}: expected {n} comma-separated numbers, got {text!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ValueError(f"{flag}: not numeric: {text!r}") from None
    try:
        return kind(*values)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


# ------------------------------------------------------------------ commands

def _cmd_distance(args) -> int:
    a = _parse(args.a, "--a", GaussianState)
    b = _parse(args.b, "--b", GaussianState)
    try:
        cfg = QuadratureConfig(args.half_width, args.panels)
    except ValueError as exc:
        raise ValueError(f"--half-width/--panels: {exc}") from None

    result = {"distance": state_distance(a, b),
              "overlap_closed_form": overlap_closed_form(a, b)}
    if args.quadrature:
        quad = overlap_quadrature(a, b, cfg)
        result["overlap_quadrature"] = quad
        result["quadrature_discrepancy"] = abs(result["overlap_closed_form"] - quad)

    inputs = {"a": a, "b": b, "quadrature": args.quadrature,
              "half_width_sigmas": cfg.half_width_sigmas, "panels": cfg.panels}
    _render(args, "distance", inputs, result, [("key", "value"), *result.items()],
            _kv_table(result.items()))
    return EXIT_OK


def _cmd_iterate(args) -> int:
    m = _parse(args.map, "--map", AffineGaussianMap)
    start = _parse(args.start, "--start", GaussianState)

    report = iterate_to_fixed_point(m, start, args.tol, args.max_iter)
    mus, sigmas, steps, bounds = (report.mus, report.sigmas, report.step_distances,
                                  report.a_priori_bounds)
    n = len(steps)  # iterate n, the last, has no step

    # each renders a json run of trace rows in one % call, only when json is asked for;
    # the loop refused non-finite iterates, and steps and bounds are finite with them
    def run(item, *columns):
        return lambda: "[" + ", ".join([item] * len(columns[0])) % tuple(
            chain.from_iterable(zip(*columns))) + "]"

    def csv():
        # bounds are empty when no contraction factor below 1 was observed, and
        # then every row leaves that field empty
        columns = (range(n), mus, sigmas, steps, *([bounds] if bounds else []))
        end = "%.17g\n" if bounds else "\n"
        template = "n,mu,sigma,step_distance,a_priori_bound\n" + (
            "%d,%.17g,%.17g,%.17g," + end) * n + "%d,%.17g,%.17g,," + end
        return template % (*chain.from_iterable(zip(*columns)), n, mus[n], sigmas[n],
                           *bounds[n:])

    inputs = {"map": m, "start": start, "tolerance": args.tol,
              "max_iterations": args.max_iter}
    result = {"converged": report.converged, "iterations_used": report.iterations_used,
              "k_estimate": report.k_estimate, "fixed_point": report.fixed_point,
              "iterates": run('{"mu": %.17g, "sigma": %.17g}', mus, sigmas),
              "step_distances": run("%.17g", steps), "a_priori_bounds": run("%.17g", bounds)}

    fp = report.fixed_point
    table = _kv_table([("converged", report.converged),
                       ("iterations_used", report.iterations_used),
                       ("fixed_point_mu", fp.mu), ("fixed_point_sigma", fp.sigma),
                       ("k_estimate", report.k_estimate),
                       ("final_step_distance", report.step_distances[-1])])
    _render(args, "iterate", inputs, result, csv, table)
    return EXIT_OK if report.converged else EXIT_NOT_CONVERGED


def _run_audits(args):
    """Returns (inputs, {name: AxiomAuditReport})."""
    if args.target == "tnorm":
        kinds = [k.value for k in TNormKind] if args.kind == "all" else [args.kind]
        reports = {kind: audit_tnorm_axioms(kind, args.resolution) for kind in kinds}
        if args.kind == "all":
            reports["ordering"] = audit_tnorm_ordering(args.resolution)
        inputs = {"target": args.target, "kind": args.kind,
                  "grid_resolution": args.resolution}
    elif args.target == "gv":
        if args.carrier == "line":
            fm = FuzzyMetric(base_distance=absolute_difference)
            sampler = real_line_sampler()
        else:
            fm = gaussian_parameter_metric()
            sampler = gaussian_state_sampler()
        reports = {args.carrier: audit_gv_axioms(fm, sampler, args.points,
                                                 args.t_samples, args.seed)}
        inputs = {"target": args.target, "carrier": args.carrier,
                  "point_samples": args.points, "t_samples": args.t_samples,
                  "rng_seed": args.seed}
    elif args.target == "metric-axioms":
        reports = {"state-distance": audit_metric_axioms(args.samples, args.seed)}
        inputs = {"target": args.target, "samples": args.samples, "rng_seed": args.seed}
    else:  # banach-bounds
        m = _parse(args.map, "--map", AffineGaussianMap)
        start = _parse(args.start, "--start", GaussianState)
        run = iterate_to_fixed_point(m, start, args.tol, args.max_iter)
        if not run.converged:
            raise NotConvergedError("iteration did not converge; no bounds to verify")
        k = run.k_estimate if args.k is None else args.k
        if args.k is None and not 0.0 <= k < 1.0:
            raise ValueError(f"--k was not given and the trace's k_estimate {k:.17g} is "
                           "not in [0, 1); pass --k with 0 <= k < 1")
        try:
            reports = {"banach-bounds": verify_banach_bounds(run, k)}
        except ValueError as exc:
            raise ValueError(f"--k: {exc}") from None
        inputs = {"target": args.target, "map": m, "start": start, "tolerance": args.tol,
                  "max_iterations": args.max_iter, "k": k}
    return inputs, reports


def _cmd_audit(args) -> int:
    inputs, reports = _run_audits(args)
    passed = all(r.passed for r in reports.values())
    result = {"passed": passed,
              "reports": {name: r.to_dict() for name, r in reports.items()}}

    rows, lines = [("report", "check", "passed", "checked", "witness")], []
    for name, rep in reports.items():
        for c in rep.checks:
            # the json document's witness text, quoted as one csv field (RFC 4180)
            witness = "" if c.witness is None else '"%s"' % _json(c.witness).replace('"', '""')
            rows.append((name, c.name, c.passed, c.checked, witness))
            lines.append(f"{name}/{c.name}: {'PASS' if c.passed else 'FAIL'} "
                         f"({c.checked} checks)\n")
            if c.witness is not None:
                lines.append(f"  witness: {_json(c.witness)}\n")
    lines.append(f"overall: {'PASS' if passed else 'FAIL'}\n")
    _render(args, "audit", inputs, result, rows, "".join(lines))
    return EXIT_OK if passed else EXIT_AUDIT_FAILED


def _cmd_compare(args) -> int:
    m = _parse(args.map, "--map", AffineGaussianMap)
    start = _parse(args.start, "--start", GaussianState)
    probe = (_parse(args.probe_a, "--probe-a", GaussianState),
             _parse(args.probe_b, "--probe-b", GaussianState))

    trace, k_estimate, fuzzy = build_feature_report(m, start, args.tol, args.max_iter,
                                                    rng_seed=args.seed)
    c = fuzzy.condition
    condition = {"k_estimate": k_estimate, "k": fuzzy.k, **{
        f.name: v for f in dataclasses.fields(c) if (v := getattr(c, f.name)) is not None}}
    # constant rows: a graded membership has no superposition, so no excess, and under
    # t/(t + d) the fuzzy contraction is the same Picard iteration, so one trace serves both
    excess = {"interference_excess_quantum": interference_excess(*probe),
              "interference_excess_fuzzy": 0.0}
    result = {
        **excess,
        "contraction_framework_results": {
            name: {"framework": name, "fixed_point": trace.fixed_point,
                   "iterations_used": trace.iterations_used,
                   "final_step_distance": trace.step_distances[-1],
                   "converged": trace.converged}
            for name in ("quantum", "fuzzy")},
        "agreement_distance": 0.0,
        "fuzzy_condition": condition,
        "notes": OUT_OF_SCOPE_NOTES,
    }
    inputs = {"map": m, "start": start, "probe_a": probe[0], "probe_b": probe[1],
              "tolerance": args.tol, "max_iterations": args.max_iter,
              "rng_seed": args.seed}

    fp = trace.fixed_point
    rows = [*excess.items(), ("quantum_fixed_point_mu", fp.mu),
            ("quantum_fixed_point_sigma", fp.sigma), ("fuzzy_fixed_point_mu", fp.mu),
            ("fuzzy_fixed_point_sigma", fp.sigma), ("agreement_distance", 0.0),
            ("fuzzy_condition_holds", c.holds)]
    table = _kv_table(rows) + "".join(f"note[{k}]: {v}\n" for k, v in OUT_OF_SCOPE_NOTES.items())
    _render(args, "compare", inputs, result, [("key", "value"), *rows], table)
    return EXIT_OK


# -------------------------------------------------------------------- parser

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.add_argument("--out", default=None, help="write output to this file")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main prints a rejected argv as one line; subparsers inherit
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qfixpoint",
        description="Gaussian-state contraction fixed points and fuzzy-metric audits")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distance", help="distance and overlap between two states")
    p.add_argument("--a", required=True, metavar="MU,SIGMA")
    p.add_argument("--b", required=True, metavar="MU,SIGMA")
    p.add_argument("--quadrature", action="store_true",
                   help="include the quadrature cross-check")
    p.add_argument("--half-width", type=float, default=DEFAULT_QUADRATURE.half_width_sigmas)
    p.add_argument("--panels", type=int, default=DEFAULT_QUADRATURE.panels)
    _add_common(p)
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("iterate", help="run the contraction iteration")
    p.add_argument("--map", required=True, metavar="MU_SCALE,MU_SHIFT,SIGMA_SCALE,SIGMA_SHIFT")
    p.add_argument("--start", required=True, metavar="MU,SIGMA")
    p.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE)
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITERATIONS)
    _add_common(p)
    p.set_defaults(func=_cmd_iterate)

    p = sub.add_parser("audit", help="run axiom/bound audits")
    p.add_argument("--target", required=True,
                   choices=("tnorm", "gv", "metric-axioms", "banach-bounds"))
    p.add_argument("--kind", choices=(*(k.value for k in TNormKind), "all"),
                   default="all")
    p.add_argument("--resolution", type=int, default=21)
    p.add_argument("--carrier", choices=("line", "gaussian"), default="line")
    p.add_argument("--points", type=int, default=64)
    p.add_argument("--t-samples", type=int, default=16)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--map", default="0.5,0,0.5,0.5")
    p.add_argument("--start", default="4,3")
    p.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE)
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITERATIONS)
    p.add_argument("--k", type=float, default=None,
                   help="contraction factor for banach-bounds (default: trace estimate)")
    _add_common(p)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("compare", help="quantum vs fuzzy feature comparison")
    p.add_argument("--map", default="0.5,0,0.5,0.5")
    p.add_argument("--start", default="4,3")
    p.add_argument("--probe-a", default="0,1")
    p.add_argument("--probe-b", default="1,1")
    p.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE)
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITERATIONS)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=_cmd_compare)

    return parser


# building the parser costs far more than a parse, and parse_args leaves it
# unchanged, so main builds it once per process; the cache wraps the function
# bound here, so rebinding cli.build_parser later never reaches main
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        for flag, limit in SIZE_LIMITS.items():
            value = getattr(args, flag[2:].replace("-", "_"), None)
            if value is None:  # the subcommand has no such option
                continue
            if value < SIZE_MINIMA.get(flag, value):
                raise ValueError(f"{flag}: must be at least {SIZE_MINIMA[flag]}")
            if value > limit:
                raise ValueError(f"{flag}: must be at most {limit}")
        if getattr(args, "seed", 0) < 0:
            raise ValueError("--seed: must be non-negative")
        tol = getattr(args, "tol", DEFAULT_TOLERANCE)
        if not (tol > 0):
            raise ValueError("--tol: tolerance must be positive")
        # no state distance exceeds sqrt(2), so such a tolerance passes every step
        if tol >= SQRT2:
            raise ValueError("--tol: tolerance must be below sqrt(2), the largest state distance")
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OverflowError:
        # finite widths whose squares exceed the double range
        print("error: the inputs overflow double-precision arithmetic; use smaller "
              "magnitudes", file=sys.stderr)
        return EXIT_INVALID
    except ZeroDivisionError:
        # widths so small that their product or the sum of their squares is subnormal
        print("error: the inputs underflow double-precision arithmetic; use larger "
              "widths", file=sys.stderr)
        return EXIT_INVALID
    except NotConvergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED


if __name__ == "__main__":
    sys.exit(main())
