"""Command-line front end: distance, iterate, audit and compare subcommands.

Exit codes: 0 success, 2 invalid input, 3 non-convergence, 4 audit failure.
Machine formats (json, csv) print floats with 17 significant digits so the
output round-trips doubles losslessly; identical invocations produce
byte-identical output.
"""

import argparse
import json
import sys
from json.encoder import INFINITY, _make_iterencode, encode_basestring_ascii

from .compare import build_feature_report, gaussian_parameter_metric, gaussian_state_sampler
from .fuzzy import (TNormKind, absolute_difference, audit_gv_axioms,
                    audit_tnorm_axioms, audit_tnorm_ordering, FuzzyMetric,
                    real_line_sampler)
from .gaussian import (GaussianState, QuadratureConfig, audit_metric_axioms,
                       overlap_closed_form, overlap_quadrature, state_distance)
from .solver import (AffineGaussianMap, NotConvergedError, iterate_to_fixed_point,
                     verify_banach_bounds)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NOT_CONVERGED = 3
EXIT_AUDIT_FAILED = 4


class CliError(Exception):
    pass


# ---------------------------------------------------------------- formatting

class _Float17Encoder(json.JSONEncoder):
    """JSON encoder printing every float with 17 significant digits."""

    def iterencode(self, o, _one_shot=False):
        def floatstr(o, _inf=INFINITY, _neginf=-INFINITY):
            if o != o or o == _inf or o == _neginf:
                raise ValueError("non-finite float in report")
            return format(o, ".17g")

        markers = {} if self.check_circular else None
        return _make_iterencode(
            markers, self.default, encode_basestring_ascii, self.indent, floatstr,
            self.key_separator, self.item_separator, self.sort_keys, self.skipkeys,
            _one_shot,
        )(o, 0)


def _dumps(doc) -> str:
    return json.dumps(doc, cls=_Float17Encoder) + "\n"


def _g17(x) -> str:
    return format(x, ".17g") if isinstance(x, float) else str(x)


def _csv_lines(rows) -> str:
    return "".join(",".join(_g17(cell) for cell in row) + "\n" for row in rows)


def _emit(text: str, args) -> None:
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"--out: {exc}") from None
    else:
        sys.stdout.write(text)


def _document(command: str, inputs: dict, result: dict) -> dict:
    return {"command": command, "inputs": inputs, "result": result,
            "version": SCHEMA_VERSION}


def _kv_table(pairs) -> str:
    width = max(len(k) for k, _ in pairs)
    return "".join(f"{k:<{width}}  {_g17(v)}\n" for k, v in pairs)


# ------------------------------------------------------------------- parsing

def _parse_floats(text: str, n: int, flag: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != n:
        raise CliError(f"{flag}: expected {n} comma-separated numbers, got {text!r}")
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise CliError(f"{flag}: not numeric: {text!r}") from None


def _parse_state(text: str, flag: str) -> GaussianState:
    mu, sigma = _parse_floats(text, 2, flag)
    try:
        return GaussianState(mu, sigma)
    except ValueError as exc:
        raise CliError(f"{flag}: {exc}") from None


def _parse_map(text: str, flag: str) -> AffineGaussianMap:
    vals = _parse_floats(text, 4, flag)
    try:
        return AffineGaussianMap(*vals)
    except ValueError as exc:
        raise CliError(f"{flag}: {exc}") from None


# ------------------------------------------------------------- serialization

def _state_dict(s: GaussianState) -> dict:
    return {"mu": s.mu, "sigma": s.sigma}


def _map_dict(m: AffineGaussianMap) -> dict:
    return {"mu_scale": m.mu_scale, "mu_shift": m.mu_shift,
            "sigma_scale": m.sigma_scale, "sigma_shift": m.sigma_shift}


def _iteration_dict(report) -> dict:
    return {
        "converged": report.converged,
        "iterations_used": report.iterations_used,
        "k_estimate": report.k_estimate,
        "fixed_point": _state_dict(report.fixed_point),
        "iterates": [_state_dict(s) for s in report.iterates],
        "step_distances": list(report.step_distances),
        "a_priori_bounds": list(report.a_priori_bounds),
    }


def _audit_dict(report) -> dict:
    return report.to_dict()


def _condition_dict(c) -> dict:
    out = {"samples": c.samples, "violations": c.violations,
           "min_margin": c.min_margin, "max_abs_margin": c.max_abs_margin,
           "holds": c.holds}
    if c.witness is not None:
        out["witness"] = {k: (_state_dict(v) if isinstance(v, GaussianState) else v)
                          for k, v in c.witness.items()}
    return out


def _outcome_dict(o) -> dict:
    return {"framework": o.framework, "fixed_point": _state_dict(o.fixed_point),
            "iterations_used": o.iterations_used,
            "final_step_distance": o.final_step_distance, "converged": o.converged}


# ------------------------------------------------------------------ commands

def _cmd_distance(args) -> int:
    a = _parse_state(args.a, "--a")
    b = _parse_state(args.b, "--b")
    try:
        cfg = QuadratureConfig(args.half_width, args.panels)
    except ValueError as exc:
        raise CliError(f"--half-width/--panels: {exc}") from None

    result = {"distance": state_distance(a, b),
              "overlap_closed_form": overlap_closed_form(a, b)}
    if args.quadrature:
        quad = overlap_quadrature(a, b, cfg)
        result["overlap_quadrature"] = quad
        result["quadrature_discrepancy"] = abs(result["overlap_closed_form"] - quad)

    inputs = {"a": _state_dict(a), "b": _state_dict(b), "quadrature": args.quadrature,
              "half_width_sigmas": cfg.half_width_sigmas, "panels": cfg.panels}
    if args.format == "json":
        _emit(_dumps(_document("distance", inputs, result)), args)
    elif args.format == "csv":
        _emit(_csv_lines([("key", "value"), *result.items()]), args)
    else:
        _emit(_kv_table(list(result.items())), args)
    return EXIT_OK


def _cmd_iterate(args) -> int:
    m = _parse_map(args.map, "--map")
    start = _parse_state(args.start, "--start")
    if not (args.tol > 0):
        raise CliError("--tol: tolerance must be positive")
    if args.max_iter < 1:
        raise CliError("--max-iter: must be at least 1")

    report = iterate_to_fixed_point(m, start, args.tol, args.max_iter)
    inputs = {"map": _map_dict(m), "start": _state_dict(start),
              "tolerance": args.tol, "max_iterations": args.max_iter}

    if args.format == "json":
        _emit(_dumps(_document("iterate", inputs, _iteration_dict(report))), args)
    elif args.format == "csv":
        rows = [("n", "mu", "sigma", "step_distance", "a_priori_bound")]
        for n, it in enumerate(report.iterates):
            step = report.step_distances[n] if n < len(report.step_distances) else ""
            bound = report.a_priori_bounds[n] if n < len(report.a_priori_bounds) else ""
            rows.append((n, it.mu, it.sigma, step, bound))
        _emit(_csv_lines(rows), args)
    else:
        fp = report.fixed_point
        pairs = [("converged", report.converged),
                 ("iterations_used", report.iterations_used),
                 ("fixed_point_mu", fp.mu), ("fixed_point_sigma", fp.sigma),
                 ("k_estimate", report.k_estimate),
                 ("final_step_distance", report.step_distances[-1])]
        _emit(_kv_table(pairs), args)
    return EXIT_OK if report.converged else EXIT_NOT_CONVERGED


def _run_audits(args):
    """Returns (inputs, {name: AxiomAuditReport})."""
    if args.target == "tnorm":
        kinds = [k.value for k in TNormKind] if args.kind == "all" else [args.kind]
        reports = {kind: audit_tnorm_axioms(TNormKind(kind), args.resolution)
                   for kind in kinds}
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
        m = _parse_map(args.map, "--map")
        start = _parse_state(args.start, "--start")
        run = iterate_to_fixed_point(m, start, args.tol, args.max_iter)
        if not run.converged:
            raise NotConvergedError("iteration did not converge; no bounds to verify",
                                    report=run)
        k = run.k_estimate if args.k is None else args.k
        if args.k is None and not 0.0 <= k < 1.0:
            raise CliError(f"--k was not given and the trace's k_estimate {k:.17g} is "
                           "not in [0, 1); pass --k with 0 <= k < 1")
        try:
            reports = {"banach-bounds": verify_banach_bounds(run, k)}
        except ValueError as exc:
            raise CliError(f"--k: {exc}") from None
        inputs = {"target": args.target, "map": _map_dict(m),
                  "start": _state_dict(start), "tolerance": args.tol,
                  "max_iterations": args.max_iter, "k": k}
    return inputs, reports


def _cmd_audit(args) -> int:
    inputs, reports = _run_audits(args)
    passed = all(r.passed for r in reports.values())
    result = {"passed": passed,
              "reports": {name: _audit_dict(r) for name, r in reports.items()}}

    if args.format == "json":
        _emit(_dumps(_document("audit", inputs, result)), args)
    elif args.format == "csv":
        rows = [("report", "check", "passed", "checked", "witness")]
        for name, rep in reports.items():
            for check in rep.checks:
                rows.append((name, check.name, check.passed, check.checked,
                             "" if check.witness is None else json.dumps(check.witness,
                                                                         default=str)))
        _emit(_csv_lines(rows), args)
    else:
        lines = []
        for name, rep in reports.items():
            for check in rep.checks:
                status = "PASS" if check.passed else "FAIL"
                lines.append(f"{name}/{check.name}: {status} ({check.checked} checks)\n")
                if check.witness is not None:
                    lines.append(f"  witness: {check.witness}\n")
        lines.append(f"overall: {'PASS' if passed else 'FAIL'}\n")
        _emit("".join(lines), args)
    return EXIT_OK if passed else EXIT_AUDIT_FAILED


def _cmd_compare(args) -> int:
    m = _parse_map(args.map, "--map")
    start = _parse_state(args.start, "--start")
    probe = (_parse_state(args.probe_a, "--probe-a"),
             _parse_state(args.probe_b, "--probe-b"))
    if not (args.tol > 0):
        raise CliError("--tol: tolerance must be positive")

    report = build_feature_report(m, start, probe, args.tol, args.max_iter,
                                  rng_seed=args.seed)
    result = {
        "interference_excess_quantum": report.interference_excess_quantum,
        "interference_excess_fuzzy": report.interference_excess_fuzzy,
        "contraction_framework_results": {
            "quantum": _outcome_dict(report.quantum),
            "fuzzy": _outcome_dict(report.fuzzy),
        },
        "agreement_distance": report.agreement_distance,
        "fuzzy_condition": _condition_dict(report.fuzzy_report.condition),
        "notes": report.notes,
    }
    inputs = {"map": _map_dict(m), "start": _state_dict(start),
              "probe_a": _state_dict(probe[0]), "probe_b": _state_dict(probe[1]),
              "tolerance": args.tol, "max_iterations": args.max_iter,
              "rng_seed": args.seed}

    if args.format == "json":
        _emit(_dumps(_document("compare", inputs, result)), args)
    elif args.format == "csv":
        rows = [("key", "value"),
                ("interference_excess_quantum", report.interference_excess_quantum),
                ("interference_excess_fuzzy", report.interference_excess_fuzzy),
                ("quantum_fixed_point_mu", report.quantum.fixed_point.mu),
                ("quantum_fixed_point_sigma", report.quantum.fixed_point.sigma),
                ("fuzzy_fixed_point_mu", report.fuzzy.fixed_point.mu),
                ("fuzzy_fixed_point_sigma", report.fuzzy.fixed_point.sigma),
                ("agreement_distance", report.agreement_distance)]
        _emit(_csv_lines(rows), args)
    else:
        pairs = [("interference_excess_quantum", report.interference_excess_quantum),
                 ("interference_excess_fuzzy", report.interference_excess_fuzzy),
                 ("quantum_fixed_point", f"({report.quantum.fixed_point.mu:.12g}, "
                                         f"{report.quantum.fixed_point.sigma:.12g})"),
                 ("fuzzy_fixed_point", f"({report.fuzzy.fixed_point.mu:.12g}, "
                                       f"{report.fuzzy.fixed_point.sigma:.12g})"),
                 ("agreement_distance", report.agreement_distance),
                 ("fuzzy_condition_holds", report.fuzzy_report.condition.holds)]
        text = _kv_table(pairs)
        text += "".join(f"note[{k}]: {v}\n" for k, v in report.notes.items())
        _emit(text, args)
    return EXIT_OK


# -------------------------------------------------------------------- parser

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.add_argument("--out", default=None, help="write output to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfixpoint",
        description="Gaussian-state contraction fixed points and fuzzy-metric audits")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distance", help="distance and overlap between two states")
    p.add_argument("--a", required=True, metavar="MU,SIGMA")
    p.add_argument("--b", required=True, metavar="MU,SIGMA")
    p.add_argument("--quadrature", action="store_true",
                   help="include the quadrature cross-check")
    p.add_argument("--half-width", type=float, default=10.0)
    p.add_argument("--panels", type=int, default=4096)
    _add_common(p)
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("iterate", help="run the contraction iteration")
    p.add_argument("--map", required=True, metavar="MU_SCALE,MU_SHIFT,SIGMA_SCALE,SIGMA_SHIFT")
    p.add_argument("--start", required=True, metavar="MU,SIGMA")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-iter", type=int, default=10000)
    _add_common(p)
    p.set_defaults(func=_cmd_iterate)

    p = sub.add_parser("audit", help="run axiom/bound audits")
    p.add_argument("--target", required=True,
                   choices=("tnorm", "gv", "metric-axioms", "banach-bounds"))
    p.add_argument("--kind", choices=("minimum", "product", "lukasiewicz", "all"),
                   default="all")
    p.add_argument("--resolution", type=int, default=21)
    p.add_argument("--carrier", choices=("line", "gaussian"), default="line")
    p.add_argument("--points", type=int, default=64)
    p.add_argument("--t-samples", type=int, default=16)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--map", default="0.5,0,0.5,0.5")
    p.add_argument("--start", default="4,3")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-iter", type=int, default=10000)
    p.add_argument("--k", type=float, default=None,
                   help="contraction factor for banach-bounds (default: trace estimate)")
    _add_common(p)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("compare", help="quantum vs fuzzy feature comparison")
    p.add_argument("--map", default="0.5,0,0.5,0.5")
    p.add_argument("--start", default="4,3")
    p.add_argument("--probe-a", default="0,1")
    p.add_argument("--probe-b", default="1,1")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-iter", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OverflowError:
        # finite inputs whose squared differences exceed the double range
        print("error: the inputs overflow double-precision arithmetic; use smaller "
              "magnitudes", file=sys.stderr)
        return EXIT_INVALID
    except NotConvergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED


if __name__ == "__main__":
    sys.exit(main())
