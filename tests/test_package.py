import ast
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import qfixpoint

EXPORTS = {
    "AffineGaussianMap", "AuditCheck", "AxiomAuditReport",
    "DEFAULT_MAPS", "DEFAULT_MAX_ITERATIONS", "DEFAULT_QUADRATURE", "DEFAULT_REGION",
    "DEFAULT_STARTS", "DEFAULT_TOLERANCE",
    "FixedPointReport", "FuzzyFixedPointReport", "FuzzyMetric", "GSConditionAudit",
    "GaussianState", "NotConvergedError", "OUT_OF_SCOPE_NOTES", "ParameterBox",
    "QuadratureConfig", "TNormKind", "absolute_difference", "analytic_fixed_point",
    "audit_gv_axioms", "audit_metric_axioms", "audit_tnorm_axioms",
    "audit_tnorm_ordering", "build_feature_report", "estimate_contraction_factor",
    "evaluate", "fuzzy_fixed_point", "gaussian_parameter_metric",
    "gaussian_state_sampler", "interference_excess", "interference_excess_quadrature",
    "iterate_to_fixed_point", "overlap_closed_form", "overlap_quadrature",
    "overlap_quadrature_many", "real_line_sampler", "sample_state_pairs",
    "state_distance", "verify_banach_bounds",
}


def test_package_exports_the_submodules_public_names():
    # 41 distinct names, no more, no fewer
    assert len(EXPORTS) == 41 and sorted(qfixpoint.__all__) == sorted(EXPORTS)
    namespace = {}
    exec("from qfixpoint import *", namespace)
    for name in EXPORTS:
        assert namespace[name] is getattr(qfixpoint, name)


# ------------------------------------------------------ deferred numpy import

SRC = pathlib.Path(qfixpoint.__file__).parent
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _imports_numpy(node) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "numpy" for a in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"


def _own_nodes(scope):
    """Nodes of a module or function body, not descending into nested functions."""
    stack = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def _unbound_np_reads(tree: ast.Module) -> list[int]:
    """Lines that read ``np`` where neither their function nor an enclosing one imports it.

    Decorators, defaults and annotations run where their function is
    defined, so they are checked in the enclosing scope.
    """
    misses = []

    def visit(node, bound):
        if isinstance(node, _FUNCTIONS):
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            outer = [*getattr(node, "decorator_list", []), *a.defaults, *a.kw_defaults,
                     *(p.annotation for p in params if p is not None),
                     getattr(node, "returns", None)]
            for child in filter(None, outer):
                visit(child, bound)
            binds = bound or any(isinstance(n, ast.Import) and any(
                x.name == "numpy" and x.asname == "np" for x in n.names) for n in _own_nodes(node))
            for child in node.body if isinstance(node.body, list) else [node.body]:
                visit(child, binds)
            return
        if isinstance(node, ast.Name) and node.id == "np" and not bound:
            misses.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, bound)

    visit(tree, False)
    return misses


def test_unbound_np_checker_flags_reads_outside_an_importing_function():
    source = textwrap.dedent("""
        def a():
            import numpy as np
            return lambda: np.zeros(1)
        def b(x=np.ones(1)) -> "np.ndarray":
            return np.zeros(1)
        def c(x: np.ndarray):
            def inner():
                import numpy as np
            return np
    """)
    assert _unbound_np_reads(ast.parse(source)) == [5, 6, 7, 10]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_modules_import_numpy_only_inside_the_functions_that_read_it(path):
    tree = ast.parse(path.read_text(), str(path))
    assert not any(_imports_numpy(node) for node in _own_nodes(tree))
    assert _unbound_np_reads(tree) == []


def test_cli_loads_numpy_only_for_commands_that_need_it():
    script = textwrap.dedent("""
        import contextlib, io, sys
        import qfixpoint, qfixpoint.cli

        def run(*argv):
            with contextlib.redirect_stdout(io.StringIO()):
                return qfixpoint.cli.main(list(argv))

        iterate = ("iterate", "--map", "0.5,0,0.5,0.5", "--start", "4,3", "--format")
        codes = [run(*iterate, fmt) for fmt in ("json", "csv", "table")]
        codes.append(run("distance", "--a", "0,1", "--b", "1,2"))
        codes.append(run("audit", "--target", "banach-bounds"))
        print("numpy" in sys.modules, codes)
        codes = [run("distance", "--a", "0,1", "--b", "1,2", "--quadrature")]
        print("numpy" in sys.modules, codes)
    """)
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False [0, 0, 0, 0, 0]\nTrue [0]\n"
