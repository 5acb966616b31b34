"""The package surface: lazy root exports, the names the benchmark uses, a
user for every export and a caller for every parameter default."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import lamedn

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def _span_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_benchmark_targets_resolve():
    # perfbench/spans.py wraps these attributes, and perfbench/run.py records
    # lamedn.backend.BACKEND in every run's environment.
    targets = _span_targets()
    assert targets
    for module, attr, *_ in targets:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    assert callable(importlib.import_module("lamedn.fem").spla.splu)
    assert isinstance(importlib.import_module("lamedn.backend").BACKEND, str)


def test_package_loads_no_scipy_optimize_or_special():
    # The package computes with scipy.linalg and scipy.sparse alone: every
    # module, the benchmark's workloads and tracer, a three-sphere fit and a
    # tet rule load neither subpackage, each of which costs MB of resident
    # memory in every process.
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "perfbench"),
                                         os.environ.get("PYTHONPATH")]))
    code = textwrap.dedent("""
        import importlib, pkgutil, sys
        import lamedn
        for info in pkgutil.iter_modules(lamedn.__path__):
            importlib.import_module(f"lamedn.{info.name}")
        import spans, workloads
        from lamedn.fem import tet_quadrature
        from lamedn.ucp import linear_ensemble, three_sphere_fit
        three_sphere_fit(linear_ensemble(2, seed=0), 0.25, 0.5, 1.0)
        tet_quadrature(4)
        print(*sorted({"scipy.optimize", "scipy.special"} & set(sys.modules)))
        """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_root_exports_every_submodule_all():
    for sub in ("core", "geometry", "kernels", "fem", "inverse", "ucp"):
        module = importlib.import_module(f"lamedn.{sub}")
        for name in module.__all__:
            assert getattr(lamedn, name) is getattr(module, name), (sub, name)
            assert name in lamedn.__all__


# Exports kept without a user in the package, the benchmark or the acceptance
# suite: pointwise references that unit tests check fast paths against, the
# paper's on-axis groups, closed-form inputs of the three-sphere tests, the
# counterparts of the CLI's file formats, the stability-constant bound, and
# the box test that the projection tests check against.
KEPT_WITHOUT_USER = (
    "kelvin_gradient", "elastic_residual_fd", "gamma33_ondiag_difference",
    "linear_ensemble", "load_matrix_json", "save_mesh", "propbv_constant",
    "check_admissible",
)

# Parameter defaults kept without a caller that sets them: tests drive the
# CLI through main(argv) and fix theta_bar to skip the cone's own fit.
DEFAULTS_WITHOUT_CALLER = ("main.argv", "cone_propagation_experiment.theta_bar")


def _user_files():
    """The package's modules, the benchmark's and the acceptance suite."""
    package = Path(lamedn.__file__).resolve().parent
    return [*package.glob("*.py"), *ROOT.glob("perfbench/*.py"),
            ROOT / "tests" / "test_acceptance.py"]


def _uses(path):
    """The names that a file's AST uses outside the def or class of the same
    name, as a Name, an attribute or a whole string constant; the strings of
    `__all__` lists do not count."""
    used = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return
        word = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.value if isinstance(node, ast.Constant) and isinstance(node.value, str)
                else None)
        if word is not None and word not in enclosing:
            used.add(word)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(path.read_text()), frozenset())
    return used


def test_every_export_has_a_user():
    """Each name a submodule exports is used by the package, the benchmark
    or the acceptance suite, or is one of the exceptions kept above."""
    package = Path(lamedn.__file__).resolve().parent
    used = set().union(*map(_uses, _user_files()))
    unused = [name for path in sorted(package.glob("[!_]*.py"))
              for name in getattr(importlib.import_module(f"lamedn.{path.stem}"),
                                  "__all__", ())
              if name not in used]
    assert sorted(unused) == sorted(KEPT_WITHOUT_USER)


def _passed(path):
    """(callee name, parameter name or position) for every argument that a
    call in the file passes; the callee is the called Name or attribute."""
    passed = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            passed.update((name, k.arg) for k in node.keywords)
            passed.update((name, i) for i in range(len(node.args)))
    return passed


def _defaults(module):
    """(name, callee, position, parameter) for each parameter with a default
    of the module's exported functions and of the public methods of its
    exported classes, and for each init field with a default of its exported
    dataclasses; a method is named Class.method, called as `method`, and its
    positions do not count self or cls; a field is named and called as its
    class, at its position among the init fields."""
    for name in getattr(module, "__all__", ()):
        obj = getattr(module, name)
        if name in KEPT_WITHOUT_USER:
            continue
        if dataclasses.is_dataclass(obj):
            fields = [f for f in dataclasses.fields(obj) if f.init]
            for i, f in enumerate(fields):
                if (f.default is not dataclasses.MISSING
                        or f.default_factory is not dataclasses.MISSING):
                    yield name, name, i, f.name
        if inspect.isfunction(obj):
            callables = [(name, name, obj, 0)]
        elif inspect.isclass(obj):
            callables = []
            for attr, member in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(member, (staticmethod, classmethod)):
                    callables.append((f"{name}.{attr}", attr, member.__func__,
                                      int(isinstance(member, classmethod))))
                elif inspect.isfunction(member):
                    callables.append((f"{name}.{attr}", attr, member, 1))
        else:
            continue
        for qualname, callee, fn, skip in callables:
            params = list(inspect.signature(fn).parameters.values())[skip:]
            for i, p in enumerate(params):
                if p.default is not p.empty:
                    yield qualname, callee, i, p.name


def test_every_parameter_has_a_user():
    """Each parameter default of an exported function or of a public method
    of an exported class, and each init field default of an exported
    dataclass, is overridden, by keyword or at its position, by
    some call in the package, the benchmark or the acceptance suite; a call
    that passes a parameter on counts, so an option that no outer caller sets
    is flagged at every layer it crosses."""
    package = Path(lamedn.__file__).resolve().parent
    passed = set().union(*map(_passed, _user_files()))
    unused = [f"{qualname}.{param}"
              for path in sorted(package.glob("[!_]*.py"))
              for qualname, callee, i, param in _defaults(
                  importlib.import_module(f"lamedn.{path.stem}"))
              if (callee, param) not in passed and (callee, i) not in passed]
    assert sorted(unused) == sorted(DEFAULTS_WITHOUT_CALLER)
