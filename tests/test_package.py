"""The package surface: lazy root exports, the names the benchmark uses, and
a user for every export."""

import ast
import importlib
import importlib.util
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


def test_root_exports_every_submodule_all():
    for sub in ("core", "geometry", "kernels", "fem", "inverse", "ucp"):
        module = importlib.import_module(f"lamedn.{sub}")
        for name in module.__all__:
            assert getattr(lamedn, name) is getattr(module, name), (sub, name)
            assert name in lamedn.__all__


# Exports kept without a user in the package, the benchmark or the acceptance
# suite: pointwise references that unit tests check fast paths against, the
# paper's on-axis groups, closed-form inputs of the three-sphere tests, the
# counterparts of the CLI's file formats, and the stability-constant bound.
KEPT_WITHOUT_USER = (
    "kelvin_gradient", "elastic_residual_fd", "gamma33_ondiag_difference",
    "linear_ensemble", "load_matrix_json", "save_mesh", "propbv_constant",
)


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
    users = [*package.glob("*.py"), *ROOT.glob("perfbench/*.py"),
             ROOT / "tests" / "test_acceptance.py"]
    used = set().union(*map(_uses, users))
    unused = [name for path in sorted(package.glob("[!_]*.py"))
              for name in getattr(importlib.import_module(f"lamedn.{path.stem}"),
                                  "__all__", ())
              if name not in used]
    assert sorted(unused) == sorted(KEPT_WITHOUT_USER)
