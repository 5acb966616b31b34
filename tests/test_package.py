"""The package surface: lazy root exports and the names the benchmark uses."""

import importlib
import importlib.util
from pathlib import Path

import lamedn

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
