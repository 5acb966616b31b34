"""In-memory span recorder for the traced benchmark run.

The package itself carries no tracing: `install` replaces the public
functions the workloads reach with timing wrappers, at every module
attribute through which they are looked up, and `uninstall` restores them.
A span is recorded only while an operation (or a set-up) is open, so input
generation and correctness checks between operations leave no spans.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (module, attribute, span name, point counter).  A function imported by name
# into another module is patched at both lookup sites under one span name.
TARGETS = [
    ("lamedn.geometry", "build_layered_cube", "geometry.build_layered_cube", None),
    ("lamedn.backend", "stiffness_blocks", "backend.stiffness_blocks", None),
    # SolutionMember.__call__ imports kelvin_batch from backend at call time
    ("lamedn.backend", "kelvin_batch", "backend.kelvin_batch", lambda a, k: len(a[0])),
    ("lamedn.fem", "build_cache", "fem.build_cache", None),
    ("lamedn.inverse", "build_cache", "fem.build_cache", None),
    ("lamedn.fem", "assemble", "fem.assemble", None),
    ("lamedn.inverse", "assemble", "fem.assemble", None),
    ("lamedn.fem", "dn_matrix", "fem.dn_matrix", None),
    ("lamedn.inverse", "dn_matrix", "fem.dn_matrix", None),
    ("lamedn.inverse", "forward", "inverse.forward", None),
    ("lamedn.inverse", "frechet_derivative", "inverse.frechet_derivative", None),
    ("lamedn.inverse", "star_norm", "inverse.star_norm", None),
    ("lamedn.inverse", "q0_estimate", "inverse.q0_estimate", None),
    ("lamedn.inverse", "lipschitz_probe", "inverse.lipschitz_probe", None),
    ("lamedn.inverse", "reconstruct", "inverse.reconstruct", None),
    ("lamedn.ucp", "ball_l2", "ucp.ball_l2", None),
    ("lamedn.ucp", "three_sphere_fit", "ucp.three_sphere_fit", None),
]


class _SplaProxy:
    """Stands in for `fem.spla`: FemSystem.factor calls `spla.splu`."""

    def __init__(self, real, splu):
        self._real = real
        self.splu = splu

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Spans as rows [name, start, end, parent index, op id, points]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None
        self._saved = []

    def wrap(self, name, fn, points=None):
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            row = [name, time.perf_counter(), None, parent, self.op,
                   points(args, kwargs) if points else 0]
            self._stack.append(len(self.spans))
            self.spans.append(row)
            try:
                return fn(*args, **kwargs)
            finally:
                row[2] = time.perf_counter()
                self._stack.pop()
        return traced

    def install(self):
        for modname, attr, name, points in TARGETS:
            mod = importlib.import_module(modname)
            self._saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, self.wrap(name, getattr(mod, attr), points))
        fem = importlib.import_module("lamedn.fem")
        self._saved.append((fem, "spla", fem.spla))
        fem.spla = _SplaProxy(fem.spla, self.wrap("fem.factor", fem.spla.splu))

    def uninstall(self):
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def self_times(self):
        """Per ("setup" or "op", name): [self seconds, calls, points].  Self
        time is a span's duration minus that of its direct children; spans
        nest strictly in one thread, so the children never overlap."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, op, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = defaultdict(lambda: [0.0, 0, 0])
        for i, (name, t0, t1, parent, op, points) in enumerate(self.spans):
            acc = out[("setup" if isinstance(op, tuple) else "op", name)]
            acc[0] += (t1 - t0) - child[i]
            acc[1] += 1
            acc[2] += points
        return out
