"""Identification of piecewise-constant elastic moduli from boundary data.

Forward FEM modelling of the local Dirichlet-to-Neumann map of a layered
isotropic body, exact parameter derivatives, closed-form half-space and
bimaterial kernels, Gauss-Newton reconstruction, and empirical probes of the
stability and unique-continuation machinery behind the inversion.

The names each submodule lists in its `__all__` are importable from the
package root.  Submodules load on first use (PEP 562), so `import
lamedn.cli` loads no NumPy before the CLI has capped the BLAS threads.
"""

import importlib

__version__ = "0.1.0"

# Submodules whose `__all__` the package root re-exports.
_SUBMODULES = ("core", "geometry", "kernels", "fem", "inverse", "ucp")


def _exports():
    """{exported name: submodule}, importing every submodule."""
    return {name: sub for sub in _SUBMODULES
            for name in importlib.import_module(f".{sub}", __name__).__all__}


def __getattr__(name):
    # Named submodules load alone: `from lamedn import cli` imports no NumPy.
    if name in (*_SUBMODULES, "backend", "cli"):
        return importlib.import_module(f".{name}", __name__)
    if name == "__all__":
        return [*_SUBMODULES, *_exports()]
    sub = _exports().get(name)
    if sub is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{sub}", __name__), name)
