"""Kernel backend selection.

The element-block and batched-kernel routines exist twice: a compiled Cython
extension (`_speedups`) and a pure-NumPy module (`_ref`).  The compiled one is
preferred when importable; set LAMEDN_FORCE_PURE=1 to force the NumPy path
(used by the agreement tests and the benchmark).

`kelvin_batch` now serves `fem.green_function` only: the Kelvin members of
`ucp` evaluate their single column in closed form.
"""

from __future__ import annotations

import os

_force_pure = os.environ.get("LAMEDN_FORCE_PURE", "0") not in ("", "0", "false", "no")

if _force_pure:
    from . import _ref as _impl
    BACKEND = "pure"
else:
    try:
        from . import _speedups as _impl  # type: ignore[attr-defined]
        BACKEND = "compiled"
    except ImportError:
        from . import _ref as _impl
        BACKEND = "pure"

stiffness_blocks = _impl.stiffness_blocks
kelvin_batch = _impl.kelvin_batch

__all__ = ["BACKEND", "stiffness_blocks", "kelvin_batch"]
