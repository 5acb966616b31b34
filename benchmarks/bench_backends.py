#!/usr/bin/env python3
"""Timing comparison of the compiled and pure-NumPy kernel backends.

Runs the two hot kernels (P1 element stiffness blocks, batched Kelvin
matrices) on identical inputs through ``lamedn._speedups`` and
``lamedn._ref`` and reports per-call times plus the speedup.  Agreement is
checked before timing so a broken extension cannot post a fast-but-wrong
number.

Usage:
    python benchmarks/bench_backends.py [--mesh-sizes 8 16] [--batch-sizes 10000 100000]
"""

import argparse
import timeit

import numpy as np

from lamedn import _ref
from lamedn.geometry import build_layered_cube

try:
    from lamedn import _speedups
except ImportError:
    _speedups = None


def per_call_seconds(fn, *args, repeat=5):
    timer = timeit.Timer(lambda: fn(*args))
    number, _ = timer.autorange()
    return min(timer.repeat(repeat, number)) / number


def check_agreement(ref_out, fast_out):
    if not isinstance(ref_out, tuple):
        ref_out, fast_out = (ref_out,), (fast_out,)
    worst = 0.0
    for a, b in zip(ref_out, fast_out):
        worst = max(worst, float(np.abs(np.asarray(a) - np.asarray(b)).max()))
    return worst


def row(label, t_ref, t_fast):
    speedup = t_ref / t_fast
    print(f"{label:<38} {1e3 * t_ref:>10.3f} {1e3 * t_fast:>10.3f} {speedup:>8.2f}x")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mesh-sizes", type=int, nargs="+", default=[8, 16],
                    help="layered-cube subdivisions for the element-block kernel")
    ap.add_argument("--batch-sizes", type=int, nargs="+", default=[10_000, 100_000],
                    help="point counts for the Kelvin batch kernel")
    ap.add_argument("--repeat", type=int, default=5, help="timing repeats (best-of)")
    args = ap.parse_args()

    if _speedups is None:
        raise SystemExit("compiled extension lamedn._speedups is not importable; "
                         "build it in place with `python setup.py build_ext --inplace` "
                         "(or `pip install -e . --no-build-isolation`, which needs "
                         "`wheel` with setuptools before 70.1)")

    print(f"{'kernel / size':<38} {'pure (ms)':>10} {'compiled':>10} {'speedup':>9}")
    print("-" * 70)

    for n in args.mesh_sizes:
        mesh = build_layered_cube(2, n)
        coords = np.ascontiguousarray(mesh.vertices[mesh.tets])
        gap = check_agreement(_ref.stiffness_blocks(coords),
                              _speedups.stiffness_blocks(coords))
        assert gap < 1e-12, f"backend mismatch {gap:.3e} on stiffness blocks"
        t_ref = per_call_seconds(_ref.stiffness_blocks, coords, repeat=args.repeat)
        t_fast = per_call_seconds(_speedups.stiffness_blocks, coords, repeat=args.repeat)
        row(f"stiffness_blocks  n={n} ({len(coords)} tets)", t_ref, t_fast)

    rng = np.random.default_rng(0)
    y = np.array([0.2, -0.1, 2.5])
    for m in args.batch_sizes:
        pts = rng.uniform(-1.0, 1.0, (m, 3))
        gap = check_agreement(_ref.kelvin_batch(pts, y, 1.3, 0.28),
                              _speedups.kelvin_batch(pts, y, 1.3, 0.28))
        assert gap < 1e-12, f"backend mismatch {gap:.3e} on kelvin batch"
        t_ref = per_call_seconds(_ref.kelvin_batch, pts, y, 1.3, 0.28,
                                 repeat=args.repeat)
        t_fast = per_call_seconds(_speedups.kelvin_batch, pts, y, 1.3, 0.28,
                                  repeat=args.repeat)
        row(f"kelvin_batch      m={m}", t_ref, t_fast)


if __name__ == "__main__":
    main()
