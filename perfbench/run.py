#!/usr/bin/env python3
"""The lamedn benchmark.

    python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1
    python3 perfbench/run.py --workload all --seed S --seconds T

Runs from the root of a source checkout and imports the package from `src/`
(with whichever kernel backend imports).  One run sets the workload up,
runs closed-loop operations on seeded inputs until their summed wall time
reaches T seconds, checks every result between operations, sets up again a
fixed number of times (setup_s is the median), checks once more, and prints
one JSON object as its last line: end-to-end metrics with --trace 0,
per-layer self times and counts per operation with --trace 1.  `all` runs
every workload untraced and traced, one process at a time, and also prints
the tracing overhead.  Result and span files go to perfbench/out/.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, as the CLI's --threads default; numpy is imported later.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
NAMES = ("probe", "reconstruct", "q0", "three-sphere")

# (metric, span name, field, phase): per set-up or per operation.
PER_LAYER = [
    ("geometry.build_layered_cube_s", "geometry.build_layered_cube", "self", "setup"),
    ("backend.stiffness_blocks_s", "backend.stiffness_blocks", "self", "setup"),
    ("fem.build_cache_s", "fem.build_cache", "self", "setup"),
    ("fem.assemble_s", "fem.assemble", "self", "op"),
    ("fem.assemble_calls", "fem.assemble", "calls", "op"),
    ("fem.factor_s", "fem.factor", "self", "op"),
    ("fem.factor_calls", "fem.factor", "calls", "op"),
    ("fem.dn_matrix_s", "fem.dn_matrix", "self", "op"),
    ("inverse.forward_calls", "inverse.forward", "calls", "op"),
    ("inverse.frechet_derivative_s", "inverse.frechet_derivative", "self", "op"),
    ("inverse.frechet_derivative_calls", "inverse.frechet_derivative", "calls", "op"),
    ("inverse.star_norm_s", "inverse.star_norm", "self", "op"),
    ("inverse.q0_face_s", "inverse.q0_estimate", "self", "op"),
    ("inverse.reconstruct_self_s", "inverse.reconstruct", "self", "op"),
    ("ucp.ball_l2_s", "ucp.ball_l2", "self", "op"),
    ("ucp.ball_l2_calls", "ucp.ball_l2", "calls", "op"),
    ("backend.kelvin_batch_s", "backend.kelvin_batch", "self", "op"),
    ("backend.kelvin_batch_points", "backend.kelvin_batch", "points", "op"),
    ("ucp.three_sphere_fit_s", "ucp.three_sphere_fit", "self", "op"),
]


def import_package():
    """Import lamedn from this checkout's src/, never from elsewhere."""
    if not (SRC / "lamedn" / "__init__.py").is_file():
        sys.exit(f"benchmark: no package source at {SRC / 'lamedn'}; "
                 "run from the root of a lamedn checkout")
    sys.path.insert(0, str(SRC))
    import lamedn
    if Path(lamedn.__file__).resolve().parent != (SRC / "lamedn").resolve():
        sys.exit(f"benchmark: lamedn imported from {lamedn.__file__}, not {SRC}")


def environment():
    import numpy
    import scipy
    from lamedn import backend
    return {"backend": backend.BACKEND, "blas_threads": BLAS_THREADS,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def run(name, seed, seconds, trace):
    import numpy as np

    from spans import Tracer
    from workloads import WORKLOADS

    w = WORKLOADS[name]
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()

    def set_up():
        if tracer:
            tracer.op = ("setup", len(setup_times))
        rng = np.random.default_rng([seed, 0])
        t0 = time.perf_counter()
        state = w.setup(rng)
        setup_times.append(time.perf_counter() - t0)
        if tracer:
            tracer.op = None
        return state

    setup_times = []
    state = set_up()

    rng = np.random.default_rng([seed, 1])
    check_rng = np.random.default_rng([seed, 2])
    durations, errors, counts = [], [], {}
    attempted = failed = 0
    elapsed = 0.0
    first = None
    while elapsed < seconds:
        inp = w.inputs(state, rng, attempted)
        if first is None:
            first = inp
        if tracer:
            tracer.op = attempted
        attempted += 1
        t0 = time.perf_counter()
        try:
            result = w.op(state, inp)
        except Exception as exc:  # an operation that raises counts as failed
            failed += 1
            errors.append(f"operation {attempted - 1} failed: {exc!r}")
            continue
        finally:
            dt = time.perf_counter() - t0
            elapsed += dt
            if tracer:
                tracer.op = None
        durations.append(dt)
        for key, value in w.counts(result).items():
            counts[key] = counts.get(key, 0) + value
        errors += [f"operation {attempted - 1}: {e}" for e in w.check_op(state, inp, result, check_rng)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # The further set-ups, timed only, come after the peak is read, so that it
    # is the peak of one set-up and the operations, as a user would run them.
    while len(setup_times) < w.setup_repeats:
        set_up()
    if tracer:
        tracer.uninstall()
    errors += w.check_run(state, first, check_rng)

    if trace:
        metrics = per_layer(tracer, len(setup_times), attempted, counts)
        metrics["traced_op_p50_s"] = {"value": statistics.median(durations), "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "op_p50_s": {"value": statistics.median(durations), "unit": "s"},
            "ops_per_s": {"value": len(durations) / elapsed, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{name}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump({"workload": name, "seed": seed, "seconds": seconds,
                   "env": environment(), "errors": errors,
                   "setup_times": setup_times, "op_durations": durations,
                   "result": result,
                   "spans": tracer.spans if tracer else []}, fh)
    return result, errors


def per_layer(tracer, setups, ops, counts):
    totals = tracer.self_times()
    field = {"self": 0, "calls": 1, "points": 2}
    out = {}
    for metric, span, kind, phase in PER_LAYER:
        total = totals.get((phase, span), [0.0, 0, 0])[field[kind]]
        out[metric] = {"value": total / (setups if phase == "setup" else ops),
                       "unit": "s" if kind == "self" else "count"}
    out["inverse.gn_iterations"] = {"value": counts.get("inverse.gn_iterations", 0) / ops,
                                    "unit": "count"}
    return out


def print_metrics(name, result):
    for metric, m in result["metrics"].items():
        print(f"{name:<13} {metric:<34} {m['value']:>14.6g} {m['unit']}")


def run_all(seed, seconds):
    """Each workload untraced then traced, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in NAMES:
        results = []
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                sys.exit(f"benchmark: workload {name} (trace {trace}) "
                         f"exited with code {proc.returncode}")
            results.append(json.loads(lines[-1]))
        plain, traced = results
        overhead = (traced["metrics"]["traced_op_p50_s"]["value"]
                    / plain["metrics"]["op_p50_s"]["value"] - 1.0)
        rows.append((name, plain, traced, overhead))
        combined["correct"] &= plain["correct"] and traced["correct"]
        combined["attempted"] += plain["attempted"]
        combined["failed"] += plain["failed"]
        for metric, m in plain["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    for name, plain, traced, overhead in rows:
        print(f"{name}: correct={plain['correct'] and traced['correct']} "
              f"attempted={plain['attempted']} failed={plain['failed']}")
        print_metrics(name, plain)
        print_metrics(name, traced)
        print(f"{name:<13} {'tracing overhead on op_p50_s':<34} {100 * overhead:>13.2f}%")
    print(json.dumps(combined))


def main():
    ap = argparse.ArgumentParser(description="lamedn benchmark")
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    seed = args.seed % 2 ** 64

    import_package()
    if args.workload == "all":
        run_all(seed, args.seconds)
        return
    result, errors = run(args.workload, seed, args.seconds, bool(args.trace))
    print("env: " + json.dumps(environment()))
    for e in errors:
        print(f"check failed: {e}")
    print(f"{args.workload}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    print_metrics(args.workload, result)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
