"""Command-line surface: reproducible runs of every toolkit stage.

All numerical options live in a JSON config; the only flags are --config,
--seed (overrides the config seed), --out, and --threads.  Exit codes:
0 success, 1 a configured acceptance threshold failed, 2 bad config,
3 numeric failure.  A config is bad when it has an unknown key at any level,
a section that is not a JSON object, a value of another type than its
default, or a mesh, box or parameters value out of range.  Outputs are
schema-checked and byte-deterministic for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
import json
import os
import sys

__all__ = ["main", "cmd_forward", "cmd_identity_check", "cmd_derivative_check",
           "cmd_kernels", "cmd_q0", "cmd_probe", "cmd_reconstruct", "cmd_ucp"]

EXIT_OK = 0
EXIT_THRESHOLD = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

_COMMANDS = ("forward", "identity_check", "derivative_check", "kernels",
             "q0", "probe", "reconstruct", "ucp")

_DEFAULTS = {
    "mesh": {"N": 1, "n": 4, "margin": 0.0, "path": None},
    "box": {"alpha0": 0.5, "beta0": 1.0},
    "parameters": None,            # {"lambdas": [...], "mus": [...]} or None -> all 1.0
    "seed": 0,
    "tolerances": {
        "alessandrini": 1e-8,
        "frechet_fd": 1e-5,
        "q0_positive": 0.0,
        "reconstruct_error": 1e-4,
        "three_sphere_violation": 0.05,
        "max_ratio_limit": None,
    },
    "identity": {"num_pairs": 5},
    "derivative": {"num_points": 2, "step": 1e-3},
    "kernels": {"mu": 1.0, "nu": 0.25, "mu_low": 2.0, "nu_low": 0.35,
                "variant": "as-printed", "c": 0.5,
                "x1": [-1.0, 1.0, 9], "x3": [0.0, 1.0, 5]},
    "q0": {"num_samples": 2, "samples": "seeded"},   # or "vertices"
    "probe": {"num_pairs": 10},
    "reconstruct": {"noise_level": 0.0, "init_spread": 0.2, "max_iters": 40,
                    "step_tol": 1e-10},
    "ucp": {"count": 80, "radii": [0.25, 0.5, 1.0], "rho": 1.0,
            "gamma3_deg": 30.0, "r_factor": 0.9, "eps_small": 1e6,
            "caccioppoli": [0.5, 1.0]},
}


class ConfigError(Exception):
    pass


class ThresholdFailure(Exception):
    """Raised by command bodies when a configured acceptance check fails."""

    def __init__(self, name, message):
        super().__init__(message)
        self.name = name


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

def load_config(path=None, seed=None) -> dict:
    cfg = copy.deepcopy(_DEFAULTS)
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = set(user) - set(cfg) - {"command"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, val in user.items():
            section = cfg.get(key)
            if not isinstance(section, dict):
                cfg[key] = val
                continue
            if not isinstance(val, dict):
                raise ConfigError(f"config section {key!r} must be a JSON object")
            unknown = set(val) - set(section)
            if unknown:
                raise ConfigError(f"unknown keys in {key!r}: {sorted(unknown)}")
            section.update(val)
    if seed is not None:
        cfg["seed"] = int(seed)
    _validate_config(cfg)
    return cfg


# The sections whose values must have the types of their defaults, and the
# tolerances that a None value switches off.  mesh.path is a string or None.
_TYPED_SECTIONS = ("mesh", "box", "tolerances", "identity", "derivative", "kernels",
                   "q0", "probe", "reconstruct", "ucp")
_SWITCHED_OFF_BY_NONE = ("q0_positive", "max_ratio_limit")


def _same_type(value, default):
    """Whether a config value has the type of its default: a number for a
    float, an integer for an int, a string for a string, a list of as many
    such entries for a list, and a number for a None default."""
    if default is None:
        default = 0.0
    if isinstance(default, list):
        return (isinstance(value, list) and len(value) == len(default)
                and all(map(_same_type, value, default)))
    if isinstance(value, bool):
        return False
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


def _validate_config(cfg):
    """Raise ConfigError on a value of the wrong type or out of range.  The
    range rules of the mesh, box and parameters are their constructors'."""
    from .core import LameVector
    from .geometry import _check_cube_arguments
    for name in _TYPED_SECTIONS:
        for key, default in _DEFAULTS[name].items():
            value = cfg[name][key]
            if key == "path":
                ok = value is None or isinstance(value, str)
            else:
                ok = (_same_type(value, default)
                      or (value is None and key in _SWITCHED_OFF_BY_NONE))
            if not ok:
                raise ConfigError(f"{name}.{key} = {value!r} has the wrong type")
    if not _same_type(cfg["seed"], _DEFAULTS["seed"]):
        raise ConfigError("seed must be an integer")
    mesh, params = cfg["mesh"], cfg["parameters"]
    try:
        if mesh["path"] is None:
            _check_cube_arguments(mesh["N"], mesh["n"], mesh["margin"])
        _get_box(cfg)
        if params is not None:
            if not isinstance(params, dict) or "lambdas" not in params or "mus" not in params:
                raise ConfigError("parameters must supply lambdas and mus lists")
            for key in ("lambdas", "mus"):
                if not isinstance(params[key], list) or not all(
                        _same_type(v, 0.0) for v in params[key]):
                    raise ConfigError(f"parameters {key} must be a list of numbers")
            LameVector(params["lambdas"], params["mus"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc
    if cfg["q0"]["samples"] not in ("seeded", "vertices"):
        raise ConfigError('q0 samples must be "seeded" or "vertices"')


def _get_mesh(cfg):
    from .geometry import build_layered_cube, load_mesh
    section = cfg["mesh"]
    if section.get("path"):
        return load_mesh(section["path"])
    return build_layered_cube(int(section["N"]), int(section["n"]), float(section["margin"]))


def _get_box(cfg):
    from .core import AdmissibleBox
    return AdmissibleBox(alpha0=float(cfg["box"]["alpha0"]),
                         beta0=float(cfg["box"]["beta0"]))


def _get_parameters(cfg, mesh):
    from .core import LameVector
    params = cfg["parameters"]
    if params is None:
        return LameVector([1.0] * mesh.N, [1.0] * mesh.N)
    vec = LameVector(params["lambdas"], params["mus"])
    if vec.N != mesh.N:
        raise ConfigError(f"parameters have {vec.N} layers, mesh has {mesh.N}")
    return vec


# ---------------------------------------------------------------------------
# Deterministic, schema-checked writers
# ---------------------------------------------------------------------------

def _check_schema(obj, schema, where="report"):
    """schema: {key: type or (types,)}; None values always pass."""
    for key, want in schema.items():
        if key not in obj:
            raise ValueError(f"{where} missing key {key!r}")
        val = obj[key]
        if val is not None and not isinstance(val, want):
            raise ValueError(f"{where}[{key!r}] has type {type(val).__name__}")


_REPORT_SCHEMA = {
    "mesh": dict,
    "gram": str,
    "q0": (int, float),
    "ratios": list,
    "iterates": list,
}


def _write_json(path, obj):
    text = json.dumps(obj, sort_keys=True, indent=2)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _write_csv(path, header, rows):
    """One CSV row per tuple: integers (member ids) as they are, every other
    value as repr(float(v)), so that a float reads back bitwise."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([v if isinstance(v, int) else repr(float(v)) for v in row])


def _write_report(path, report):
    _check_schema(report, _REPORT_SCHEMA)
    for it in report["iterates"]:
        _check_schema(it, {"k": int, "residual": (int, float), "L": list}, "iterate")
    _write_json(path, report)


def _base_report(mesh):
    from .fem import GRAM_LABEL
    return {"mesh": {"N": mesh.N, "n": mesh.n, "num_tets": mesh.num_tets},
            "gram": GRAM_LABEL, "q0": None, "ratios": [], "iterates": []}


def _sample_vectors(count, n_layers, box, seed):
    from .core import sample_admissible
    import numpy as np
    rng = np.random.default_rng(seed)
    return [sample_admissible(n_layers, box, rng=rng) for _ in range(count)]


def _vertex_vectors(n_layers, box):
    """The 4^N vectors whose layers sit at the vertices of the admissible
    (lambda, mu) polygon: mu at alpha0 or 1/alpha0, lambda at 1/alpha0 or
    on the convexity line 2 mu + 3 lambda = beta0."""
    from .core import LameVector
    import itertools
    a0, b0 = box.alpha0, box.beta0
    corners = [(1.0 / a0, a0), (1.0 / a0, 1.0 / a0),
               ((b0 - 2.0 / a0) / 3.0, 1.0 / a0), ((b0 - 2.0 * a0) / 3.0, a0)]
    return [LameVector([c[0] for c in layers], [c[1] for c in layers])
            for layers in itertools.product(corners, repeat=n_layers)]


# ---------------------------------------------------------------------------
# Commands: each returns the process exit code
# ---------------------------------------------------------------------------

def cmd_forward(cfg, out):
    from .fem import assemble, build_cache, dn_matrix, save_matrix_json
    mesh = _get_mesh(cfg)
    vec = _get_parameters(cfg, mesh)
    dn = dn_matrix(assemble(mesh, vec, build_cache(mesh)))
    if dn.entries.shape[0] != dn.entries.shape[1]:
        raise ValueError("DN matrix must be square")
    save_matrix_json(out, dn.entries)
    return EXIT_OK


def cmd_identity_check(cfg, out):
    import numpy as np
    from .fem import alessandrini_residual, build_cache, random_sigma_trace
    mesh = _get_mesh(cfg)
    box = _get_box(cfg)
    cache = build_cache(mesh)
    rng = np.random.default_rng(cfg["seed"])
    tol = float(cfg["tolerances"]["alessandrini"])
    residuals = []
    for l1, l2 in zip(_sample_vectors(cfg["identity"]["num_pairs"], mesh.N, box, cfg["seed"]),
                      _sample_vectors(cfg["identity"]["num_pairs"], mesh.N, box, cfg["seed"] + 1)):
        psi = random_sigma_trace(cache, rng)
        phi = random_sigma_trace(cache, rng)
        residuals.append(alessandrini_residual(mesh, l1, l2, psi, phi, cache)[2])
    report = _base_report(mesh)
    report["check"] = "alessandrini"
    report["residuals"] = [float(r) for r in residuals]
    report["max_residual"] = float(max(residuals))
    report["tolerance"] = tol
    report["pass"] = bool(report["max_residual"] <= tol)
    _write_report(out, report)
    if not report["pass"]:
        raise ThresholdFailure("alessandrini",
                               f"max residual {report['max_residual']:.3e} > {tol:.3e}")
    return EXIT_OK


def cmd_derivative_check(cfg, out):
    import numpy as np
    from .core import LameVector
    from .inverse import build_context, forward, frechet_derivative
    mesh = _get_mesh(cfg)
    box = _get_box(cfg)
    ctx = build_context(mesh, box)
    step = float(cfg["derivative"]["step"])
    tol = float(cfg["tolerances"]["frechet_fd"])
    errors = []
    for vec in _sample_vectors(cfg["derivative"]["num_points"], mesh.N, box, cfg["seed"]):
        jac = frechet_derivative(ctx, vec)
        base = vec.as_array()
        for p, jp in enumerate(jac.mats):
            e = np.zeros_like(base)
            e[p] = step
            fd = (forward(ctx, LameVector.from_array(base + e)).entries
                  - forward(ctx, LameVector.from_array(base - e)).entries) / (2 * step)
            errors.append(float(np.linalg.norm(fd - jp) / max(np.linalg.norm(jp), 1e-300)))
    report = _base_report(mesh)
    report["check"] = "frechet_fd"
    report["errors"] = errors
    report["max_error"] = float(max(errors))
    report["tolerance"] = tol
    report["pass"] = bool(report["max_error"] <= tol)
    _write_report(out, report)
    if not report["pass"]:
        raise ThresholdFailure("frechet_fd",
                               f"max FD mismatch {report['max_error']:.3e} > {tol:.3e}")
    return EXIT_OK


def cmd_kernels(cfg, out):
    import numpy as np
    from .kernels import BiphaseParams, gamma_e3_upper
    section = cfg["kernels"]
    p = BiphaseParams(mu_up=float(section["mu"]), nu_up=float(section["nu"]),
                      mu_low=float(section["mu_low"]), nu_low=float(section["nu_low"]),
                      variant=section["variant"])
    c = float(section["c"])
    a1, b1, m1 = section["x1"]
    a3, b3, m3 = section["x3"]
    rows = []
    for x3 in np.linspace(float(a3), float(b3), int(m3)):
        for x1 in np.linspace(float(a1), float(b1), int(m1)):
            x = np.array([x1, 0.0, x3])
            if np.linalg.norm(x - np.array([0.0, 0.0, c])) < 1e-9:
                continue
            g = gamma_e3_upper(x, c, p)
            rows.append((x1, 0.0, x3, c, g[0], g[1], g[2]))
    _write_csv(out, ["x1", "x2", "x3", "c", "g13", "g23", "g33"], rows)
    return EXIT_OK


def cmd_q0(cfg, out):
    from .inverse import build_context, q0_search
    mesh = _get_mesh(cfg)
    box = _get_box(cfg)
    ctx = build_context(mesh, box)
    if cfg["q0"]["samples"] == "vertices":
        samples = _vertex_vectors(mesh.N, box)
    else:
        samples = _sample_vectors(cfg["q0"]["num_samples"], mesh.N, box, cfg["seed"])
    search = q0_search(ctx, samples)
    q0 = search.q0
    floor = cfg["tolerances"]["q0_positive"]
    report = _base_report(mesh)
    report["q0"] = q0
    report["inv_q0"] = 1.0 / q0 if q0 > 0.0 else None
    report["samples"] = cfg["q0"]["samples"]
    report["num_samples"] = len(samples)
    diagnostics = dataclasses.asdict(search)
    del diagnostics["q0"]
    diagnostics["L"] = [float(u) for u in samples[search.sample].as_array()]
    diagnostics["h"] = [float(u) for u in search.h]
    report["diagnostics"] = diagnostics
    report["pass"] = bool(floor is None or q0 > float(floor))
    _write_report(out, report)
    if not report["pass"]:
        raise ThresholdFailure("q0_positive", f"q0 = {q0:.3e} not above {floor}")
    return EXIT_OK


def cmd_probe(cfg, out):
    from .inverse import build_context, lipschitz_probe
    mesh = _get_mesh(cfg)
    box = _get_box(cfg)
    ctx = build_context(mesh, box)
    num = int(cfg["probe"]["num_pairs"])
    pairs = list(zip(_sample_vectors(num, mesh.N, box, cfg["seed"]),
                     _sample_vectors(num, mesh.N, box, cfg["seed"] + 1)))
    result = lipschitz_probe(ctx, pairs)
    report = _base_report(mesh)
    report["ratios"] = result["ratios"]
    report["max_ratio"] = result["max_ratio"]
    report["gram_hash"] = result["gram_hash"]
    limit = cfg["tolerances"]["max_ratio_limit"]
    report["pass"] = bool(limit is None or result["max_ratio"] <= float(limit))
    _write_report(out, report)
    if not report["pass"]:
        raise ThresholdFailure("max_ratio_limit",
                               f"max ratio {result['max_ratio']:.3e} > {limit}")
    return EXIT_OK


def cmd_reconstruct(cfg, out):
    import numpy as np
    from .core import LameVector
    from .inverse import build_context, forward, reconstruct, star_norm
    mesh = _get_mesh(cfg)
    box = _get_box(cfg)
    ctx = build_context(mesh, box)
    truth = _get_parameters(cfg, mesh)
    rng = np.random.default_rng(cfg["seed"])
    section = cfg["reconstruct"]

    lam_obs = forward(ctx, truth).entries.copy()
    noise = float(section["noise_level"])
    if noise > 0.0:
        raw = rng.standard_normal(lam_obs.shape)
        raw = 0.5 * (raw + raw.T)
        pert = ctx.cache.gram_half @ raw @ ctx.cache.gram_half
        pert *= noise * star_norm(ctx, lam_obs) / star_norm(ctx, pert)
        lam_obs = lam_obs + pert

    spread = float(section["init_spread"])
    init = truth.as_array() * (1.0 + spread * rng.uniform(-1.0, 1.0, 2 * mesh.N))
    l_init = LameVector.from_array(init)    # `reconstruct` projects its start

    l_hat, trace = reconstruct(ctx, lam_obs, l_init,
                               {"max_iters": int(section["max_iters"]),
                                "step_tol": float(section["step_tol"]),
                                "truth": truth})
    err = float(np.abs(l_hat.as_array() - truth.as_array()).max())
    tol = float(cfg["tolerances"]["reconstruct_error"])
    report = _base_report(mesh)
    report["iterates"] = trace
    report["stop_reason"] = trace.stop_reason
    report["diagnostics"] = {"rejected_candidates": trace.rejected}
    report["final_error"] = err
    report["noise_level"] = noise
    report["tolerance"] = tol
    report["pass"] = bool(noise > 0.0 or err <= tol)
    _write_report(out, report)
    if not report["pass"]:
        raise ThresholdFailure("reconstruct_error", f"final error {err:.3e} > {tol:.3e}")
    return EXIT_OK


def cmd_ucp(cfg, out):
    import math
    from .geometry import build_cone_chain
    from .ucp import (caccioppoli_check, cone_propagation_experiment,
                      kelvin_ensemble, three_sphere_fit)
    section = cfg["ucp"]
    count = int(section["count"])
    r1, r2, r3 = [float(v) for v in section["radii"]]
    ens = kelvin_ensemble(count, radius=r3, seed=cfg["seed"])
    fit = three_sphere_fit(ens, r1, r2, r3)
    rho2, rho1_ = [float(v) for v in section["caccioppoli"]]
    cacc = caccioppoli_check(ens, rho2, rho1_)

    gamma3 = math.radians(float(section["gamma3_deg"]))
    chain_rho = float(section["rho"])
    s3 = math.sin(gamma3)
    t0 = chain_rho / math.tan(gamma3) / (1.0 + s3)
    chi = (1.0 - 0.75 * s3) / (1.0 - 0.25 * s3)
    chain = build_cone_chain(chain_rho, gamma3, float(section["r_factor"]) * chi * t0)
    cone_ens = kelvin_ensemble(count // 2, center=(0.0, 0.0, -chain.t0),
                               radius=chain.t0, seed=cfg["seed"] + 1,
                               source_cap=(2, 0.5))
    cone_rep = cone_propagation_experiment(chain, cone_ens, float(section["eps_small"]))

    base, ext = os.path.splitext(out)
    _write_csv(base + "_three_sphere.csv", ["member_id", "r1_int", "r2_int", "r3_int"],
               fit.rows)
    _write_csv(base + "_cone.csv", ["member_id", "eps", "E", "value", "C_impl"],
               [(r["member"], r["eps"], r["E"], r["value"], r["C_impl"])
                for r in cone_rep["rows"]])

    report = {
        "three_sphere": {"theta0": fit.theta0, "logC": fit.logC,
                         "violation_rate": fit.violation_rate,
                         "n_fit": fit.n_fit, "n_test": fit.n_test},
        "caccioppoli_max": float(cacc),
        "cone": {"theta_bar": cone_rep["theta_bar"], "eta_r": cone_rep["eta_r"],
                 "k0": cone_rep["k0"], "max_C_impl": cone_rep["max_C_impl"],
                 "num_rows": len(cone_rep["rows"])},
    }
    _check_schema(report["three_sphere"],
                  {"theta0": (int, float), "logC": (int, float),
                   "violation_rate": (int, float)}, "three_sphere")
    _write_json(out, report)
    tol = float(cfg["tolerances"]["three_sphere_violation"])
    if not (0.0 < fit.theta0 < 1.0):
        raise ThresholdFailure("three_sphere_theta", f"theta0 = {fit.theta0} outside (0,1)")
    if fit.violation_rate > tol:
        raise ThresholdFailure("three_sphere_violation",
                               f"violation rate {fit.violation_rate:.3f} > {tol}")
    return EXIT_OK


_DISPATCH = {
    "forward": cmd_forward,
    "identity_check": cmd_identity_check,
    "derivative_check": cmd_derivative_check,
    "kernels": cmd_kernels,
    "q0": cmd_q0,
    "probe": cmd_probe,
    "reconstruct": cmd_reconstruct,
    "ucp": cmd_ucp,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lamedn",
        description="Layered elastic DN-map toolkit: forward solves, derivative "
                    "and identity checks, stability probes, reconstruction, and "
                    "unique-continuation experiments.")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", default=None, help="JSON config path")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", default=None, help="output file path")
    parser.add_argument("--threads", type=int, default=None,
                        help="cap on BLAS/OpenMP threads (default: the "
                             "environment's setting, else 1)")
    args = parser.parse_args(argv)

    # Takes effect only before NumPy loads; the package root imports none.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        if args.threads is None:
            os.environ.setdefault(var, "1")
        else:
            os.environ[var] = str(max(1, args.threads))

    try:
        cfg = load_config(args.config, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out = args.out or f"lamedn_{args.command}.json"
    if args.command == "kernels" and args.out is None:
        out = "lamedn_kernels.csv"

    try:
        return _DISPATCH[args.command](cfg, out)
    except ThresholdFailure as exc:
        print(f"FAIL {exc.name}: {exc}", file=sys.stderr)
        return EXIT_THRESHOLD
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:          # numeric / solver failure
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
