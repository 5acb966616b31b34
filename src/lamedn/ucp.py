"""Empirical laboratory for unique-continuation estimates.

Ensembles of exact constant-coefficient elastic fields (point-source columns
and linear displacements) are integrated over balls, cones, and nested-ball
chains to fit three-sphere inequalities, check Caccioppoli-type bounds, and
measure smallness propagation along a cone chain.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import backend
from .geometry import ConeChain, eta_r

__all__ = [
    "SolutionMember",
    "SolutionEnsemble",
    "kelvin_ensemble",
    "linear_ensemble",
    "ball_l2",
    "cone_l2",
    "ThreeSphereFit",
    "three_sphere_fit",
    "caccioppoli_check",
    "cone_propagation_experiment",
]


# ---------------------------------------------------------------------------
# Exact solution ensembles
# ---------------------------------------------------------------------------

@dataclass
class SolutionMember:
    """One exact solution of the constant-coefficient system.

    kind "kelvin": u(x) = Gamma(x; source) @ direction with moduli (mu, nu),
    evaluated as one Kelvin column by `backend.kelvin_batch`;
    kind "linear": u(x) = matrix @ x (harmonic and divergence-affine, hence an
    exact solution for any moduli).  Both accept single points or (m, 3)
    batches.
    """

    kind: str
    index: int = 0
    mu: float = 1.0
    nu: float = 0.3
    source: np.ndarray = None
    direction: np.ndarray = None
    matrix: np.ndarray = None

    def __call__(self, x):
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        if self.kind == "linear":
            out = pts @ self.matrix.T
        else:
            out = backend.kelvin_batch(pts, self.source, self.mu, self.nu, self.direction)
        return out[0] if np.ndim(x) == 1 else out

    def grad(self, x):
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        if self.kind == "linear":
            out = np.broadcast_to(self.matrix, (len(pts), 3, 3)).copy()
        else:
            # (grad u)[i, k] = D[i, j, k] e_j with D[i, j, k] = d Gamma_ij / d x_k;
            # contracting the point-force column first keeps it one broadcast.
            e = self.direction
            r = pts - self.source
            rn = np.linalg.norm(r, axis=1)
            er = r @ e
            pref = 1.0 / (16.0 * math.pi * self.mu * (1.0 - self.nu))
            kappa = 3.0 - 4.0 * self.nu
            out = (np.eye(3) * er[:, None, None]
                   + r[:, :, None] * e[None, None, :]
                   - kappa * e[None, :, None] * r[:, None, :]) / rn[:, None, None] ** 3
            out -= 3.0 * er[:, None, None] * r[:, :, None] * r[:, None, :] / rn[:, None, None] ** 5
            out *= pref
        return out[0] if np.ndim(x) == 1 else out

    def check_ball(self, center, radius):
        """Raise if the closed ball exits this member's validity region."""
        if self.kind == "kelvin":
            dist = float(np.linalg.norm(np.asarray(center, float) - self.source))
            if dist <= radius * (1.0 + 1e-12):
                raise ValueError("integration ball contains the point source")

    def is_zero(self) -> bool:
        if self.kind == "linear":
            return not self.matrix.any()
        return not np.asarray(self.direction).any()


@dataclass
class SolutionEnsemble:
    """Indexed family of exact solutions sharing a validity ball about
    `center`, which the generator kept free of singularities; individual
    members may be valid on more.
    """

    members: list
    center: np.ndarray

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def _unit_vectors(rng, count):
    v = rng.normal(size=(count, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def kelvin_ensemble(count, center=(0.0, 0.0, 0.0), radius=1.0, seed=0,
                    source_cap=None) -> SolutionEnsemble:
    """Point-source columns with sources strictly outside the validity ball.

    Sources sit at distance U[1.5, 4] * radius from the center, in random
    directions (restricted to the upper axis cap when source_cap=(axis_dim,
    min_cos) is given); directions of the columns are random unit vectors.
    Every member has the moduli mu = 1, nu = 0.3.
    """
    rng = np.random.default_rng(seed)
    center = np.asarray(center, dtype=float)
    members = []
    for i in range(count):
        while True:
            d = _unit_vectors(rng, 1)[0]
            if source_cap is None or d[source_cap[0]] >= source_cap[1]:
                break
        dist = rng.uniform(1.5, 4.0) * radius
        members.append(SolutionMember(
            kind="kelvin", index=i, source=center + dist * d,
            direction=_unit_vectors(rng, 1)[0]))
    return SolutionEnsemble(members, center)


def linear_ensemble(count, center=(0.0, 0.0, 0.0), seed=0,
                    scale=1.0) -> SolutionEnsemble:
    """Random linear displacement fields u = A x (exact solutions: all second
    derivatives vanish)."""
    rng = np.random.default_rng(seed)
    members = [SolutionMember(kind="linear", index=i,
                              matrix=scale * rng.normal(size=(3, 3)))
               for i in range(count)]
    return SolutionEnsemble(members, np.asarray(center, dtype=float))


# ---------------------------------------------------------------------------
# Quadratures
# ---------------------------------------------------------------------------

@functools.cache
def _panel_rule():
    """Composite Gauss-Legendre nodes/weights on [0, 1]: 4 equal
    subintervals, 6 points each.  Built once, on first use; the arrays are
    read-only because every caller shares them."""
    x, w = np.polynomial.legendre.leggauss(6)
    edges = np.linspace(0.0, 1.0, 5)
    h = 0.5 * np.diff(edges)[:, None]
    nodes = (edges[:-1, None] + h * (x + 1.0)).ravel()
    weights = (h * w).ravel()
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@functools.cache
def _unit_ball_rule():
    """Spherical tensor-product rule on the unit ball: the (rho, theta, phi)
    grid of `_panel_rule` on [0, 1] x [0, pi] x [0, 2 pi], as (m, 3) points
    and (m,) weights with the Jacobian rho^2 sin(theta) folded in.  Built
    once and read-only like `_panel_rule`."""
    t, w = _panel_rule()
    st, ct = np.sin(math.pi * t), np.cos(math.pi * t)
    cp, sp = np.cos(2.0 * math.pi * t), np.sin(2.0 * math.pi * t)
    # points[i_r, i_t, i_p, :]
    rs = t[:, None, None] * st[None, :, None]
    xyz = np.broadcast_arrays(rs * cp, rs * sp, t[:, None, None] * ct[None, :, None])
    pts = np.stack(xyz, axis=-1).reshape(-1, 3)
    wts = ((t ** 2 * w)[:, None, None] * (st * math.pi * w)[None, :, None]
           * (2.0 * math.pi * w)[None, None, :]).ravel()
    pts.flags.writeable = wts.flags.writeable = False
    return pts, wts


def ball_l2(u, center, radius) -> float:
    """Squared L2 norm of a (vector) field over a ball.

    Spherical tensor-product Gauss: the composite Gauss-Legendre rule of
    `_panel_rule` per axis of the (rho, theta, phi) grid, 24^3 points.  The
    unit-ball rule is built once and mapped to center + radius * x with
    weights scaled by radius^3.  The field is called on one point batch;
    any component count is accepted (the squared Euclidean norm of the output
    is integrated).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    pts, wts = _unit_ball_rule()
    if hasattr(u, "check_ball"):
        u.check_ball(center, radius)
    center = np.asarray(center, dtype=float)
    x = radius * pts
    x += center
    vals = np.asarray(u(x), dtype=float).reshape(len(pts), -1)
    return float(radius ** 3 * (wts @ (vals * vals)).sum())


def cone_l2(u, rho, gamma3) -> float:
    """Squared L2 norm over the truncated cone: apex at the origin, axis -e3,
    half-angle gamma3, cut at depth H rho with H = 1/tan(gamma3).

    Coordinates (x3, q, phi) with the cross-section disk of radius
    |x3| tan(gamma3) scaled to the unit q-interval, each axis on the
    `_panel_rule` that `ball_l2` uses.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    if not 0.0 < gamma3 < 0.5 * math.pi:
        raise ValueError("gamma3 must lie in (0, pi/2)")
    t, w = _panel_rule()
    tan3 = math.tan(gamma3)
    depth = rho / tan3
    z_n, z_w = depth * (t - 1.0), depth * w
    p_n, p_w = 2.0 * math.pi * t, 2.0 * math.pi * w

    rad = np.abs(z_n) * tan3                         # disk radius per slice
    rr = rad[:, None] * t[None, :]                    # (z, q)
    x = rr[:, :, None] * np.cos(p_n)[None, None, :]
    y = rr[:, :, None] * np.sin(p_n)[None, None, :]
    z = np.broadcast_to(z_n[:, None, None], x.shape)
    pts = np.stack([x, y, z], axis=-1).reshape(-1, 3)
    vals = np.asarray(u(pts), dtype=float).reshape(len(pts), -1)
    f = (vals ** 2).sum(axis=1).reshape(t.size, t.size, t.size)
    jac = (rad ** 2 * z_w)[:, None, None] * (t * w)[None, :, None] * p_w[None, None, :]
    return float((f * jac).sum())


# ---------------------------------------------------------------------------
# Three-sphere inequality fit
# ---------------------------------------------------------------------------

@dataclass
class ThreeSphereFit:
    theta0: float
    logC: float
    violation_rate: float
    n_fit: int
    n_test: int
    rows: list = field(default_factory=list, repr=False)


def _least_spread(c, s, lo, hi):
    """Smallest minimiser on [lo, hi] of the spread max_i r_i - min_i r_i of
    the lines r_i(theta) = c_i - theta s_i.

    The spread is convex and piecewise linear: near theta it is the line
    r_i - r_k of the pair (i, k) = (argmax, argmin), with slope s_k - s_i.
    The loop keeps a piece with negative slope at lo and one with
    non-negative slope at hi, and evaluates the piece at their crossing.
    If it has the slope of either, the spread is linear from the crossing to
    that end, so the crossing is the smallest minimiser; otherwise it
    replaces the end on its side.  Each replacement is a piece not seen
    before, so the loop ends after at most as many steps as the spread has
    pieces, on a kink rather than within a tolerance of one.
    """
    def piece(theta):
        r = c - theta * s
        i, k = r.argmax(), r.argmin()
        return c[i] - c[k], s[k] - s[i]

    a_lo, m_lo = piece(lo)
    if m_lo >= 0.0:
        return lo
    a_hi, m_hi = piece(hi)
    if m_hi < 0.0:
        return hi
    while True:
        theta = (a_lo - a_hi) / (m_hi - m_lo)
        if not lo < theta < hi:
            return min(max(theta, lo), hi)
        a, m = piece(theta)
        if m in (m_lo, m_hi):
            return theta
        if m < 0.0:
            lo, a_lo, m_lo = theta, a, m
        else:
            hi, a_hi, m_hi = theta, a, m


def three_sphere_fit(ensemble: SolutionEnsemble, r1, r2, r3,
                     fit_fraction=0.5) -> ThreeSphereFit:
    """Chebyshev fit of log I2 <= theta log I1 + (1 - theta) log I3 + log C
    over concentric balls B_r1 in B_r2 in B_r3 at the ensemble center.

    With residuals r_i(theta) = log I2_i - theta log I1_i - (1-theta) log I3_i
    the fit minimizes the maximum violation of the uniform bound over the fit
    half: the intercept is the Chebyshev-optimal (max+min)/2, so the objective
    is the residual spread, which is convex and piecewise linear in theta.
    theta0 is its exact minimiser on [1e-6, 1 - 1e-6], a kink of the spread
    or a bound.  Where the spread is flat at its minimum, theta0 is the
    smallest minimiser; a spread flat throughout (one fit member, or members
    whose residuals differ by constants) gives theta0 = 1e-6.  log C is the
    max residual at theta0 (the bound is tight at the worst fit member).  The
    violation rate counts held-out members exceeding the fitted bound.
    """
    if not (0.0 < r1 <= r2 < r3):
        raise ValueError("radii must satisfy 0 < r1 <= r2 < r3")
    if len(ensemble) == 0:
        raise ValueError("ensemble is empty")

    rows = []
    logs = []
    for m in ensemble:
        if m.is_zero():
            continue
        i1 = ball_l2(m, ensemble.center, r1)
        i2 = ball_l2(m, ensemble.center, r2)
        i3 = ball_l2(m, ensemble.center, r3)
        if min(i1, i2, i3) <= 0.0:
            continue
        rows.append((m.index, i1, i2, i3))
        logs.append((math.log(i1), math.log(i2), math.log(i3)))
    if not logs:
        raise ValueError("degenerate ensemble: every member vanishes")

    logs = np.asarray(logs)
    n_fit = max(1, int(round(len(logs) * fit_fraction)))
    fit, test = logs[:n_fit], logs[n_fit:]

    a1, b, a3 = fit[:, 0], fit[:, 1], fit[:, 2]
    theta0 = float(_least_spread(b - a3, a1 - a3, 1e-6, 1.0 - 1e-6))
    logc = float((b - theta0 * a1 - (1.0 - theta0) * a3).max())

    if len(test):
        viol = test[:, 1] - theta0 * test[:, 0] - (1.0 - theta0) * test[:, 2]
        rate = float(np.mean(viol > logc + 1e-9))
    else:
        rate = 0.0
    return ThreeSphereFit(theta0=theta0, logC=logc, violation_rate=rate,
                          n_fit=int(n_fit), n_test=int(len(test)), rows=rows)


def caccioppoli_check(ensemble: SolutionEnsemble, rho2, rho1) -> float:
    """Max over the ensemble of (rho1 - rho2)^2 * int_{B_rho2}|grad u|^2 /
    int_{B_rho1}|u|^2 -- the constant implied by the interior gradient bound.
    Zero-gradient members contribute 0."""
    if not (0.0 < rho2 < rho1):
        raise ValueError("need 0 < rho2 < rho1")
    worst = 0.0
    for m in ensemble:
        if m.is_zero():
            continue
        num = ball_l2(lambda x: m.grad(x).reshape(np.atleast_2d(x).shape[0], 9),
                      ensemble.center, rho2)
        if num == 0.0:
            continue
        den = ball_l2(m, ensemble.center, rho1)
        worst = max(worst, (rho1 - rho2) ** 2 * num / den)
    return float(worst)


# ---------------------------------------------------------------------------
# Cone smallness propagation
# ---------------------------------------------------------------------------

def cone_propagation_experiment(chain: ConeChain, ensemble: SolutionEnsemble,
                                eps_small: float, theta_bar=None) -> dict:
    """Measure the implied constant of the cone propagation bound
    |u(-r e3)| <= (C / r^{3/2}) eps^{eta_r} E^{1 - eta_r}.

    eps^2 is the L2 mass on the first chain ball B_{t sin gamma1}(w_1), E^2
    the mass on the whole truncated cone; members failing eps <= eps_small
    are screened out, zero members are skipped.  theta_bar defaults to a
    three-sphere fit on the first chain ball triple.
    """
    if theta_bar is None:
        first = SolutionEnsemble(list(ensemble.members), chain.centers[0].copy())
        theta_bar = three_sphere_fit(first, chain.r1k[0], chain.r2k[0], chain.r3k[0],
                                     fit_fraction=1.0).theta0
    eta = eta_r(chain, theta_bar)
    probe = chain.centers[-1]          # w_{k0} = -r e3
    rows, skipped, screened = [], [], []
    for m in ensemble:
        if m.is_zero():
            skipped.append(m.index)
            continue
        eps2 = ball_l2(m, chain.centers[0], chain.r1k[0])
        if eps2 > eps_small ** 2:
            screened.append(m.index)
            continue
        e2 = cone_l2(m, chain.rho, chain.gamma3)
        eps, big_e = math.sqrt(eps2), math.sqrt(max(e2, eps2))
        value = float(np.linalg.norm(m(probe)))
        c_impl = value * chain.r ** 1.5 / (eps ** eta * big_e ** (1.0 - eta))
        if not math.isfinite(c_impl):
            raise ArithmeticError(f"non-finite implied constant for member {m.index}")
        rows.append({"member": int(m.index), "eps": eps, "E": big_e,
                     "value": value, "C_impl": c_impl})
    if not rows:
        raise ValueError("no members passed the smallness screen; "
                         "increase eps_small")
    return {
        "theta_bar": float(theta_bar),
        "eta_r": float(eta),
        "k0": chain.k0,
        "rows": rows,
        "max_C_impl": float(max(r["C_impl"] for r in rows)),
        "skipped": skipped,
        "screened_out": screened,
    }

