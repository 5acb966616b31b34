"""Closed-form elastostatic kernels.

Free-space Kelvin fundamental solution, the biphase laminate solution for a
point force above a welded planar interface (upper half-space x3 > 0 with
moduli (mu, nu), lower with (mu', nu')), and the on-axis difference /
parameter-derivative formulas built from it.

All gradients are hand-differentiated closed forms; a finite-difference
residual helper exists solely for self-tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import poisson_ratio

__all__ = [
    "BiphaseParams",
    "f1_alpha",
    "f2_gamma",
    "gamma_e3_upper",
    "kelvin_matrix",
    "kelvin_gradient",
    "gamma33_ondiag_difference",
    "dgamma33_dt",
    "lame_lambda",
    "elastic_residual_fd",
]

_VARIANTS = ("as-printed", "mu-variant")


def lame_lambda(mu: float, nu: float) -> float:
    """First Lamé parameter from (mu, nu): lambda = 2 mu nu / (1 - 2 nu)."""
    if nu >= 0.5:
        raise ValueError("nu must be < 1/2")
    return 2.0 * mu * nu / (1.0 - 2.0 * nu)


def f1_alpha(mu: float, mu_low: float, nu: float) -> float:
    """Interface contrast alpha = (mu - mu') / (mu + (3 - 4 nu) mu')."""
    den = mu + (3.0 - 4.0 * nu) * mu_low
    if den == 0.0:
        raise ZeroDivisionError("alpha denominator vanishes")
    return (mu - mu_low) / den


def f2_gamma(mu: float, mu_low: float, nu: float, nu_low: float,
             denominator_variant: str = "as-printed") -> float:
    """Interface coefficient gamma multiplying the logarithmic term.

    gamma = 4(1-nu) mu [ (1-2nu)(3-4nu') - 2((nu-nu')/(mu-mu')) mu' ] / den

    ``denominator_variant`` selects den = mu' + (3-4nu') nu (``as-printed``)
    or den = mu' + (3-4nu') mu (``mu-variant``, the dimensionally consistent
    alternate).  When nu = nu' the ratio term is 0 by its (nu - nu') factor,
    which keeps the equal-phase case finite for any mu, mu'.
    """
    if denominator_variant not in _VARIANTS:
        raise ValueError(f"unknown denominator_variant {denominator_variant!r}")
    if nu == nu_low:
        ratio_term = 0.0
    elif mu == mu_low:
        raise ZeroDivisionError("gamma singular: mu = mu' with nu != nu'")
    else:
        ratio_term = 2.0 * ((nu - nu_low) / (mu - mu_low)) * mu_low
    trailing = nu if denominator_variant == "as-printed" else mu
    den = mu_low + (3.0 - 4.0 * nu_low) * trailing
    if den == 0.0:
        raise ZeroDivisionError("gamma denominator vanishes")
    return 4.0 * (1.0 - nu) * mu * ((1.0 - 2.0 * nu) * (3.0 - 4.0 * nu_low) - ratio_term) / den


@dataclass(frozen=True)
class BiphaseParams:
    """Material pair of the laminate: (mu_up, nu_up) for x3 > 0 and
    (mu_low, nu_low) for x3 < 0.  alpha and gamma are always recomputed from
    the moduli (exposed as properties, never stored)."""

    mu_up: float
    nu_up: float
    mu_low: float
    nu_low: float
    variant: str = "as-printed"

    def __post_init__(self):
        if self.mu_up <= 0 or self.mu_low <= 0:
            raise ValueError("shear moduli must be positive")
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")

    @property
    def alpha(self) -> float:
        return f1_alpha(self.mu_up, self.mu_low, self.nu_up)

    @property
    def gamma(self) -> float:
        return f2_gamma(self.mu_up, self.mu_low, self.nu_up, self.nu_low, self.variant)

    @classmethod
    def from_lame(cls, lam_up, mu_up, lam_low, mu_low):
        return cls(mu_up=mu_up, nu_up=poisson_ratio(lam_up, mu_up),
                   mu_low=mu_low, nu_low=poisson_ratio(lam_low, mu_low))

    def same_upper_phase(self, other: "BiphaseParams") -> bool:
        return (abs(self.mu_up - other.mu_up) <= 1e-12 * max(1.0, abs(self.mu_up))
                and abs(self.nu_up - other.nu_up) <= 1e-12)


def gamma_e3_upper(x, c: float, p: BiphaseParams):
    """Third column Gamma(x, y) e3 of the laminate solution, x in x3 >= 0,
    for the point force at y = (0, 0, c), c > 0.

    With R1 = |x - (0,0,c)|, R2 = |x + (0,0,c)| and alpha, gamma from the
    material pair:

        Gamma e3 = ((3-4nu)/(4(1-nu))) (0,0,B) - (1/(4(1-nu))) [x3 grad B + grad beta]
        B    =  (1/(4 pi mu)) { 1/R1 + alpha [ (3-4nu)/R2 + 2c(x3+c)/R2^3 ] }
        beta = -(1/(4 pi mu)) { c/R1 + alpha [ c(3-4nu)/R2 - gamma log(R2+x3+c) ] }

    Gradients are closed-form.  Accepts a single point or an (m, 3) batch.
    """
    c = float(c)
    if not c > 0:
        raise ValueError("source height c must be positive")
    mu, nu = p.mu_up, p.nu_up
    alpha, gamma = p.alpha, p.gamma

    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if pts.shape[-1] != 3:
        raise ValueError("points must be 3-D")
    if (pts[:, 2] < 0).any():
        raise ValueError("evaluation restricted to the upper half-space x3 >= 0")

    r1v = pts - np.array([0.0, 0.0, c])
    r2v = pts + np.array([0.0, 0.0, c])
    r1 = np.linalg.norm(r1v, axis=1)
    r2 = np.linalg.norm(r2v, axis=1)
    if (r1 < 1e-14 * max(1.0, c)).any():
        raise ValueError("evaluation at the source point")

    pref = 1.0 / (4.0 * math.pi * mu)
    x3c = pts[:, 2] + c
    e3 = np.array([0.0, 0.0, 1.0])

    b_val = pref * (1.0 / r1 + alpha * ((3.0 - 4.0 * nu) / r2 + 2.0 * c * x3c / r2 ** 3))
    grad_b = pref * (
        -r1v / r1[:, None] ** 3
        + alpha * (
            -(3.0 - 4.0 * nu) * r2v / r2[:, None] ** 3
            + 2.0 * c * (e3 / r2[:, None] ** 3 - 3.0 * x3c[:, None] * r2v / r2[:, None] ** 5)
        )
    )
    # grad log(R2 + x3 + c): lateral components x_i/(R2 (R2+x3+c)), vertical 1/R2.
    grad_log = np.empty_like(pts)
    denom = r2 * (r2 + x3c)
    grad_log[:, 0] = pts[:, 0] / denom
    grad_log[:, 1] = pts[:, 1] / denom
    grad_log[:, 2] = 1.0 / r2
    grad_beta = -pref * (
        -c * r1v / r1[:, None] ** 3
        + alpha * (-c * (3.0 - 4.0 * nu) * r2v / r2[:, None] ** 3 - gamma * grad_log)
    )

    out = ((3.0 - 4.0 * nu) / (4.0 * (1.0 - nu))) * b_val[:, None] * e3 \
        - (pts[:, 2:3] * grad_b + grad_beta) / (4.0 * (1.0 - nu))
    return out[0] if np.asarray(x).ndim == 1 else out


def kelvin_matrix(x, y, mu: float, nu: float) -> np.ndarray:
    """Free-space fundamental matrix
    Gamma_ij = (1/(16 pi mu (1-nu))) [ (3-4nu) delta_ij / R + r_i r_j / R^3 ].
    """
    r = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    dist = float(np.linalg.norm(r))
    if dist == 0.0:
        raise ValueError("coincident evaluation and source points")
    pref = 1.0 / (16.0 * math.pi * mu * (1.0 - nu))
    return pref * ((3.0 - 4.0 * nu) * np.eye(3) / dist + np.outer(r, r) / dist ** 3)


def kelvin_gradient(x, y, mu: float, nu: float) -> np.ndarray:
    """Gradient tensor D[i, j, k] = d Gamma_ij / d x_k of the Kelvin matrix."""
    r = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    dist = float(np.linalg.norm(r))
    if dist == 0.0:
        raise ValueError("coincident evaluation and source points")
    pref = 1.0 / (16.0 * math.pi * mu * (1.0 - nu))
    eye = np.eye(3)
    d3, d5 = dist ** 3, dist ** 5
    out = (
        -(3.0 - 4.0 * nu) * np.einsum("ij,k->ijk", eye, r) / d3
        + (np.einsum("ik,j->ijk", eye, r) + np.einsum("jk,i->ijk", eye, r)) / d3
        - 3.0 * np.einsum("i,j,k->ijk", r, r, r) / d5
    )
    return pref * out


def _ondiag_groups(p: BiphaseParams, c: float):
    """The three printed groups of Gamma33(e3, c e3) for one material pair:
    Kelvin part 1/(4 pi mu |1-c|), the interface 1/(1+c) bracket, and the
    c/(1+c)^3 bracket."""
    mu, nu = p.mu_up, p.nu_up
    alpha, gamma = p.alpha, p.gamma
    g1 = 1.0 / (4.0 * math.pi * mu * (1.0 - c))
    g2 = alpha * ((3.0 - 4.0 * nu) ** 2 + (3.0 - 4.0 * nu) - gamma) \
        / (16.0 * math.pi * mu * (1.0 - nu) * (1.0 + c))
    g3 = alpha * c / (4.0 * math.pi * mu * (1.0 - nu) * (1.0 + c) ** 3)
    return g1, g2, g3


def gamma33_ondiag_difference(p: BiphaseParams, pbar: BiphaseParams, c: float) -> float:
    """Gamma33(e3, c e3) - Gamma33bar(e3, c e3) for two laminates sharing the
    upper phase.  The Kelvin groups then cancel exactly and the difference is
    carried by the interface brackets; valid for c in (0,1) or (1,inf)."""
    if c <= 0:
        raise ValueError("c must be positive")
    if c == 1.0:
        raise ValueError("c = 1 is singular (observation point hits the source)")
    if not p.same_upper_phase(pbar):
        raise ValueError("material pairs must share the upper phase")
    g = _ondiag_groups(p, c)
    gb = _ondiag_groups(pbar, c)
    return (g[0] - gb[0]) + (g[1] - gb[1]) + (g[2] - gb[2])


def dgamma33_dt(p: BiphaseParams, h: float, k: float, c: float) -> float:
    """Derivative at t = 0 of Gamma33(e3, c e3) under the lower-phase
    perturbation lambda(t) = lambda_low + t h, mu(t) = mu_low + t k.

    Closed form: with alpha'(0) and (alpha gamma)'(0) obtained by
    differentiating the interface coefficients through
    nu(t) = lambda(t)/(2(lambda(t) + mu(t))),

        d/dt Gamma33 |_0 = (1/(16 pi mu (1-nu) (1+c)^3)) *
            { [4(1-nu)(3-4nu) alpha'(0) - (alpha gamma)'(0)] (1+c)^2 + 4 c alpha'(0) }

    (upper-phase mu, nu).  The product (alpha gamma) is differentiated in the
    smooth form 4(1-nu) mu P(t)/(Q(t) D(t)) with P = (mu-mu')N, which is
    regular also at equal phases, where gamma alone is singular.
    """
    if not (0.0 < c < 1.0):
        raise ValueError("c must lie in (0, 1)")
    mu_u, nu_u = p.mu_up, p.nu_up
    mu_l, nu_l = p.mu_low, p.nu_low
    lam_l = lame_lambda(mu_l, nu_l)
    if lam_l + mu_l <= 0:
        raise ValueError("inadmissible base parameters: lambda + mu <= 0")

    nudot = (h * mu_l - lam_l * k) / (2.0 * (lam_l + mu_l) ** 2)

    q0 = mu_u + (3.0 - 4.0 * nu_u) * mu_l
    dq0 = (3.0 - 4.0 * nu_u) * k
    dalpha = -4.0 * k * mu_u * (1.0 - nu_u) / q0 ** 2

    # P(t) = (1-2nu)(3-4nu'(t))(mu-mu'(t)) - 2(nu-nu'(t)) mu'(t); smooth in t.
    p0 = (1.0 - 2.0 * nu_u) * (3.0 - 4.0 * nu_l) * (mu_u - mu_l) \
        - 2.0 * (nu_u - nu_l) * mu_l
    dp0 = (1.0 - 2.0 * nu_u) * (-4.0 * nudot * (mu_u - mu_l) - (3.0 - 4.0 * nu_l) * k) \
        - 2.0 * (-nudot * mu_l + (nu_u - nu_l) * k)
    trailing = nu_u if p.variant == "as-printed" else mu_u
    d0 = mu_l + (3.0 - 4.0 * nu_l) * trailing
    dd0 = k - 4.0 * nudot * trailing
    if q0 == 0.0 or d0 == 0.0:
        raise ZeroDivisionError("inadmissible base parameters: zero denominator")
    dalphagamma = 4.0 * (1.0 - nu_u) * mu_u \
        * (dp0 * q0 * d0 - p0 * (dq0 * d0 + q0 * dd0)) / (q0 * d0) ** 2

    bracket = (4.0 * (1.0 - nu_u) * (3.0 - 4.0 * nu_u) * dalpha - dalphagamma) \
        * (1.0 + c) ** 2 + 4.0 * c * dalpha
    return bracket / (16.0 * math.pi * mu_u * (1.0 - nu_u) * (1.0 + c) ** 3)


# ---------------------------------------------------------------------------
# Finite-difference self-test helper
# ---------------------------------------------------------------------------

def elastic_residual_fd(field, x, lam: float, mu: float, step: float) -> np.ndarray:
    """div(C grad^ u) at x via 4th-order central differences of a smooth
    displacement field: residual_i = mu Lap u_i + (lam + mu) d_i (div u).
    Self-test oracle for closed-form solutions; O(step^2) truncation from the
    nested mixed derivatives."""
    x = np.asarray(x, dtype=float)

    def d1(fun, pt, axis):
        e = np.zeros(3)
        e[axis] = step
        return (-fun(pt + 2 * e) + 8 * fun(pt + e) - 8 * fun(pt - e) + fun(pt - 2 * e)) / (12 * step)

    def d2(fun, pt, axis):
        e = np.zeros(3)
        e[axis] = step
        return (-fun(pt + 2 * e) + 16 * fun(pt + e) - 30 * fun(pt)
                + 16 * fun(pt - e) - fun(pt - 2 * e)) / (12 * step ** 2)

    def div_u(pt):
        return sum(d1(field, pt, b)[b] for b in range(3))

    lap = sum(d2(field, x, a) for a in range(3))
    grad_div = np.array([d1(div_u, x, a) for a in range(3)])
    return mu * np.asarray(lap) + (lam + mu) * grad_div
