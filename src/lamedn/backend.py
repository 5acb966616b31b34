"""The two NumPy kernels behind the FEM and the Kelvin fields.

`stiffness_blocks` gives the P1 element blocks that `fem.build_cache` sums
into the subdomain stiffness matrices.  `kelvin_batch` evaluates one column
Gamma(x, y) e of the Kelvin matrix at a batch of points; it is the Kelvin
field of both `ucp.SolutionMember` and `fem.green_function`, and
`kernels.kelvin_matrix` is its pointwise reference.
"""

from __future__ import annotations

import math

import numpy as np

# The benchmark records this in each run's environment.
BACKEND = "pure"

__all__ = ["BACKEND", "stiffness_blocks", "kelvin_batch"]


def stiffness_blocks(coords: np.ndarray):
    """Per-tet P1 element data for the isotropic stiffness split.

    coords: (nt, 4, 3) vertex coordinates.
    Returns (vol, grads, a_lam, a_mu):
      vol   (nt,)        signed volumes (positive for valid meshes)
      grads (nt, 4, 3)   gradients of the four barycentric hat functions
      a_lam (nt, 12, 12) blocks of int div(phi_p) div(phi_q)
      a_mu  (nt, 12, 12) blocks of int sym-grad(phi_p) : sym-grad(phi_q)
    Local dof ordering p = 3*i + a for vertex i, component a; the global
    stiffness is sum_j lambda_j A_j^lam + 2 mu_j A_j^mu.
    """
    coords = np.asarray(coords, dtype=np.float64)
    nt = coords.shape[0]
    edges = coords[:, 1:, :] - coords[:, :1, :]
    vol = np.linalg.det(edges) / 6.0
    inv = np.linalg.inv(edges)

    grads = np.empty((nt, 4, 3))
    grads[:, 1, :] = inv[:, :, 0]
    grads[:, 2, :] = inv[:, :, 1]
    grads[:, 3, :] = inv[:, :, 2]
    grads[:, 0, :] = -(grads[:, 1] + grads[:, 2] + grads[:, 3])

    flat = grads.reshape(nt, 12)
    a_lam = vol[:, None, None] * np.einsum("np,nq->npq", flat, flat)

    dots = np.einsum("nia,nja->nij", grads, grads)
    term1 = np.einsum("nij,ab->niajb", dots, np.eye(3)).reshape(nt, 12, 12)
    outer = np.einsum("nia,njb->niajb", grads, grads)
    term2 = outer.transpose(0, 3, 2, 1, 4).reshape(nt, 12, 12)
    a_mu = vol[:, None, None] * 0.5 * (term1 + term2)
    return vol, grads, a_lam, a_mu


def kelvin_batch(points, y, mu: float, nu: float, e) -> np.ndarray:
    """Kelvin columns Gamma(x_m, y) e at the (m, 3) points x_m: an (m, 3) array.

    Gamma e = pref [(3 - 4 nu) e / R + r (r . e) / R^3] with r = x - y,
    R = |r| and pref = 1 / (16 pi mu (1 - nu)); the dot products are
    explicit component sums.  The column is built in the buffer of r, one
    component at a time, so that no further (m, 3) temporaries are
    allocated.  Raises ValueError if some x_m equals y.
    """
    pts = np.asarray(points, dtype=np.float64)
    r = pts - np.asarray(y, dtype=np.float64)
    r2 = r[:, 0] * r[:, 0] + r[:, 1] * r[:, 1] + r[:, 2] * r[:, 2]
    if not r2.all():
        raise ValueError("coincident evaluation and source points")
    rn = np.sqrt(r2)
    pref = 1.0 / (16.0 * math.pi * mu * (1.0 - nu))
    kappa = 3.0 - 4.0 * nu
    along_r = r[:, 0] * e[0] + r[:, 1] * e[1] + r[:, 2] * e[2]
    along_r *= pref
    along_r /= r2 * rn                                # pref (r . e) / R^3
    along_e = np.divide(pref * kappa, rn, out=rn)     # pref (3 - 4 nu) / R
    out = r
    for k in range(3):
        out[:, k] *= along_r
        out[:, k] += e[k] * along_e
    return out
