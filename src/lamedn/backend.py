"""The two NumPy kernels behind the FEM and the Kelvin fields.

`stiffness_blocks` gives the P1 element blocks, as 3 x 3 node-pair blocks,
that `fem.build_cache` sums into the subdomain stiffness matrices.
`kelvin_batch` evaluates one column Gamma(x, y) e of the Kelvin matrix at a
batch of points; it is the Kelvin field of `ucp.SolutionMember`, and
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
      vol   (nt,)             signed volumes (positive for valid meshes)
      grads (nt, 4, 3)        gradients of the four barycentric hat functions
      a_lam (nt, 4, 4, 3, 3)  int div(phi_p) div(phi_q)
      a_mu  (nt, 4, 4, 3, 3)  int sym-grad(phi_p) : sym-grad(phi_q)
    The blocks are node-pair blocks: [n, i, k, a, b] couples component a at
    vertex i with component b at vertex k (dofs p = 3*i + a, q = 3*k + b);
    the global stiffness is sum_j lambda_j A_j^lam + 2 mu_j A_j^mu.
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

    # a_lam = vol g_ia g_kb; a_mu = vol (delta_ab g_i . g_k + g_ib g_ka) / 2.
    # Both C-ordered, so that the reshape below is a view of a_mu.
    vg = vol[:, None, None] * grads
    a_lam = np.multiply(vg[:, :, None, :, None], grads[:, None, :, None, :],
                        out=np.empty((nt, 4, 4, 3, 3)))
    a_mu = np.multiply(a_lam.swapaxes(3, 4), 0.5, out=np.empty_like(a_lam))
    dots = np.einsum("nia,nka->nik", vg, grads)
    a_mu.reshape(nt, 4, 4, 9)[..., ::4] += 0.5 * dots[..., None]
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
