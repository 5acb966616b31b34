"""The two NumPy kernels behind the FEM and the Kelvin fields.

`stiffness_blocks` gives the P1 stiffness of a mesh as 3 x 3 blocks summed
per node pair and subdomain, from which `fem.build_cache` builds the
subdomain stiffness matrices and the multifrontal plan.
`kelvin_batch` evaluates one column Gamma(x, y) e of the Kelvin matrix at a
batch of points; it is the Kelvin field of `ucp.SolutionMember`, and
`kernels.kelvin_matrix` is its pointwise reference.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

# The benchmark records this in each run's environment.
BACKEND = "pure"

__all__ = ["BACKEND", "stiffness_blocks", "kelvin_batch"]


def stiffness_blocks(mesh):
    """The P1 element stiffness of `mesh`, summed per node pair and subdomain.

    Returns (vol, grads, sub, rows, cols, lam, mu): the tet volumes (nt,),
    the barycentric gradients (nt, 4, 3), and per node pair m, sorted by
    (sub, rows, cols), the (3, 3) blocks lam[m] of int div(phi_p) div(phi_q)
    and mu[m] of int sym-grad(phi_p) : sym-grad(phi_q) that couple component
    a at node rows[m] with component b at node cols[m] in subdomain
    sub[m] + 1 (a pair on an interface occurs once per side).  The global
    stiffness is sum_j lambda_j A_j^lam + 2 mu_j A_j^mu.

    Everything runs on component-major (., nt) arrays.  The gradients are
    the cross products of the edges over the determinant, which is checked
    first: a tet of volume <= 1e-14 raises ValueError.  The 16 node pairs
    (i, k) of all tets have int64 keys (j, node i, node k); one sort of
    key * 2^s + position orders them, and a 0/1 CSR matrix with one row per
    key sums each of the nine products vol g_ia g_kb in position order.
    The mu blocks follow from the per-tet identity
    A^mu = (A^lam)^T / 2 + tr(A^lam) I / 2.
    """
    nv = mesh.num_vertices
    t = mesh.tets.T.astype(np.int64)                    # (4, nt)
    x = mesh.vertices.T[:, t]                           # (3, 4, nt)
    e1, e2, e3 = (x[:, j] - x[:, 0] for j in (1, 2, 3))
    g = np.empty((4, 3, t.shape[1]))
    for out, (u, v) in zip(g[1:], ((e2, e3), (e3, e1), (e1, e2))):
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            np.subtract(u[b] * v[c], u[c] * v[b], out=out[a])
    det = e1[0] * g[1, 0] + e1[1] * g[1, 1] + e1[2] * g[1, 2]
    vol = det / 6.0
    if (vol <= 1e-14).any():
        raise ValueError("degenerate tet (volume <= 1e-14)")
    g[1:] /= det
    np.negative(g[1] + g[2] + g[3], out=g[0])
    vg = g * vol

    sub = mesh.labels.astype(np.int64) - 1
    keys = ((sub * nv + t[:, None]) * nv + t[None, :]).ravel()    # (i, k, n)
    m = keys.size
    shift = m.bit_length()
    if (mesh.N * nv * nv) >> (63 - shift):
        raise ValueError("mesh too large for int64 node-pair keys")
    keys = np.sort((keys << shift) | np.arange(m))
    order = keys & ((1 << shift) - 1)
    keys >>= shift
    first = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
    s = sp.csr_matrix((np.ones(m), order, np.append(first, m)), shape=(first.size, m))
    lam = np.empty((first.size, 3, 3))
    for a, b in np.ndindex(3, 3):
        lam[:, a, b] = s @ (vg[:, None, a] * g[None, :, b]).ravel()
    mu = np.multiply(lam.transpose(0, 2, 1), 0.5, out=np.empty_like(lam))
    mu.reshape(-1, 9)[:, ::4] += 0.5 * np.trace(lam, axis1=1, axis2=2)[:, None]
    sub, pair = np.divmod(keys[first], nv * nv)
    rows, cols = np.divmod(pair, nv)
    return vol, g.transpose(2, 0, 1).copy(), sub, rows, cols, lam, mu


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
