"""P1 tetrahedral FEM for piecewise-constant isotropic elasticity.

Implements the forward machinery used throughout the package: stiffness
assembly split into parameter-independent subdomain matrices, Dirichlet
solves with data supported on the accessible boundary patch Sigma, the
discrete local Dirichlet-to-Neumann (DN) matrix as a Schur complement (the
trailing block of one Sigma-last sparse LU) and its parameter partials from
that same factor, the discrete H^{1/2}(Sigma) Gram matrix and the
Gram-whitened operator norm, Alessandrini's identity, interior Green
functions, and sensitivity kernels.

Element integrals are exact for P1 (constant strain); no quadrature error
enters the identity checks.  A conical-product Gauss rule on tets is provided
for integrating non-polynomial fields (H^1 errors against closed forms).
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.special import roots_jacobi, roots_legendre

from . import backend
from .core import DEFAULT_BOX, LameVector, check_admissible, poisson_ratio
from .geometry import TAG_SIGMA, PartitionedMesh

__all__ = [
    "MeshCache",
    "FemSystem",
    "DnMatrix",
    "GreenField",
    "build_cache",
    "assemble",
    "solve_dirichlet",
    "solve_with_boundary_values",
    "dn_matrix",
    "dn_partials",
    "dn_bilinear",
    "dn_operator_norm",
    "alessandrini_residual",
    "green_function",
    "sensitivity_kernel",
    "sensitivity_identity_check",
    "strain_energy_pairing",
    "element_gradients",
    "tet_quadrature",
    "h1_seminorm_error",
    "random_sigma_trace",
    "locate_point",
    "save_matrix_json",
    "load_matrix_json",
    "save_boundary_vector_csv",
    "load_boundary_vector_csv",
]

GRAM_LABEL = "spectral-half"


# ---------------------------------------------------------------------------
# Mesh-level cache (everything independent of the Lamé vector)
# ---------------------------------------------------------------------------

@dataclass
class MeshCache:
    """Per-mesh data reused across parameter vectors: subdomain stiffness
    splits, dof partition, and the Sigma Gram matrix."""

    mesh: PartitionedMesh
    vol: np.ndarray
    grads: np.ndarray
    a_lam: list          # per-subdomain csr, int div phi_p div phi_q
    a_mu: list           # per-subdomain csr, int sym-grad : sym-grad
    a_lam_total: sp.csr_matrix
    a_mu_total: sp.csr_matrix
    interior_dofs: np.ndarray
    sigma_dofs: np.ndarray
    zero_dofs: np.ndarray
    boundary_dofs: np.ndarray
    sigma_nodes: np.ndarray
    boundary_nodes: np.ndarray
    gram_half: np.ndarray  # dense vector Gram on sigma dofs
    dn_order: np.ndarray   # interior dofs in dissection order, then sigma_dofs

    @property
    def num_dofs(self) -> int:
        return 3 * self.mesh.num_vertices

    @cached_property
    def dn_blocks(self) -> list:
        """Per subdomain j: the positions in `dn_order` of the free dofs its
        tets touch, and A_j^lam, A_j^mu restricted to those dofs.  Built on
        first use (by `dn_partials`), so meshes whose DN map is never
        differentiated do not pay for it."""
        mesh, order = self.mesh, self.dn_order
        pos = np.full(self.num_dofs, -1)
        pos[order] = np.arange(order.size)
        blocks = []
        for j in range(mesh.N):
            idx = pos[_node_dofs(np.unique(mesh.tets[mesh.labels == j + 1]))]
            idx = np.sort(idx[idx >= 0])
            free = order[idx]
            blocks.append((idx, self.a_lam[j][free][:, free], self.a_mu[j][free][:, free]))
        return blocks


def _node_dofs(nodes: np.ndarray) -> np.ndarray:
    return (3 * nodes[:, None] + np.arange(3)).ravel()


def _interior_node_order(mesh: PartitionedMesh, interior: np.ndarray) -> np.ndarray:
    """Fill-reducing order of the interior nodes by geometric nested
    dissection of the tets' node graph: split a node set at the median of its
    widest coordinate, order the lower part, then the upper part less the
    separator, then the separator (the upper nodes with a lower neighbour).
    Sets of at most 16 nodes keep their order."""
    nv = mesh.num_vertices
    rows = np.repeat(mesh.tets, 4, axis=1).ravel()
    cols = np.tile(mesh.tets, (1, 4)).ravel()
    g = sp.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(nv, nv)).tocsr()
    src, dst = g[interior][:, interior].nonzero()
    x = mesh.vertices[interior]

    def dissect(nodes):
        if nodes.size <= 16:
            return nodes
        pts = x[nodes]
        axis = np.ptp(pts, axis=0).argmax()
        low = pts[:, axis] < np.median(pts[:, axis])
        if not low.any():
            return nodes
        is_low = np.zeros(interior.size, dtype=bool)
        is_low[nodes[low]] = True
        near = np.zeros(interior.size, dtype=bool)
        near[dst[is_low[src]]] = True
        sep = ~low & near[nodes]
        return np.concatenate([dissect(nodes[low]), dissect(nodes[~low & ~sep]), nodes[sep]])

    return dissect(np.arange(interior.size))


def build_cache(mesh: PartitionedMesh) -> MeshCache:
    sets = mesh.node_sets()
    interior, sigma, zero = sets["interior"], sets["sigma"], sets["zero"]
    sigma_dofs = _node_dofs(sigma)
    dn_order = np.concatenate([
        _node_dofs(interior[_interior_node_order(mesh, interior)]), sigma_dofs])

    vol, grads, blk_lam, blk_mu = backend.stiffness_blocks(mesh.vertices[mesh.tets])
    if (vol <= 1e-14).any():
        raise ValueError("degenerate tet (volume <= 1e-14)")

    ndof = 3 * mesh.num_vertices
    dofs = (3 * mesh.tets[:, :, None] + np.arange(3)).reshape(-1, 12)
    rows = np.repeat(dofs, 12, axis=1).ravel()
    cols = np.tile(dofs, (1, 12)).ravel()

    a_lam, a_mu = [], []
    for j in range(1, mesh.N + 1):
        sel = mesh.labels == j
        idx = np.repeat(sel, 144)
        a_lam.append(sp.coo_matrix(
            (blk_lam[sel].ravel(), (rows[idx], cols[idx])), shape=(ndof, ndof)).tocsr())
        a_mu.append(sp.coo_matrix(
            (blk_mu[sel].ravel(), (rows[idx], cols[idx])), shape=(ndof, ndof)).tocsr())

    boundary = np.sort(np.concatenate([sigma, zero]))
    gram = _sigma_gram(mesh, sigma)
    return MeshCache(
        mesh=mesh, vol=vol, grads=grads, a_lam=a_lam, a_mu=a_mu,
        a_lam_total=sum(a_lam[1:], a_lam[0]), a_mu_total=sum(a_mu[1:], a_mu[0]),
        interior_dofs=_node_dofs(interior), sigma_dofs=sigma_dofs,
        zero_dofs=_node_dofs(zero), boundary_dofs=_node_dofs(boundary),
        sigma_nodes=sigma, boundary_nodes=boundary, gram_half=gram,
        dn_order=dn_order,
    )


def _surface_p1(mesh: PartitionedMesh, faces: np.ndarray):
    """Scalar P1 mass and stiffness on a triangulated surface patch,
    assembled over all nodes of the mesh (rows/cols elsewhere stay empty)."""
    nv = mesh.num_vertices
    p = mesh.vertices[faces]
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    g11 = np.einsum("ni,ni->n", e1, e1)
    g12 = np.einsum("ni,ni->n", e1, e2)
    g22 = np.einsum("ni,ni->n", e2, e2)
    det = g11 * g22 - g12 ** 2
    area = 0.5 * np.sqrt(det)

    # In-plane hat gradients: inverse metric gives dot products directly.
    i11 = g22 / det
    i12 = -g12 / det
    i22 = g11 / det
    nfc = faces.shape[0]
    s_blk = np.empty((nfc, 3, 3))
    s_blk[:, 1, 1] = i11
    s_blk[:, 1, 2] = i12
    s_blk[:, 2, 1] = i12
    s_blk[:, 2, 2] = i22
    s_blk[:, 0, 1] = -(i11 + i12)
    s_blk[:, 1, 0] = s_blk[:, 0, 1]
    s_blk[:, 0, 2] = -(i12 + i22)
    s_blk[:, 2, 0] = s_blk[:, 0, 2]
    s_blk[:, 0, 0] = i11 + 2 * i12 + i22
    s_blk *= area[:, None, None]

    m_blk = (area[:, None, None] / 12.0) * (np.ones((3, 3)) + np.eye(3))

    rows = np.repeat(faces, 3, axis=1).ravel()
    cols = np.tile(faces, (1, 3)).ravel()
    mass = sp.coo_matrix((m_blk.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()
    stiff = sp.coo_matrix((s_blk.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()
    return mass, stiff


def _sigma_gram(mesh: PartitionedMesh, sigma_nodes: np.ndarray) -> np.ndarray:
    """Discrete H^{1/2}(Sigma) Gram on the Sigma trace dofs.

    G = M^{1/2} (M^{-1/2} (M + r0^2 S) M^{-1/2})^{1/2} M^{1/2} with M, S the
    surface P1 mass/stiffness on the Sigma patch restricted to trace nodes,
    expanded to vector dofs by Kronecker product with the 3x3 identity.
    """
    faces = mesh.boundary_faces[mesh.boundary_tags == TAG_SIGMA]
    mass, stiff = _surface_p1(mesh, faces)
    m = mass[sigma_nodes][:, sigma_nodes].toarray()
    s = stiff[sigma_nodes][:, sigma_nodes].toarray()

    w, u = np.linalg.eigh(m)
    if w.min() <= 0:
        raise ValueError("surface mass matrix not positive definite")
    m_half = (u * np.sqrt(w)) @ u.T
    m_ihalf = (u / np.sqrt(w)) @ u.T
    inner = m_ihalf @ (m + mesh.r0 ** 2 * s) @ m_ihalf
    inner = 0.5 * (inner + inner.T)
    w2, u2 = np.linalg.eigh(inner)
    root = (u2 * np.sqrt(np.maximum(w2, 0.0))) @ u2.T
    g = m_half @ root @ m_half
    g = 0.5 * (g + g.T)
    return np.kron(g, np.eye(3))


# ---------------------------------------------------------------------------
# Assembly and solves
# ---------------------------------------------------------------------------

@dataclass
class FemSystem:
    cache: MeshCache
    L: LameVector
    stiffness: sp.csr_matrix
    _factor: object = field(default=None, repr=False, compare=False)
    _dn_factor: object = field(default=None, repr=False, compare=False)

    @property
    def mesh(self) -> PartitionedMesh:
        return self.cache.mesh

    @property
    def factor(self):
        """Sparse LU of the interior block K_II (shared by all solves)."""
        if self._factor is None:
            idx = self.cache.interior_dofs
            k_ii = self.stiffness[idx][:, idx].tocsc()
            self._factor = spla.splu(k_ii)
        return self._factor

    @property
    def dn_factor(self):
        """Unpivoted sparse LU K_FF = L U of the free-dof block in
        `cache.dn_order` (interior dofs in nested-dissection order, Sigma
        dofs last), shared by `dn_matrix` and `dn_partials`.

        Factoring without pivoting requires K_II positive definite, which
        holds on the admissible set (mu >= alpha0, 2 mu + 3 lambda >= beta0);
        a nonpositive interior pivot raises ValueError, and so does a
        factorisation that permutes rows and columns differently or moves
        the Sigma block.
        """
        if self._dn_factor is None:
            order = self.cache.dn_order
            ni, n = order.size - self.cache.sigma_dofs.size, order.size
            lu = spla.splu(self.stiffness[order][:, order].tocsc(), permc_spec="NATURAL",
                           diag_pivot_thresh=0.0, options={"SymmetricMode": True})
            if not (np.array_equal(lu.perm_r, lu.perm_c)
                    and np.array_equal(lu.perm_c[ni:], np.arange(ni, n))):
                raise ValueError("factorisation permuted unsymmetrically or moved the Sigma block")
            if not (lu.U.diagonal()[:ni] > 0).all():
                raise ValueError("interior stiffness block K_II is not positive definite")
            self._dn_factor = lu
        return self._dn_factor

    def with_parameters(self, L: LameVector) -> "FemSystem":
        return assemble(self.mesh, L, cache=self.cache)


def assemble(mesh: PartitionedMesh, L: LameVector, cache: MeshCache = None,
             warn: bool = True) -> FemSystem:
    """Stiffness K = sum_j lambda_j A_j^lam + 2 mu_j A_j^mu on the cached
    subdomain splits.  Inadmissible parameters only warn (probes may wander);
    warn=False silences that for deliberate out-of-box sweeps."""
    if cache is None:
        cache = build_cache(mesh)
    if L.N != mesh.N:
        raise ValueError(f"parameter vector has N={L.N}, mesh has N={mesh.N}")
    if warn:
        ok, _ = check_admissible(L, DEFAULT_BOX)
        if not ok:
            warnings.warn("assembling with inadmissible Lamé parameters", stacklevel=2)
    k = sp.csr_matrix((cache.num_dofs, cache.num_dofs))
    for j in range(L.N):
        k = k + L.lambdas[j] * cache.a_lam[j] + 2.0 * L.mus[j] * cache.a_mu[j]
    return FemSystem(cache=cache, L=L, stiffness=k)


def random_sigma_trace(cache: MeshCache, rng: np.random.Generator) -> np.ndarray:
    """Unit-norm random boundary datum on the Sigma trace dofs."""
    psi = rng.standard_normal(cache.sigma_dofs.size)
    return psi / np.linalg.norm(psi)


def solve_dirichlet(sys: FemSystem, psi: np.ndarray) -> np.ndarray:
    """Displacement with trace psi on Sigma dofs and zero on the rest of the
    boundary.  Returns nodal values (nv, 3); the trace rows equal the
    zero-extended datum exactly (row/column elimination, no penalty)."""
    cache = sys.cache
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (cache.sigma_dofs.size,):
        raise ValueError("psi must live on the Sigma trace dofs")
    rhs = -(sys.stiffness[cache.interior_dofs][:, cache.sigma_dofs] @ psi)
    u = np.zeros(cache.num_dofs)
    u[cache.sigma_dofs] = psi
    u[cache.interior_dofs] = sys.factor.solve(rhs)
    return u.reshape(-1, 3)


def solve_with_boundary_values(sys: FemSystem, g: np.ndarray) -> np.ndarray:
    """Displacement with prescribed values g (nv, 3) on *all* boundary nodes
    (interior rows of g are ignored).  Used by Green corrections and
    manufactured-solution convergence studies."""
    cache = sys.cache
    gflat = np.asarray(g, dtype=float).reshape(-1)
    bdofs = cache.boundary_dofs
    rhs = -(sys.stiffness[cache.interior_dofs][:, bdofs] @ gflat[bdofs])
    u = np.zeros(cache.num_dofs)
    u[bdofs] = gflat[bdofs]
    u[cache.interior_dofs] = sys.factor.solve(rhs)
    return u.reshape(-1, 3)


# ---------------------------------------------------------------------------
# DN matrix, Gram norm, bilinear pairing
# ---------------------------------------------------------------------------

@dataclass
class DnMatrix:
    """Discrete local DN map on Sigma trace dofs plus the Gram matrix that
    defines the operator norm; `gram` names the Gram construction."""

    entries: np.ndarray
    gram_half: np.ndarray
    r0: float
    sigma_nodes: np.ndarray
    gram: str = GRAM_LABEL

    @property
    def shape(self):
        return self.entries.shape


def dn_matrix(sys: FemSystem) -> DnMatrix:
    """Schur complement Lambda = K_SS - K_SI K_II^{-1} K_IS over the interior
    block, after eliminating the zero-constrained boundary dofs.

    Read off the trailing factor blocks of `sys.dn_factor`, the unpivoted
    Sigma-last LU of the free-dof block: Lambda = L_SS U_SS.  Raises
    ValueError where that factor does (K_II not positive definite).
    """
    cache = sys.cache
    ns = cache.sigma_dofs.size
    ni = cache.dn_order.size - ns
    # Allocated before the factor is built: the result then does not pin its
    # freed heap memory, which otherwise raised the peak RSS of repeated calls.
    lam = np.empty((ns, ns))
    lu = sys.dn_factor
    np.matmul(lu.L[ni:, ni:].toarray(), lu.U[ni:, ni:].toarray(), out=lam)
    return DnMatrix(entries=lam, gram_half=cache.gram_half, r0=sys.mesh.r0,
                    sigma_nodes=cache.sigma_nodes)


def dn_partials(sys: FemSystem) -> list:
    """The 2N partials J_p = dLambda/dL_p of the DN matrix at sys.L, in the
    flat ordering (lambda_1..lambda_N, mu_1..mu_N), from the factor that
    `dn_matrix` reads Lambda off.

    With P = [-K_II^{-1} K_IS; Id] the discrete harmonic prolongation from
    Sigma traces, J_p = P^T (dK/dL_p) P, where dK/dlambda_j = A_j^lam and
    dK/dmu_j = 2 A_j^mu: the Schur complement is the energy at the
    prolongation, and the prolongation's own derivative drops out
    (stationarity).  P is one solve with `sys.dn_factor`,
    K_FF P = [0; Lambda], with its Sigma rows then set to Id; the partials of
    subdomain j use only the rows of P on the free dofs its tets touch
    (`cache.dn_blocks`).  Each partial is symmetrised.
    """
    cache = sys.cache
    ns = cache.sigma_dofs.size
    ni = cache.dn_order.size - ns
    lu = sys.dn_factor
    rhs = np.zeros((ni + ns, ns))
    np.matmul(lu.L[ni:, ni:].toarray(), lu.U[ni:, ni:].toarray(), out=rhs[ni:])
    p = lu.solve(rhs)
    p[ni:] = np.eye(ns)
    lams, mus = [], []
    for idx, a_lam, a_mu in cache.dn_blocks:
        pj = p[idx]
        for a, scale, out in ((a_lam, 1.0, lams), (a_mu, 2.0, mus)):
            j = scale * (pj.T @ (a @ pj))
            out.append(0.5 * (j + j.T))
    return lams + mus


def dn_bilinear(sys: FemSystem, psi: np.ndarray, phi: np.ndarray) -> float:
    """<Lambda psi, phi> as the interior energy pairing: solve for u_psi and
    pair K u_psi against the zero-extension of phi (exactly psi^T Lambda phi)."""
    cache = sys.cache
    u = solve_dirichlet(sys, psi).reshape(-1)
    return float((sys.stiffness @ u)[cache.sigma_dofs] @ np.asarray(phi, dtype=float))


def dn_operator_norm(delta: np.ndarray, gram_half: np.ndarray) -> float:
    """Gram-whitened spectral norm ||G^{-1/2} Delta G^{-1/2}||_2."""
    delta = np.asarray(delta, dtype=float)
    w, u = np.linalg.eigh(np.asarray(gram_half, dtype=float))
    if w.min() <= 0:
        raise ValueError("Gram matrix must be symmetric positive definite")
    g_ihalf = (u / np.sqrt(w)) @ u.T
    return float(np.linalg.norm(g_ihalf @ delta @ g_ihalf, 2))


# ---------------------------------------------------------------------------
# Elementwise energies and Alessandrini's identity
# ---------------------------------------------------------------------------

def element_gradients(cache: MeshCache, u: np.ndarray) -> np.ndarray:
    """Constant displacement gradient per element: out[n, d, g] = du_d/dx_g."""
    return np.einsum("nid,nig->ndg", u[cache.mesh.tets], cache.grads)


def strain_energy_pairing(cache: MeshCache, dlam, dmu, u1, u2,
                          region_labels=None) -> float:
    """sum over elements of vol * [dlam tr(e1) tr(e2) + 2 dmu e1:e2] with
    e_i the symmetric gradients and (dlam, dmu) per-subdomain constants.
    This is the exact P1 integral of (C1 - C2) e(u1) : e(u2)."""
    g1 = element_gradients(cache, np.asarray(u1, dtype=float))
    g2 = element_gradients(cache, np.asarray(u2, dtype=float))
    e1 = 0.5 * (g1 + g1.transpose(0, 2, 1))
    e2 = 0.5 * (g2 + g2.transpose(0, 2, 1))
    tr1 = np.trace(e1, axis1=1, axis2=2)
    tr2 = np.trace(e2, axis1=1, axis2=2)
    lab = cache.mesh.labels - 1
    dlam = np.asarray(dlam, dtype=float)[lab]
    dmu = np.asarray(dmu, dtype=float)[lab]
    per = dlam * tr1 * tr2 + 2.0 * dmu * np.einsum("nij,nij->n", e1, e2)
    per = cache.vol * per
    if region_labels is not None:
        mask = np.isin(cache.mesh.labels, np.asarray(region_labels))
        per = per[mask]
    return float(per.sum())


def _dn_solution(sys: FemSystem, lam: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """`solve_dirichlet` from the DN factor: with Lambda = dn_matrix(sys),
    solve K_FF x = [0; Lambda psi] with `sys.dn_factor` in `cache.dn_order`,
    then set the Sigma rows to psi exactly, as `dn_partials` does for the
    prolongation.  Returns nodal values (nv, 3)."""
    cache = sys.cache
    if psi.shape != (cache.sigma_dofs.size,):
        raise ValueError("traces must live on the Sigma trace dofs")
    ni = cache.dn_order.size - cache.sigma_dofs.size
    rhs = np.zeros(cache.dn_order.size)
    rhs[ni:] = lam @ psi
    x = sys.dn_factor.solve(rhs)
    x[ni:] = psi
    u = np.zeros(cache.num_dofs)
    u[cache.dn_order] = x
    return u.reshape(-1, 3)


def alessandrini_residual(mesh: PartitionedMesh, L1: LameVector, L2: LameVector,
                          psi: np.ndarray, phi: np.ndarray,
                          cache: MeshCache = None):
    """Interior integral of (C1 - C2) e(u1):e(u2) against the DN pairing
    phi^T (Lambda_1 - Lambda_2) psi; returns (lhs, rhs, relative residual).
    Each system is factored once: u1 and u2 come from the DN factor that
    Lambda_1 and Lambda_2 are read off."""
    if cache is None:
        cache = build_cache(mesh)
    psi, phi = np.asarray(psi, dtype=float), np.asarray(phi, dtype=float)
    sys1 = assemble(mesh, L1, cache)
    sys2 = assemble(mesh, L2, cache)
    d1 = dn_matrix(sys1).entries
    d2 = dn_matrix(sys2).entries
    u1 = _dn_solution(sys1, d1, psi)
    u2 = _dn_solution(sys2, d2, phi)
    dlam = np.array(L1.lambdas) - np.array(L2.lambdas)
    dmu = np.array(L1.mus) - np.array(L2.mus)
    lhs = strain_energy_pairing(cache, dlam, dmu, u1, u2)
    rhs = float(phi @ (d1 - d2) @ psi)
    res = abs(lhs - rhs) / max(abs(lhs), abs(rhs), np.finfo(float).eps)
    return lhs, rhs, res


# ---------------------------------------------------------------------------
# Green functions and sensitivity kernels
# ---------------------------------------------------------------------------

def locate_point(cache: MeshCache, x) -> int:
    """Index of a tet containing x (barycentric tolerance 1e-12)."""
    x = np.asarray(x, dtype=float)
    verts = cache.mesh.vertices
    tets = cache.mesh.tets
    d = x - verts[tets[:, 0]]
    bary = np.einsum("nig,ng->ni", cache.grads[:, 1:, :], d)
    inside = (bary.min(axis=1) >= -1e-12) & (bary.sum(axis=1) <= 1.0 + 1e-12)
    hits = np.flatnonzero(inside)
    if hits.size == 0:
        raise ValueError(f"point {x} lies outside the mesh")
    return int(hits[0])


@dataclass
class GreenField:
    """Discrete Green function column G(., y) l = Kelvin interpolant plus FEM
    correction, with zero boundary trace.  `d_vec` realizes the defining
    functional: for any zero-trace nodal field phi,
    a_C(G, phi) = phi . d_vec holds exactly."""

    values: np.ndarray      # (nv, 3)
    gamma: np.ndarray       # (nv, 3) Kelvin interpolant
    correction: np.ndarray  # (nv, 3)
    d_vec: np.ndarray       # (3 nv,)
    y: np.ndarray
    l: np.ndarray
    label: int


def _green_clearance_check(cache: MeshCache, y: np.ndarray, label: int):
    mesh = cache.mesh
    h = mesh.cell_size()
    dist = np.linalg.norm(mesh.vertices - y, axis=1)
    near = dist < 2.0 * h * (1.0 - 1e-12)
    if near[cache.boundary_nodes].any():
        raise ValueError("source point closer than 2 cells to the boundary")
    near_nodes = np.flatnonzero(near)
    touch = np.isin(cache.mesh.tets, near_nodes).any(axis=1)
    if (mesh.labels[touch] != label).any():
        raise ValueError("source point closer than 2 cells to an interface")


def green_function(sys: FemSystem, y, l) -> GreenField:
    """Green column for the source point y and direction l: G = Gamma + w,
    where Gamma is the Kelvin column Gamma(., y) l of the constant tensor at
    y, evaluated at the vertices by `backend.kelvin_batch`, and the
    correction w solves a_C(w, phi) = ((C_y - C) grad^ Gamma_h, grad^ phi)
    with w = -Gamma_h on the whole boundary.

    The right-hand side uses the P1 interpolant Gamma_h, which makes
    a_C(G, phi) = a_{C_y}(Gamma_h, phi) an exact discrete identity (stored as
    d_vec).  Requires y at least 2 cells away from interfaces and boundary.
    """
    cache = sys.cache
    y = np.asarray(y, dtype=float)
    l = np.eye(3)[int(l)] if np.ndim(l) == 0 else np.asarray(l, dtype=float)
    tet = locate_point(cache, y)
    label = int(sys.mesh.labels[tet])
    _green_clearance_check(cache, y, label)

    lam_y, mu_y = sys.L.lambdas[label - 1], sys.L.mus[label - 1]
    nu_y = poisson_ratio(lam_y, mu_y)
    gamma = backend.kelvin_batch(sys.mesh.vertices, y, mu_y, nu_y, l)
    gflat = gamma.reshape(-1)

    k_y = lam_y * cache.a_lam_total + 2.0 * mu_y * cache.a_mu_total
    d_vec = k_y @ gflat
    rhs_full = d_vec - sys.stiffness @ gflat

    i_idx, b_idx = cache.interior_dofs, cache.boundary_dofs
    w = np.zeros(cache.num_dofs)
    w[b_idx] = -gflat[b_idx]
    rhs = rhs_full[i_idx] - sys.stiffness[i_idx][:, b_idx] @ w[b_idx]
    w[i_idx] = sys.factor.solve(rhs)
    w = w.reshape(-1, 3)
    return GreenField(values=gamma + w, gamma=gamma, correction=w,
                      d_vec=d_vec, y=y, l=l, label=label)


def sensitivity_kernel(mesh: PartitionedMesh, L: LameVector, Lbar: LameVector,
                       y, z, region_labels=None, cache: MeshCache = None) -> np.ndarray:
    """3x3 matrix S(y, z): entry [a, b] integrates
    (C - Cbar) e(G(., y) e_a) : e(Gbar(., z) e_b) over the listed subdomains
    (all of them when region_labels is None)."""
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if np.allclose(y, z):
        raise ValueError("source points must differ")
    if cache is None:
        cache = build_cache(mesh)
    sys_a = assemble(mesh, L, cache)
    sys_b = assemble(mesh, Lbar, cache)
    dlam = np.array(L.lambdas) - np.array(Lbar.lambdas)
    dmu = np.array(L.mus) - np.array(Lbar.mus)
    ga = [green_function(sys_a, y, e) for e in np.eye(3)]
    gb = [green_function(sys_b, z, e) for e in np.eye(3)]
    s = np.empty((3, 3))
    for a in range(3):
        for b in range(3):
            s[a, b] = strain_energy_pairing(cache, dlam, dmu,
                                            ga[a].values, gb[b].values,
                                            region_labels)
    return s


def sensitivity_identity_check(mesh: PartitionedMesh, L: LameVector,
                               Lbar: LameVector, y, z, cache: MeshCache = None):
    """Full-region sensitivity matrix against the discrete DN-type pairing
    d_y(Gbar) - dbar_z(G); exact up to solver accuracy.  Returns
    (S, pairing, max relative gap)."""
    if cache is None:
        cache = build_cache(mesh)
    sys_a = assemble(mesh, L, cache)
    sys_b = assemble(mesh, Lbar, cache)
    ga = [green_function(sys_a, np.asarray(y, float), e) for e in np.eye(3)]
    gb = [green_function(sys_b, np.asarray(z, float), e) for e in np.eye(3)]
    dlam = np.array(L.lambdas) - np.array(Lbar.lambdas)
    dmu = np.array(L.mus) - np.array(Lbar.mus)
    s = np.empty((3, 3))
    pairing = np.empty((3, 3))
    for a in range(3):
        for b in range(3):
            s[a, b] = strain_energy_pairing(cache, dlam, dmu,
                                            ga[a].values, gb[b].values)
            pairing[a, b] = float(ga[a].d_vec @ gb[b].values.reshape(-1)
                                  - gb[b].d_vec @ ga[a].values.reshape(-1))
    scale = max(np.abs(s).max(), np.abs(pairing).max(), np.finfo(float).eps)
    return s, pairing, float(np.abs(s - pairing).max() / scale)


# ---------------------------------------------------------------------------
# Tet quadrature and H^1 errors
# ---------------------------------------------------------------------------

def tet_quadrature(degree: int):
    """Conical-product Gauss rule on the reference tet, exact for polynomials
    of total degree <= degree.  Returns (barycentric points (nq, 4), weights
    summing to 1); integrate f over a tet T as vol(T) * sum w_q f(x_q)."""
    n = max(1, (degree + 2) // 2)
    xu, wu = roots_jacobi(n, 2.0, 0.0)
    xv, wv = roots_jacobi(n, 1.0, 0.0)
    xw, ww = roots_legendre(n)
    xu, wu = (xu + 1) / 2, wu / 8.0
    xv, wv = (xv + 1) / 2, wv / 4.0
    xw, ww = (xw + 1) / 2, ww / 2.0

    u, v, w = np.meshgrid(xu, xv, xw, indexing="ij")
    cu, cv, cw = np.meshgrid(wu, wv, ww, indexing="ij")
    u, v, w = u.ravel(), v.ravel(), w.ravel()
    x = u
    yq = v * (1 - u)
    zq = w * (1 - u) * (1 - v)
    bary = np.column_stack([1 - x - yq - zq, x, yq, zq])
    weights = (cu * cv * cw).ravel()
    return bary, weights / weights.sum()


def h1_seminorm_error(cache: MeshCache, u: np.ndarray, grad_exact, degree: int = 4) -> float:
    """sqrt of int |grad u_h - grad u_exact|_F^2 with the exact gradient
    supplied as a batch callable points (m,3) -> (m,3,3)."""
    bary, wts = tet_quadrature(degree)
    verts = cache.mesh.vertices[cache.mesh.tets]  # (nt,4,3)
    pts = np.einsum("qi,nij->nqj", bary, verts)   # (nt,nq,3)
    gh = element_gradients(cache, np.asarray(u, dtype=float))  # (nt,3,3)
    nt, nq = pts.shape[0], pts.shape[1]
    ge = grad_exact(pts.reshape(-1, 3)).reshape(nt, nq, 3, 3)
    diff = ge - gh[:, None, :, :]
    per = np.einsum("nqij,nqij->nq", diff, diff) @ wts
    return float(np.sqrt((cache.vol * per).sum()))


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def save_matrix_json(path, m: np.ndarray) -> None:
    m = np.asarray(m, dtype=np.float64)
    with open(path, "w") as fh:
        json.dump({"shape": list(m.shape), "data": m.ravel().tolist()}, fh)


def load_matrix_json(path) -> np.ndarray:
    with open(path) as fh:
        doc = json.load(fh)
    return np.asarray(doc["data"], dtype=np.float64).reshape(doc["shape"])


def save_boundary_vector_csv(path, node_indices, values) -> None:
    values = np.asarray(values, dtype=float).reshape(-1, 3)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for node, row in zip(node_indices, values):
            writer.writerow([int(node), repr(float(row[0])), repr(float(row[1])),
                             repr(float(row[2]))])


def load_boundary_vector_csv(path):
    nodes, vals = [], []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            nodes.append(int(row[0]))
            vals.append([float(row[1]), float(row[2]), float(row[3])])
    return np.asarray(nodes, dtype=np.int64), np.asarray(vals, dtype=float)
