"""P1 tetrahedral FEM for piecewise-constant isotropic elasticity.

Implements the forward machinery used throughout the package: stiffness
assembly split into parameter-independent subdomain matrices, one
multifrontal Cholesky factorisation per parameter vector on the
nested-dissection tree of the free dofs (interior dofs first, the dofs on
the accessible boundary patch Sigma last), and from that one factor the
discrete local Dirichlet-to-Neumann (DN) matrix as a Schur complement, its
parameter partials, and every interior solve: Dirichlet solves with data on
Sigma or on the whole boundary.  Also the discrete H^{1/2}(Sigma) Gram
matrix with the factor that whitens it, and Alessandrini's identity.

Element integrals are exact for P1 (constant strain); no quadrature error
enters the identity checks.  A conical-product Gauss rule on tets is provided
for integrating non-polynomial fields (H^1 errors against closed forms).
"""

from __future__ import annotations

import importlib
import json
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import blas, eigh, lapack

from . import backend
from .core import LameVector
from .geometry import TAG_SIGMA, PartitionedMesh

__all__ = [
    "MeshCache",
    "FemSystem",
    "DnMatrix",
    "build_cache",
    "assemble",
    "solve_dirichlet",
    "solve_with_boundary_values",
    "dn_matrix",
    "dn_partials",
    "alessandrini_residual",
    "strain_energy_pairing",
    "element_gradients",
    "tet_quadrature",
    "h1_seminorm_error",
    "random_sigma_trace",
    "save_matrix_json",
    "load_matrix_json",
]

# Reports name the Sigma Gram construction (`_sigma_gram`) by this label.
GRAM_LABEL = "spectral-half"


def __getattr__(name):
    # `fem.spla` is scipy.sparse.linalg, loaded on first read (PEP 562).  The
    # package never calls it; the benchmark's tracer (perfbench/spans.py)
    # reads and patches it.  An eager import would add about 2 MB to the
    # resident memory of every process.
    if name == "spla":
        return importlib.import_module("scipy.sparse.linalg")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# Mesh-level cache (everything independent of the Lamé vector)
# ---------------------------------------------------------------------------

@dataclass
class FrontPlan:
    """Symbolic multifrontal analysis of the free-dof block K_FF in
    `MeshCache.dn_order`, built once per mesh on the nested-dissection tree.

    Fronts are numbered in postorder, children before their parent.  Front f
    eliminates the dof positions start[f]:stop[f] of `dn_order`, one
    dissection leaf or separator; `update[f]` holds, sorted, the later
    positions its subtree couples to.  Its dense front is indexed by its
    pivots and then its update set; `moves[c]` adds child c's update matrix
    into its parent's front.  The last front is the Sigma block: it has no
    update set and is not factored; the DN matrix is assembled in it.

    A factor is one flat array: for each front, from offset[f], its pivot
    block (p x p) and then its update rows (u x p), both column-major.  The
    K_FF entries of those blocks (lower triangle) come from the node-pair
    sums of `backend.stiffness_blocks`: entry i of `fill_lam` and `fill_mu`
    is added at `fill_dest[i]`, and the first fill_counts[0] entries come
    from subdomain 1, and so on.  `fill_mu` is `_mu_blocks` of the lam
    blocks, formed once here because every factorisation reads it.
    """

    start: np.ndarray
    stop: np.ndarray
    offset: np.ndarray
    update: list
    children: list
    moves: list
    fill_dest: np.ndarray
    fill_lam: np.ndarray
    fill_mu: np.ndarray
    fill_counts: np.ndarray

    def blocks(self, store: np.ndarray, f: int):
        """Views of front f's pivot block and update rows in a factor."""
        p, u = self.stop[f] - self.start[f], self.update[f].size
        o = self.offset[f]
        return (store[o:o + p * p].reshape(p, p, order="F"),
                store[o + p * p:self.offset[f + 1]].reshape(u, p, order="F"))


@dataclass
class MeshCache:
    """Per-mesh data reused across parameter vectors, each kept once: the
    lambda-stiffness splits, dof partition, the multifrontal plan, and the
    scalar Sigma Gram matrix with its whitening factor.

    The splits a_lam[j] are CSR with sorted indices and a full 3 x 3 block
    for every node pair that a tet of subdomain j + 1 couples, expanded from
    the node-pair sums of `backend.stiffness_blocks`.  The mu-stiffness is
    not kept: `_mu_split` derives A_j^mu from a_lam[j] where it is needed.
    G and C are node-level (s x s, s the Sigma trace nodes); the vector Gram
    on the Sigma trace dofs is G (x) I3 (`gram_half`), and C acts on each
    displacement component alike (`inverse._whitened`).
    """

    mesh: PartitionedMesh
    vol: np.ndarray
    grads: np.ndarray
    a_lam: list          # per-subdomain csr, int div phi_p div phi_q
    interior_dofs: np.ndarray
    sigma_dofs: np.ndarray
    boundary_dofs: np.ndarray
    gram: np.ndarray       # scalar H^{1/2} Gram G on the Sigma trace nodes
    whitening: np.ndarray  # C, C C^T = G^{-1}
    dn_order: np.ndarray   # interior dofs in dissection order, then sigma_dofs
    fronts: FrontPlan      # multifrontal plan on the dissection tree of dn_order

    @property
    def num_dofs(self) -> int:
        return 3 * self.mesh.num_vertices

    @property
    def gram_half(self) -> np.ndarray:
        """The vector H^{1/2} Gram on the Sigma trace dofs, G (x) I3, formed
        on each call."""
        return np.kron(self.gram, np.eye(3))

    @cached_property
    def dn_blocks(self) -> list:
        """Per subdomain j: the positions in `dn_order` of the free dofs its
        tets touch, and A_j^lam, A_j^mu restricted to those dofs, A_j^mu from
        the restricted A_j^lam (`_mu_split`).  Built on first use (by
        `dn_partials`), so meshes whose DN map is never differentiated do not
        pay for it."""
        mesh, order = self.mesh, self.dn_order
        pos = np.full(self.num_dofs, -1)
        pos[order] = np.arange(order.size)
        blocks = []
        for j in range(mesh.N):
            idx = pos[_node_dofs(np.unique(mesh.tets[mesh.labels == j + 1]))]
            idx = np.sort(idx[idx >= 0])
            free = order[idx]
            a_lam = self.a_lam[j][free][:, free]
            blocks.append((idx, a_lam, _mu_split(a_lam)))
        return blocks


def _node_dofs(nodes: np.ndarray) -> np.ndarray:
    return (3 * nodes[:, None] + np.arange(3)).ravel()


def _mu_blocks(lam: np.ndarray) -> np.ndarray:
    """The (k, 3, 3) node-pair blocks of int sym-grad(phi_p) : sym-grad(phi_q)
    from those of int div(phi_p) div(phi_q): A^mu = (A^lam)^T / 2
    + tr(A^lam) I / 2, which holds per tet and so for any sum of tets."""
    mu = np.multiply(lam.transpose(0, 2, 1), 0.5, out=np.empty_like(lam))
    mu.reshape(-1, 9)[:, ::4] += 0.5 * np.trace(lam, axis1=1, axis2=2)[:, None]
    return mu


def _mu_split(a: sp.csr_matrix) -> sp.csr_matrix:
    """A^mu with the CSR pattern of a lambda-stiffness matrix `a` whose rows
    and columns come in node triples (components 0, 1, 2) with a full 3 x 3
    block per coupled node pair, as `_csr_splits` builds them and their
    restrictions to whole nodes keep them: the three rows of a node list the
    same blocks in the same order, so its entries are one (3, blocks, 3)
    array, regrouped into blocks for `_mu_blocks`."""
    row = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    q = np.arange(a.nnz) - a.indptr[row]
    node, comp = np.divmod(row, 3)
    flat = a.indptr[3 * node] + 9 * (q // 3) + 3 * comp + q % 3
    lam = np.empty(a.nnz)
    lam[flat] = a.data
    mu = _mu_blocks(lam.reshape(-1, 3, 3)).reshape(-1)
    return sp.csr_matrix((mu[flat], a.indices, a.indptr), shape=a.shape)


def _front_plan(mesh: PartitionedMesh, interior: np.ndarray, sigma: np.ndarray,
                sub: np.ndarray, rows: np.ndarray, cols: np.ndarray, lam: np.ndarray):
    """Free nodes in dissection order (interior, then `sigma`) and the
    `FrontPlan` on the dissection tree.

    Geometric nested dissection of the tets' node graph: split a node set at
    the median of its widest coordinate, order the lower part, then the upper
    part less the separator, then the separator (the upper nodes with a lower
    neighbour).  Sets of at most 16 nodes keep their order.  Every leaf and
    every nonempty separator is a front.  The lower part and the rest of the
    upper part share no edge, so a subtree couples only to the separators
    above it and to Sigma: a front's update set is its pivots' later
    neighbours together with its children's update sets.

    The node graph and the entries come from `backend.stiffness_blocks`:
    pair m couples nodes rows[m] and cols[m] in subdomain sub[m] + 1 by the
    3 x 3 block lam[m], and by `_mu_blocks` of it.  A pair on an interface
    occurs once per side.
    """
    nv = mesh.num_vertices
    local = np.full(nv, -1)
    local[interior] = np.arange(interior.size)
    src, dst = local[rows], local[cols]
    inner = (src >= 0) & (dst >= 0)
    x = mesh.vertices[interior]
    pivots, children = [], []

    def front(nodes, kids):
        pivots.append(nodes)
        children.append(kids)
        return [len(pivots) - 1]

    def dissect(nodes, src, dst):
        """Append the fronts of `nodes` in postorder; return the top ones.
        (src, dst) are the node pairs with src in `nodes`."""
        if nodes.size > 16:
            pts = x[nodes]
            axis = np.ptp(pts, axis=0).argmax()
            low = pts[:, axis] < np.median(pts[:, axis])
            if low.any():
                side = np.zeros(interior.size, dtype=np.int8)
                side[nodes[low]] = 1
                near = np.zeros(interior.size, dtype=bool)
                near[dst[side[src] == 1]] = True
                sep = ~low & near[nodes]
                side[nodes[~low & ~sep]] = 2
                kids = []
                for s in (1, 2):
                    at = side[src] == s
                    kids += dissect(nodes[side[nodes] == s], src[at], dst[at])
                return front(nodes[sep], kids) if sep.any() else kids
        return front(nodes, []) if nodes.size else []

    front(np.arange(interior.size, interior.size + sigma.size),
          dissect(np.arange(interior.size), src[inner], dst[inner]))
    nf = len(pivots)
    bounds = np.zeros(nf + 1, dtype=np.intp)
    np.cumsum([p.size for p in pivots], out=bounds[1:])
    perm = np.concatenate([interior[np.concatenate(pivots[:-1])], sigma])
    nn = perm.size
    pos = np.full(nv, -1)
    pos[perm] = np.arange(nn)

    # Lower-triangle node pairs of K_FF, each with the front of its column.
    pr, pc = pos[rows], pos[cols]
    keep = (pc >= 0) & (pr >= pc)
    pr, pc = pr[keep], pc[keep]
    f = np.repeat(np.arange(nf), np.diff(bounds))[pc]
    piv = pr < bounds[f + 1]

    # Update sets, children first.
    later = np.unique(f[~piv] * nn + pr[~piv])
    cut = np.searchsorted(later, np.arange(nf + 1) * nn)
    mark = np.zeros(nn, dtype=bool)
    struct = []
    for g in range(nf):
        mark[later[cut[g]:cut[g + 1]] - g * nn] = True
        for c in children[g]:
            mark[struct[c]] = True
        struct.append(np.flatnonzero(mark[bounds[g + 1]:]) + bounds[g + 1])
        mark[:] = False
    sizes = np.array([s.size for s in struct])
    p, u = 3 * np.diff(bounds), 3 * sizes
    offset = np.zeros(nf + 1, dtype=np.intp)
    np.cumsum(p * (p + u), out=offset[1:])
    flat = np.concatenate(struct)
    keys = np.repeat(np.arange(nf) * nn, sizes) + flat
    kstart = np.cumsum(sizes) - sizes

    # Where each child's update set lands in its parent's front.
    parent = np.empty(nf - 1, dtype=np.intp)
    for g, kids in enumerate(children):
        parent[kids] = g
    child = np.repeat(np.arange(nf - 1), sizes[:-1])
    at = parent[child]
    lands = flat[:child.size]
    into_pivots = lands < bounds[at + 1]
    lands = np.where(into_pivots, lands - bounds[at],
                     np.searchsorted(keys, at * nn + lands) - kstart[at])

    # Fill map: the factor position of each lower-triangle entry.
    row = np.where(piv, pr - bounds[f], np.searchsorted(keys, f * nn + pr) - kstart[f])
    ld = np.where(piv, p[f], u[f])
    base = offset[f] + np.where(piv, 0, p[f] ** 2) + 3 * row + 3 * (pc - bounds[f]) * ld
    three = np.arange(3)
    fill_lam = lam[keep]
    plan = FrontPlan(
        start=3 * bounds[:-1], stop=3 * bounds[1:], offset=offset,
        update=np.split(_node_dofs(flat), 3 * np.cumsum(sizes)[:-1]), children=children,
        moves=_extend_add_moves(nf - 1, child, into_pivots, lands),
        fill_dest=(base[:, None, None] + three[:, None] + ld[:, None, None] * three).ravel(),
        fill_lam=fill_lam.ravel(), fill_mu=_mu_blocks(fill_lam).ravel(),
        fill_counts=9 * np.bincount(sub[keep], minlength=mesh.N))
    return perm, plan


def _extend_add_moves(count: int, child: np.ndarray, into_pivots: np.ndarray,
                      lands: np.ndarray) -> list:
    """Block moves that add each of `count` children's update matrices into
    its parent's front.

    Entry i of the children's update sets, concatenated in order, belongs to
    child[i] and lands at node row lands[i] of its parent's pivot block
    (where into_pivots[i]) or update set.  Within a child these rows
    increase, mostly in long runs of consecutive nodes.  One move per run and
    target block (0: pivot block, 1: update rows, 2: update matrix) adds the
    run's rows of the lower triangle: (target, rows, columns, source rows,
    source columns), in dofs.  The columns are a slice where they are
    consecutive, which they are up to the end of a first run."""
    n = lands.size
    brk = np.ones(n, dtype=bool)
    brk[1:] = ((child[1:] != child[:-1]) | (into_pivots[1:] != into_pivots[:-1])
               | (lands[1:] != lands[:-1] + 1))
    starts = np.flatnonzero(brk)
    k = np.bincount(child[into_pivots], minlength=count).tolist()
    one_run = (np.bincount(child[starts[into_pivots[starts]]], minlength=count) == 1).tolist()
    head = np.searchsorted(child, np.arange(count)).tolist()
    dofs = _node_dofs(lands)
    lo, ch = lands.tolist(), child.tolist()
    moves = [[] for _ in range(count)]
    for r0, r1 in zip(starts.tolist(), starts[1:].tolist() + [n]):
        c = ch[r0]
        h, kc = head[c], 3 * k[c]
        to_pivots = r0 < h + k[c]
        part = h if to_pivots else h + k[c]
        a, b = 3 * (r0 - part), 3 * (r1 - part)
        rows = slice(3 * lo[r0], 3 * lo[r0] + b - a)
        cols = slice(3 * lo[part], 3 * lo[r1 - 1] + 3) if a == 0 else dofs[3 * part:3 * r1]
        if to_pivots:
            moves[c].append((0, rows, cols, slice(a, b), slice(0, b)))
            continue
        if kc:
            pivots = (slice(3 * lo[h], 3 * lo[h] + kc) if one_run[c]
                      else dofs[3 * h:3 * h + kc])
            moves[c].append((1, rows, pivots, slice(kc + a, kc + b), slice(0, kc)))
        moves[c].append((2, rows, cols, slice(kc + a, kc + b), slice(kc, kc + b)))
    return moves


def _csr_splits(mesh: PartitionedMesh, sub: np.ndarray, rows: np.ndarray,
                cols: np.ndarray, blocks: np.ndarray) -> list:
    """One CSR matrix per subdomain from its node-pair blocks, expanded from
    block rows: sorted indices and a full 3 x 3 block (explicit zeros
    included) for every coupled node pair."""
    nv = mesh.num_vertices
    cut = np.searchsorted(sub, np.arange(mesh.N + 1))
    splits = []
    for lo, hi in zip(cut[:-1], cut[1:]):
        indptr = np.zeros(nv + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows[lo:hi], minlength=nv), out=indptr[1:])
        splits.append(sp.bsr_matrix((blocks[lo:hi], cols[lo:hi], indptr),
                                    shape=(3 * nv, 3 * nv)).tocsr())
    return splits


def build_cache(mesh: PartitionedMesh) -> MeshCache:
    """Everything about `mesh` that no Lamé vector changes, each kept once:
    the lambda-stiffness summed per node pair and subdomain
    (`backend.stiffness_blocks`, which raises ValueError on a tet of volume
    <= 1e-14); from those sums the subdomain lambda splits and the node
    graph's nested-dissection order and `FrontPlan`; and the scalar Sigma
    Gram matrix and its whitening factor."""
    sets = mesh.node_sets()
    interior, sigma, zero = sets["interior"], sets["sigma"], sets["zero"]

    vol, grads, sub, rows, cols, lam = backend.stiffness_blocks(mesh)
    a_lam = _csr_splits(mesh, sub, rows, cols, lam)

    free_nodes, fronts = _front_plan(mesh, interior, sigma, sub, rows, cols, lam)
    del sub, rows, cols, lam  # freed before the Gram, which the cache keeps
    boundary = np.sort(np.concatenate([sigma, zero]))
    gram, whitening = _sigma_gram(mesh, sigma)
    return MeshCache(
        mesh=mesh, vol=vol, grads=grads, a_lam=a_lam,
        interior_dofs=_node_dofs(interior), sigma_dofs=_node_dofs(sigma),
        boundary_dofs=_node_dofs(boundary),
        gram=gram, whitening=whitening,
        dn_order=_node_dofs(free_nodes), fronts=fronts,
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


def _sigma_gram(mesh: PartitionedMesh, sigma_nodes: np.ndarray):
    """The discrete H^{1/2}(Sigma) Gram G on the Sigma trace nodes and a
    factor C that whitens it, C C^T = G^{-1}, both scalar (node-level).

    G = M # (M + r0^2 S) = M^{1/2} (M^{-1/2} (M + r0^2 S) M^{-1/2})^{1/2} M^{1/2},
    the geometric mean of M and M + r0^2 S, with M, S the surface P1
    mass/stiffness on the Sigma patch restricted to trace nodes.  Both come
    from one generalized eigendecomposition (M + r0^2 S) V = M V Theta,
    V^T M V = I: G = M V Theta^{1/2} V^T M and C = V Theta^{-1/4}, so that
    C^T G C = I.  Raises ValueError when M is not positive definite.
    """
    faces = mesh.boundary_faces[mesh.boundary_tags == TAG_SIGMA]
    mass, stiff = _surface_p1(mesh, faces)
    m = mass[sigma_nodes][:, sigma_nodes].toarray()
    s = stiff[sigma_nodes][:, sigma_nodes].toarray()
    try:
        theta, v = eigh(m + mesh.r0 ** 2 * s, m)
    except np.linalg.LinAlgError as exc:
        raise ValueError("surface mass matrix not positive definite") from exc
    mv = m @ v
    g = (mv * np.sqrt(theta)) @ mv.T
    return 0.5 * (g + g.T), v * theta ** -0.25


# ---------------------------------------------------------------------------
# Multifrontal Cholesky, assembly and solves
# ---------------------------------------------------------------------------

@dataclass
class FrontFactor:
    """Cholesky factor of 2^-exponent K_FF on the fronts of a `FrontPlan`,
    with `dn` the Schur complement Lambda = K_SS - K_SI K_II^{-1} K_IS.

    Its interior fronts form the Cholesky factor L_II of the scaled K_II,
    and their update rows on Sigma hold L_SI, with K_IS = L_II L_SI^T up to
    the scale.  The power-of-two scale keeps Lambda exactly homogeneous in
    the Lamé vector."""

    plan: FrontPlan
    store: np.ndarray
    exponent: int
    dn: np.ndarray

    def harmonic(self, traces: np.ndarray) -> np.ndarray:
        """The discrete harmonic extension of the columns of `traces`
        (Sigma dofs x k): rows in `dn_order`, the Sigma rows equal to
        `traces` and the interior rows -K_II^{-1} K_IS traces, from
        L_II^T x_I = -L_SI^T traces by back-substitution down the tree."""
        ni = self.plan.start[-1]
        x = np.zeros((ni + traces.shape[0], traces.shape[1]))
        x[ni:] = traces
        self._backward(x)
        return x

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """K_II^{-1} rhs for rhs (interior dofs x k) in `dn_order`."""
        plan, ni = self.plan, self.plan.start[-1]
        x = np.zeros((plan.stop[-1], rhs.shape[1]))
        x[:ni] = rhs
        for f in range(len(plan.update) - 1):
            l11, l21 = plan.blocks(self.store, f)
            blk = x[plan.start[f]:plan.stop[f]]
            blas.dtrsm(1.0, l11, blk.T, side=1, lower=1, trans_a=1, overwrite_b=1)
            x[plan.update[f]] -= l21 @ blk
        x[ni:] = 0.0
        self._backward(x)
        return np.ldexp(x[:ni], -self.exponent)

    def _backward(self, x: np.ndarray) -> None:
        """Solve L_II^T x_I = x_I - L_SI^T x_S in place, root first."""
        plan = self.plan
        for f in range(len(plan.update) - 2, -1, -1):
            l11, l21 = plan.blocks(self.store, f)
            blk = x[plan.start[f]:plan.stop[f]]
            blk -= l21.T @ x[plan.update[f]]
            blas.dtrsm(1.0, l11, blk.T, side=1, lower=1, overwrite_b=1)


def _factor_fronts(cache: MeshCache, L: LameVector) -> FrontFactor:
    """Multifrontal Cholesky of K_FF at L (Duff & Reid 1983; Liu 1992).

    The 2N coefficients are scaled by 2^-e, e the binary exponent of the
    largest, so that Lambda(2L) = 2 Lambda(L) holds bit for bit.  In
    postorder, each front receives its K entries and its children's update
    matrices, factors its pivot block (potrf), solves for its update rows
    (trsm) and passes its update matrix -L21 L21^T (syrk) to its parent; the
    Sigma block collects K_SS and the top fronts' updates.  Only lower
    triangles are kept.  A nonpositive pivot raises ValueError.
    """
    plan = cache.fronts
    coef = np.concatenate([np.asarray(L.lambdas, dtype=float),
                           2.0 * np.asarray(L.mus, dtype=float)])
    exponent = int(np.frexp(np.abs(coef).max())[1])
    coef = np.ldexp(coef, -exponent)
    n = coef.size // 2
    weights = (np.repeat(coef[:n], plan.fill_counts) * plan.fill_lam
               + np.repeat(coef[n:], plan.fill_counts) * plan.fill_mu)
    store = np.bincount(plan.fill_dest, weights, minlength=plan.offset[-1])

    updates = []
    for f in range(len(plan.update)):
        l11, l21 = plan.blocks(store, f)
        upd = np.zeros((l21.shape[0],) * 2, order="F")
        targets = (l11, l21, upd)
        for c in reversed(plan.children[f]):
            uc = updates.pop()
            for t, rows, cols, src_rows, src_cols in plan.moves[c]:
                targets[t][rows, cols] += uc[src_rows, src_cols]
        if f == len(plan.update) - 1:
            break
        _, info = lapack.dpotrf(l11, lower=1, clean=0, overwrite_a=1)
        if info > 0:
            raise ValueError("interior stiffness block K_II is not positive definite")
        if upd.size:
            blas.dtrsm(1.0, l11, l21, side=1, lower=1, trans_a=1, overwrite_b=1)
            blas.dsyrk(-1.0, l21, beta=1.0, c=upd, lower=1, overwrite_c=1)
        updates.append(upd)
    lam = np.tril(l11)
    lam += np.tril(l11, -1).T
    return FrontFactor(plan=plan, store=store, exponent=exponent,
                       dn=np.ldexp(lam, exponent))


@dataclass
class FemSystem:
    """The system at one Lamé vector on a cached mesh.  The stiffness matrix
    and the multifrontal factor are each built on first use."""

    cache: MeshCache
    L: LameVector

    @property
    def mesh(self) -> PartitionedMesh:
        return self.cache.mesh

    @cached_property
    def stiffness(self) -> sp.csr_matrix:
        """K = sum_j lambda_j A_j^lam + 2 mu_j A_j^mu in natural dof order
        (A_j^mu from `_mu_split`), for the right-hand side of
        `solve_with_boundary_values`; the factor is filled from the
        `FrontPlan` fill arrays, not from this matrix."""
        cache, L = self.cache, self.L
        k = sp.csr_matrix((cache.num_dofs, cache.num_dofs))
        for j, a_lam in enumerate(cache.a_lam):
            k = k + L.lambdas[j] * a_lam + 2.0 * L.mus[j] * _mu_split(a_lam)
        return k

    @cached_property
    def cholesky(self) -> FrontFactor:
        """The multifrontal Cholesky factor of K_FF that the DN matrix, its
        partials and every interior solve use: one per system."""
        return _factor_fronts(self.cache, self.L)


def assemble(mesh: PartitionedMesh, L: LameVector, cache: MeshCache,
             warn: bool = True) -> FemSystem:
    """The system K = sum_j lambda_j A_j^lam + 2 mu_j A_j^mu on the cached
    subdomain splits; nothing is summed or factored until used.
    A layer whose energy density is not positive definite (mu_j <= 0 or
    2 mu_j + 3 lambda_j <= 0) only warns; warn=False silences that for
    deliberate sweeps.  Which box is admissible is the caller's to judge."""
    if L.N != mesh.N:
        raise ValueError(f"parameter vector has N={L.N}, mesh has N={mesh.N}")
    if warn and any(mu <= 0.0 or 2.0 * mu + 3.0 * lam <= 0.0
                    for lam, mu in zip(L.lambdas, L.mus)):
        warnings.warn("assembling with an energy density that is not positive "
                      "definite", stacklevel=2)
    return FemSystem(cache=cache, L=L)


def random_sigma_trace(cache: MeshCache, rng: np.random.Generator) -> np.ndarray:
    """Unit-norm random boundary datum on the Sigma trace dofs."""
    psi = rng.standard_normal(cache.sigma_dofs.size)
    return psi / np.linalg.norm(psi)


def solve_dirichlet(sys: FemSystem, psi: np.ndarray) -> np.ndarray:
    """Displacement with trace psi on Sigma dofs and zero on the rest of the
    boundary: the discrete harmonic extension from `sys.cholesky`.  Returns
    nodal values (nv, 3); the trace rows equal the zero-extended datum
    exactly (row/column elimination, no penalty)."""
    cache = sys.cache
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (cache.sigma_dofs.size,):
        raise ValueError("psi must live on the Sigma trace dofs")
    u = np.zeros(cache.num_dofs)
    u[cache.dn_order] = sys.cholesky.harmonic(psi[:, None])[:, 0]
    return u.reshape(-1, 3)


def solve_with_boundary_values(sys: FemSystem, g: np.ndarray) -> np.ndarray:
    """Displacement with prescribed values g (nv, 3) on *all* boundary nodes
    (interior rows of g are ignored): the interior entries are
    K_II^{-1} (-K u_g)_I with u_g the boundary values zero-extended.  Used by
    manufactured-solution convergence studies."""
    cache = sys.cache
    gflat = np.asarray(g, dtype=float).reshape(-1)
    bdofs = cache.boundary_dofs
    u = np.zeros(cache.num_dofs)
    u[bdofs] = gflat[bdofs]
    idx = cache.dn_order[:cache.interior_dofs.size]
    u[idx] = sys.cholesky.solve(-(sys.stiffness @ u)[idx, None])[:, 0]
    return u.reshape(-1, 3)


# ---------------------------------------------------------------------------
# DN matrix and its partials
# ---------------------------------------------------------------------------

@dataclass
class DnMatrix:
    """Discrete local DN map on the Sigma trace dofs, in the order of
    `MeshCache.sigma_dofs`; the Gram matrix of its operator norm is the
    cache's `gram_half`."""

    entries: np.ndarray


def dn_matrix(sys: FemSystem) -> DnMatrix:
    """Schur complement Lambda = K_SS - K_SI K_II^{-1} K_IS over the interior
    block, after eliminating the zero-constrained boundary dofs.

    Assembled in the Sigma block of `sys.cholesky`, the multifrontal Cholesky
    factorisation of the free-dof block on the nested-dissection tree: K_SS
    plus the update matrices of the top fronts.  Exactly symmetric.  Raises
    ValueError where that factorisation does (K_II not positive definite).
    """
    return DnMatrix(entries=sys.cholesky.dn)


def dn_partials(sys: FemSystem) -> list:
    """The 2N partials J_p = dLambda/dL_p of the DN matrix at sys.L, in the
    flat ordering (lambda_1..lambda_N, mu_1..mu_N), from the factor that
    `dn_matrix` reads Lambda off.

    With P = [-K_II^{-1} K_IS; Id] the discrete harmonic prolongation from
    Sigma traces, J_p = P^T (dK/dL_p) P, where dK/dlambda_j = A_j^lam and
    dK/dmu_j = 2 A_j^mu: the Schur complement is the energy at the
    prolongation, and the prolongation's own derivative drops out
    (stationarity).  P is `sys.cholesky.harmonic` of the identity: block
    back-substitution down the tree, L_II^T P_I = -L_SI^T.  The partials of
    subdomain j use only the rows of P on the free dofs its tets touch
    (`cache.dn_blocks`).  Each partial is symmetrised.
    """
    cache = sys.cache
    p = sys.cholesky.harmonic(np.eye(cache.sigma_dofs.size))
    lams, mus = [], []
    for idx, a_lam, a_mu in cache.dn_blocks:
        pj = p[idx]
        for a, scale, out in ((a_lam, 1.0, lams), (a_mu, 2.0, mus)):
            j = scale * (pj.T @ (a @ pj))
            out.append(0.5 * (j + j.T))
    return lams + mus


# ---------------------------------------------------------------------------
# Elementwise energies and Alessandrini's identity
# ---------------------------------------------------------------------------

def element_gradients(cache: MeshCache, u: np.ndarray) -> np.ndarray:
    """Constant displacement gradient per element: out[n, d, g] = du_d/dx_g."""
    return np.einsum("nid,nig->ndg", u[cache.mesh.tets], cache.grads)


def strain_energy_pairing(cache: MeshCache, dlam, dmu, u1, u2) -> float:
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
    return float((cache.vol * per).sum())


def alessandrini_residual(mesh: PartitionedMesh, L1: LameVector, L2: LameVector,
                          psi: np.ndarray, phi: np.ndarray, cache: MeshCache):
    """Interior integral of (C1 - C2) e(u1):e(u2) against the DN pairing
    phi^T (Lambda_1 - Lambda_2) psi; returns (lhs, rhs, relative residual).
    Each system is factored once: u1 and u2 come from the factor that
    Lambda_1 and Lambda_2 are read off."""
    psi, phi = np.asarray(psi, dtype=float), np.asarray(phi, dtype=float)
    sys1 = assemble(mesh, L1, cache)
    sys2 = assemble(mesh, L2, cache)
    d1 = dn_matrix(sys1).entries
    d2 = dn_matrix(sys2).entries
    u1 = solve_dirichlet(sys1, psi)
    u2 = solve_dirichlet(sys2, phi)
    dlam = np.array(L1.lambdas) - np.array(L2.lambdas)
    dmu = np.array(L1.mus) - np.array(L2.mus)
    lhs = strain_energy_pairing(cache, dlam, dmu, u1, u2)
    rhs = float(phi @ (d1 - d2) @ psi)
    res = abs(lhs - rhs) / max(abs(lhs), abs(rhs), np.finfo(float).eps)
    return lhs, rhs, res


# ---------------------------------------------------------------------------
# Tet quadrature and H^1 errors
# ---------------------------------------------------------------------------

def _gauss_jacobi(n: int, alpha: float):
    """n-point Gauss rule for the weight (1 - x)^alpha on [-1, 1], alpha > 0:
    the nodes are the eigenvalues of the Jacobi matrix of the Jacobi
    polynomials P^(alpha, 0), and each weight is the weight's mass
    2^(alpha+1) / (alpha+1) times the squared first component of its unit
    eigenvector (Golub & Welsch, Math. Comp. 23, 1969)."""
    k = np.arange(n, dtype=float)
    s = 2.0 * k + alpha
    diag = -alpha ** 2 / (s * (s + 2.0))
    k, s = k[1:], s[1:]
    off = 2.0 * k * (k + alpha) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return x, 2.0 ** (alpha + 1) / (alpha + 1) * v[0] ** 2


def tet_quadrature(degree: int):
    """Conical-product Gauss rule on the reference tet, exact for polynomials
    of total degree <= degree: Gauss-Jacobi rules for the weights (1 - x)^2
    and (1 - x) in the collapsed first and second coordinates and a
    Gauss-Legendre rule in the third, n = (degree + 2) // 2 points each.
    Returns (barycentric points (nq, 4), weights summing to 1); integrate f
    over a tet T as vol(T) * sum w_q f(x_q)."""
    n = max(1, (degree + 2) // 2)
    xu, wu = _gauss_jacobi(n, 2.0)
    xv, wv = _gauss_jacobi(n, 1.0)
    xw, ww = np.polynomial.legendre.leggauss(n)
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
