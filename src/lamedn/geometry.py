"""Partitioned meshes and cone-chain geometry.

Native meshes are axis-aligned layered partitions of the unit cube: an
n x n x n grid of cells, each split into 6 tetrahedra (Kuhn split with the
fixed main diagonal, conforming across cells), with N horizontal layers of
equal thickness labeled 1..N from the top down.  The accessible boundary
portion Sigma is an open subset of the top face z = 1; subdomain D_1 touches
Sigma and the flat interfaces z = 1 - k/N chain the layers downward.

General polyhedral partitions are accepted through the JSON mesh format but
not generated.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PartitionedMesh",
    "ConeChain",
    "build_layered_cube",
    "save_mesh",
    "load_mesh",
    "validate_mesh",
    "build_cone_chain",
    "nesting_margins",
    "eta_r",
]

TAG_REST = 0
TAG_SIGMA = 1

# The six axis orderings of the Kuhn split: each cell tet is
# (c000, c000+e_{p0}, c000+e_{p0}+e_{p1}, c111).
_KUHN_PERMS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


@dataclass
class PartitionedMesh:
    """Conforming P1 tetrahedral mesh with subdomain labels and tagged boundary.

    vertices : (nv, 3) float64
    tets : (nt, 4) int32, positively oriented
    labels : (nt,) int32 in 1..N (label 1 touches Sigma)
    boundary_faces : (nb, 3) int32, outward oriented
    boundary_tags : (nb,) int32, TAG_SIGMA on the accessible portion
    interfaces : list of dicts {"j", "k", "point", "normal"} describing the
        flat plane of each interface Sigma_k between D_j and D_k = D_{j+1}
    r0 : the length scale of the Sigma Gram
    """

    vertices: np.ndarray
    tets: np.ndarray
    labels: np.ndarray
    boundary_faces: np.ndarray
    boundary_tags: np.ndarray
    interfaces: list
    r0: float = 1.0
    n: int = 0
    sigma_margin: float = 0.0
    _node_sets: dict = field(default=None, init=False, repr=False, compare=False)

    @property
    def N(self) -> int:
        return int(self.labels.max())

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_tets(self) -> int:
        return self.tets.shape[0]

    def node_sets(self) -> dict:
        """Partition node indices into interior / sigma / zero-boundary sets.

        A boundary node is a Sigma trace node iff every incident boundary face
        is tagged Sigma; such nodes lie strictly inside the Sigma patch and may
        carry nonzero Dirichlet data (traces in H^{1/2}_co vanish on the patch
        boundary).  All other boundary nodes are constrained to zero.
        """
        if self._node_sets is None:
            nv = self.num_vertices
            on_boundary = np.zeros(nv, dtype=bool)
            on_nonsigma = np.zeros(nv, dtype=bool)
            on_boundary[self.boundary_faces] = True
            on_nonsigma[self.boundary_faces[self.boundary_tags != TAG_SIGMA]] = True
            sigma = np.flatnonzero(on_boundary & ~on_nonsigma)
            zero = np.flatnonzero(on_nonsigma)
            interior = np.flatnonzero(~on_boundary)
            self._node_sets = {"interior": interior, "sigma": sigma, "zero": zero}
        return self._node_sets

    def tet_volumes(self) -> np.ndarray:
        v = self.vertices
        t = self.tets
        e1 = v[t[:, 1]] - v[t[:, 0]]
        e2 = v[t[:, 2]] - v[t[:, 0]]
        e3 = v[t[:, 3]] - v[t[:, 0]]
        return np.einsum("ij,ij->i", np.cross(e1, e2), e3) / 6.0


def _check_cube_arguments(N: int, n: int, sigma_margin: float) -> None:
    """Raise ValueError unless `build_layered_cube` accepts these arguments
    (the CLI checks its mesh section with this before building anything)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if n < 2:
        raise ValueError("n must be >= 2")
    if n % N:
        raise ValueError(f"n = {n} not divisible by N = {N}")
    if not (0.0 <= sigma_margin < 0.5):
        raise ValueError("sigma_margin must lie in [0, 0.5)")


def build_layered_cube(N: int, n: int, sigma_margin: float = 0.0) -> PartitionedMesh:
    """Unit cube, n^3 cells split 6-fold, N equal horizontal layers.

    Sigma is the open subset of the top face at distance >= sigma_margin from
    its edges.  Interfaces are the planes z = 1 - k/N, k = 1..N-1, with
    normals -e3 (exterior to the upper subdomain D_k).

    The length scale r0 = min(1, 3/N, 3*(1/2 - sigma_margin)) recorded on
    the mesh weights the stiffness term of the Sigma Gram: every interface
    plane and Sigma contain a flat disk of radius r0/3 about their center
    points, and the +-r0/3 cylinders about interface centers stay inside the
    two adjacent layers.
    """
    _check_cube_arguments(N, n, sigma_margin)
    m = n + 1
    axis = np.linspace(0.0, 1.0, m)
    zz, yy, xx = np.meshgrid(axis, axis, axis, indexing="ij")
    vertices = np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])

    def vid(i, j, k):
        return (k * m + j) * m + i

    ii, jj, kk = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    ii, jj, kk = ii.ravel(), jj.ravel(), kk.ravel()
    corner = {}
    for dx in (0, 1):
        for dy in (0, 1):
            for dz in (0, 1):
                corner[(dx, dy, dz)] = vid(ii + dx, jj + dy, kk + dz)

    tets = []
    for p in _KUHN_PERMS:
        step = [0, 0, 0]
        a = corner[(0, 0, 0)]
        step[p[0]] = 1
        b = corner[tuple(step)]
        step[p[1]] = 1
        c = corner[tuple(step)]
        d = corner[(1, 1, 1)]
        tets.append(np.column_stack([a, b, c, d]))
    tets = np.vstack(tets).astype(np.int32)

    # Fix orientation: swap the last two vertices of negatively oriented tets.
    e1 = vertices[tets[:, 1]] - vertices[tets[:, 0]]
    e2 = vertices[tets[:, 2]] - vertices[tets[:, 0]]
    e3 = vertices[tets[:, 3]] - vertices[tets[:, 0]]
    vol = np.einsum("ij,ij->i", np.cross(e1, e2), e3)
    flip = vol < 0
    tets[flip, 2], tets[flip, 3] = tets[flip, 3], tets[flip, 2].copy()

    # Layer labels: cells are repeated 6x in the same order as kk.
    per_layer = n // N
    layer_from_bottom = np.tile(kk, 6) // per_layer
    labels = (N - layer_from_bottom).astype(np.int32)

    boundary_faces = _boundary_faces(tets)
    top = np.all(np.abs(vertices[boundary_faces][:, :, 2] - 1.0) < 1e-12, axis=1)
    xy = vertices[boundary_faces][:, :, :2]
    edge_dist = np.minimum(xy, 1.0 - xy).min(axis=(1, 2))
    tags = np.where(top & (edge_dist >= sigma_margin - 1e-12), TAG_SIGMA, TAG_REST)

    interfaces = [
        {"j": k, "k": k + 1, "point": [0.5, 0.5, 1.0 - k / N], "normal": [0.0, 0.0, -1.0]}
        for k in range(1, N)
    ]
    r0 = min(1.0, 3.0 / N, 3.0 * (0.5 - sigma_margin))
    return PartitionedMesh(
        vertices=vertices,
        tets=tets,
        labels=labels,
        boundary_faces=boundary_faces,
        boundary_tags=tags.astype(np.int32),
        interfaces=interfaces,
        r0=r0,
        n=n,
        sigma_margin=float(sigma_margin),
    )


def _tet_faces(tets: np.ndarray) -> np.ndarray:
    """All 4*nt outward-oriented faces of positively oriented tets."""
    a, b, c, d = tets[:, 0], tets[:, 1], tets[:, 2], tets[:, 3]
    return np.vstack([
        np.column_stack([a, c, b]),
        np.column_stack([a, b, d]),
        np.column_stack([b, c, d]),
        np.column_stack([a, d, c]),
    ])


def _face_keys(faces: np.ndarray, nv: int) -> np.ndarray:
    """One int64 key per face, (a*nv + b)*nv + c of its sorted vertices
    a <= b <= c < nv: two faces share a key iff they share their vertices."""
    if nv ** 3 - 1 > np.iinfo(np.int64).max:
        raise ValueError(f"{nv} vertices overflow the int64 face keys")
    a, b, c = np.sort(faces, axis=1).astype(np.int64).T
    return (a * nv + b) * nv + c


def _boundary_faces(tets: np.ndarray) -> np.ndarray:
    faces = _tet_faces(tets)
    keys = _face_keys(faces, int(tets.max()) + 1)
    _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    return faces[counts[inverse] == 1].astype(np.int32)


def validate_mesh(mesh: PartitionedMesh) -> None:
    """Raise if the mesh violates the partition/interface/chain invariants."""
    vols = mesh.tet_volumes()
    if (vols <= 1e-14).any():
        raise ValueError("mesh has a degenerate or inverted tet")
    faces = _tet_faces(mesh.tets)
    keys = _face_keys(faces, mesh.num_vertices)
    order = np.argsort(keys, kind="stable")
    # Equal sorted neighbours are the two sides of one face.
    twin = keys[order[1:]] == keys[order[:-1]]
    if (twin[1:] & twin[:-1]).any():
        raise ValueError("non-manifold face connectivity")
    if keys.size - 2 * twin.sum() != mesh.boundary_faces.shape[0]:
        raise ValueError("boundary face list inconsistent with connectivity")

    # Interface triangles must lie in their declared planes, and the label
    # adjacency graph through those flat interfaces must chain D_1..D_N with
    # D_1 touching Sigma.  Faces are stacked in 4 blocks of nt, so face fi
    # belongs to tet fi % nt.
    nt = mesh.num_tets
    first, second = order[:-1][twin], order[1:][twin]
    la, lb = mesh.labels[first % nt], mesh.labels[second % nt]
    cross = la != lb
    lo, hi = np.minimum(la, lb)[cross], np.maximum(la, lb)[cross]
    tris = faces[first[cross]]
    edges = set()
    for j, kk in sorted(set(zip(lo.tolist(), hi.tolist()))):
        plane = next((p for p in mesh.interfaces if p["j"] == j and p["k"] == kk), None)
        if plane is None:
            raise ValueError(f"labels {j},{kk} touch but declare no interface")
        pt = np.asarray(plane["point"])
        nrm = np.asarray(plane["normal"])
        gap = np.abs((mesh.vertices[tris[(lo == j) & (hi == kk)]] - pt) @ nrm)
        if gap.max() > 1e-12:
            raise ValueError(f"interface triangle off its plane by {gap.max():.2e}")
        edges.add((j, kk))
    N = mesh.N
    reach = {1}
    grew = True
    while grew:
        grew = False
        for j, kk in edges:
            if (j in reach) != (kk in reach):
                reach |= {j, kk}
                grew = True
    if reach != set(range(1, N + 1)):
        raise ValueError("subdomain chain condition fails: graph not connected")
    sigma_faces = mesh.boundary_faces[mesh.boundary_tags == TAG_SIGMA]
    if sigma_faces.size == 0:
        raise ValueError("mesh has no Sigma faces")
    on_sigma = np.zeros(mesh.num_vertices, dtype=bool)
    on_sigma[sigma_faces] = True
    if not (mesh.labels[on_sigma[mesh.tets].any(axis=1)] == 1).any():
        raise ValueError("D_1 does not touch Sigma")


# ---------------------------------------------------------------------------
# Mesh file format
# ---------------------------------------------------------------------------

def save_mesh(mesh: PartitionedMesh, path) -> None:
    """Write the JSON mesh format (field names fixed: vertices, tets, labels,
    boundary_tags, interfaces; boundary_tags rows are flat [v0,v1,v2,tag])."""
    bt = np.column_stack([mesh.boundary_faces, mesh.boundary_tags]).astype(np.int32)
    doc = {
        "vertices": np.asarray(mesh.vertices, dtype=np.float64).ravel().tolist(),
        "tets": np.asarray(mesh.tets, dtype=np.int32).ravel().tolist(),
        "labels": np.asarray(mesh.labels, dtype=np.int32).ravel().tolist(),
        "boundary_tags": bt.ravel().tolist(),
        "interfaces": mesh.interfaces,
        "r0": mesh.r0,
        "n": mesh.n,
        "sigma_margin": mesh.sigma_margin,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_mesh(path) -> PartitionedMesh:
    with open(path) as fh:
        doc = json.load(fh)
    bt = np.asarray(doc["boundary_tags"], dtype=np.int32).reshape(-1, 4)
    mesh = PartitionedMesh(
        vertices=np.asarray(doc["vertices"], dtype=np.float64).reshape(-1, 3),
        tets=np.asarray(doc["tets"], dtype=np.int32).reshape(-1, 4),
        labels=np.asarray(doc["labels"], dtype=np.int32),
        boundary_faces=bt[:, :3].copy(),
        boundary_tags=bt[:, 3].copy(),
        interfaces=doc["interfaces"],
        r0=float(doc.get("r0", 1.0)),
        n=int(doc.get("n", 0)),
        sigma_margin=float(doc.get("sigma_margin", 0.0)),
    )
    validate_mesh(mesh)
    return mesh


# ---------------------------------------------------------------------------
# Cone chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConeChain:
    """Nested-ball chain inside the cone of half-angle gamma3, apex at the
    origin, axis -e3, truncated by the cylinder of radius rho and half-height
    H_gamma * rho (H_gamma = 1/tan gamma3).

    Ball centers w_k = -s_k e3 with s_k = chi^{k-1} t descending from s_1 = t
    to s_{k0} = r; per-ball radii r_i^{(k)} = s_k sin gamma_i.
    """

    rho: float
    gamma3: float
    chi: float
    H_gamma: float
    t0: float
    r: float
    k0: int
    t: float
    s: np.ndarray
    centers: np.ndarray
    r1k: np.ndarray
    r2k: np.ndarray
    r3k: np.ndarray


def build_cone_chain(rho: float, gamma3: float, r: float) -> ConeChain:
    """Construct the chain with s_{k0} = r exactly.

    t0 = H_gamma rho / (1 + sin gamma3); sin gamma1 = sin gamma3 / 4;
    sin gamma2 = 3 sin gamma3 / 4; chi = (1 - sin gamma2)/(1 - sin gamma1).
    k0 is the largest integer with chi^{k0-1} >= r/t0, which places
    t = chi^{-(k0-1)} r inside [chi t0, t0].  Requires 0 < r <= chi t0.
    """
    if not (0.0 < gamma3 < math.pi / 2):
        raise ValueError("gamma3 must lie in (0, pi/2)")
    if rho <= 0:
        raise ValueError("rho must be positive")
    s3 = math.sin(gamma3)
    s1, s2 = s3 / 4.0, 3.0 * s3 / 4.0
    chi = (1.0 - s2) / (1.0 - s1)
    h_gamma = 1.0 / math.tan(gamma3)
    t0 = h_gamma * rho / (1.0 + s3)
    if not (0.0 < r <= chi * t0 * (1.0 + 1e-12)):
        raise ValueError(f"r must lie in (0, chi*t0] = (0, {chi * t0:.6g}]")

    ratio = r / t0
    k0 = 1
    power = chi
    while power >= ratio * (1.0 - 1e-13):
        k0 += 1
        power *= chi
        if k0 > 10 ** 6:
            raise ValueError("cone chain too long (r/t0 underflows)")

    ks = np.arange(1, k0 + 1)
    s = r * chi ** (ks.astype(float) - k0)
    t = float(s[0])
    if not (chi * t0 * (1.0 - 1e-10) <= t <= t0 * (1.0 + 1e-10)):
        raise AssertionError("internal error: t escaped [chi t0, t0]")
    centers = np.zeros((k0, 3))
    centers[:, 2] = -s
    return ConeChain(
        rho=rho, gamma3=gamma3,
        chi=chi, H_gamma=h_gamma, t0=t0, r=r, k0=k0, t=t,
        s=s, centers=centers, r1k=s * s1, r2k=s * s2, r3k=s * s3,
    )


def nesting_margins(chain: ConeChain) -> dict:
    """Inclusion margins of the chain's nested balls.

    Returns arrays:
      inner[k]: r2^{(k)} - |w_{k+1} - w_k| - r1^{(k+1)}  (tangent: 0 by design)
      middle[k]: r3^{(k)} - r2^{(k)}                      (strictly positive)
      lateral[k]: s_k sin(gamma3) - r3^{(k)}              (tangent: 0 by design)
      depth[k]: H_gamma rho - s_k - r3^{(k)}              (>= 0, 0 iff s_k = t0)
    """
    s = chain.s
    step = s[:-1] - s[1:]
    inner = chain.r2k[:-1] - step - chain.r1k[1:]
    middle = chain.r3k - chain.r2k
    lateral = s * math.sin(chain.gamma3) - chain.r3k
    depth = chain.H_gamma * chain.rho - s - chain.r3k
    return {"inner": inner, "middle": middle, "lateral": lateral, "depth": depth}


def eta_r(chain: ConeChain, theta_bar: float) -> float:
    """Cone-propagation exponent eta_r = theta_bar (r/t)^(|log theta_bar|/|log chi|)."""
    if not (0.0 < theta_bar < 1.0):
        raise ValueError("theta_bar must lie in (0, 1)")
    base = chain.r / chain.t
    if base > 1.0 + 1e-12:
        raise ValueError("r/t exceeds 1")
    base = min(base, 1.0)
    expo = abs(math.log(theta_bar)) / abs(math.log(chain.chi))
    return theta_bar * base ** expo
