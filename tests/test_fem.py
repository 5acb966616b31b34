"""Forward solver: assembly, DN matrices, solves, quadrature, I/O."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import roots_jacobi

from lamedn import backend, fem
from lamedn.core import LameVector, poisson_ratio, sample_admissible
from lamedn.fem import (
    GRAM_LABEL,
    alessandrini_residual,
    assemble,
    build_cache,
    dn_matrix,
    dn_partials,
    element_gradients,
    h1_seminorm_error,
    load_matrix_json,
    random_sigma_trace,
    save_matrix_json,
    solve_dirichlet,
    solve_with_boundary_values,
    tet_quadrature,
)
from lamedn.geometry import PartitionedMesh, build_layered_cube

L2 = LameVector([1.0, 0.8], [0.9, 1.2])
L2B = LameVector([1.1, 0.7], [1.0, 1.1])


class TestAssembly:
    def test_stiffness_symmetric_psd(self, cache_2x4):
        sys = assemble(cache_2x4.mesh, L2, cache_2x4)
        k = sys.stiffness
        assert abs(k - k.T).max() < 1e-13
        u = np.random.default_rng(0).standard_normal(k.shape[0])
        assert u @ (k @ u) >= -1e-10

    def test_parameter_count_must_match_mesh(self, cache_2x4):
        with pytest.raises(ValueError):
            assemble(cache_2x4.mesh, LameVector([1.0], [1.0]), cache_2x4)

    def test_inadmissible_parameters_warn(self, cache_2x4):
        bad = LameVector([-1.0, 1.0], [1.0, 1.0])  # 2 mu + 3 lambda < 0 on top
        with pytest.warns(UserWarning):
            assemble(cache_2x4.mesh, bad, cache_2x4)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assemble(cache_2x4.mesh, bad, cache_2x4, warn=False)

    def test_linear_fields_reproduced_exactly(self, cache_1x4):
        # a linear displacement solves the constant-coefficient system and
        # lies in the P1 space, so the interior solve reproduces it
        sys = assemble(cache_1x4.mesh, LameVector([1.0], [1.2]), cache_1x4)
        a = np.array([[0.3, -0.1, 0.2], [0.0, 0.5, -0.4], [0.1, 0.2, -0.3]])
        exact = cache_1x4.mesh.vertices @ a.T
        got = solve_with_boundary_values(sys, exact)
        assert np.abs(got - exact).max() < 1e-12

    def test_layered_material_bends_linear_data(self, cache_2x4):
        # with a genuine coefficient jump the interface traction of a linear
        # field is discontinuous, so the solve must deviate from it inside
        sys = assemble(cache_2x4.mesh, L2, cache_2x4)
        a = np.array([[0.3, -0.1, 0.2], [0.0, 0.5, -0.4], [0.1, 0.2, -0.3]])
        exact = cache_2x4.mesh.vertices @ a.T
        got = solve_with_boundary_values(sys, exact)
        assert np.abs(got - exact).max() > 1e-4

    def test_dirichlet_trace_rows_exact(self, cache_2x4, rng):
        sys = assemble(cache_2x4.mesh, L2, cache_2x4)
        psi = random_sigma_trace(cache_2x4, rng)
        u = solve_dirichlet(sys, psi)
        assert np.array_equal(u.reshape(-1)[cache_2x4.sigma_dofs], psi)
        assert not u[cache_2x4.mesh.node_sets()["zero"]].any()

    def test_dirichlet_rejects_wrong_shape(self, cache_2x4):
        sys = assemble(cache_2x4.mesh, L2, cache_2x4)
        with pytest.raises(ValueError):
            solve_dirichlet(sys, np.ones(7))


class TestDnMatrix:
    def test_symmetric_positive(self, ctx_2x4):
        dn = dn_matrix(assemble(ctx_2x4.mesh, L2, ctx_2x4.cache))
        lam = dn.entries
        assert np.abs(lam - lam.T).max() < 1e-10
        w = np.linalg.eigvalsh(able := 0.5 * (lam + lam.T))
        assert w.min() > 0
        assert able.shape == dn.entries.shape

    def test_homogeneity_exact(self, cache_2x4):
        dn1 = dn_matrix(assemble(cache_2x4.mesh, L2, cache_2x4))
        scaled = LameVector(2.0 * np.asarray(L2.lambdas), 2.0 * np.asarray(L2.mus))
        dn2 = dn_matrix(assemble(cache_2x4.mesh, scaled, cache_2x4, warn=False))
        assert np.array_equal(dn2.entries, 2.0 * dn1.entries)

    @pytest.mark.parametrize("name, L", [("cache_1x4", LameVector([1.0], [1.2])),
                                         ("cache_2x4", L2)])
    def test_matches_dense_schur_complement(self, request, name, L):
        cache = request.getfixturevalue(name)
        sys = assemble(cache.mesh, L, cache)
        k = sys.stiffness.toarray()
        s_idx, i_idx = cache.sigma_dofs, cache.interior_dofs
        k_is = k[np.ix_(i_idx, s_idx)]
        ref = k[np.ix_(s_idx, s_idx)] - k_is.T @ np.linalg.solve(k[np.ix_(i_idx, i_idx)], k_is)
        lam = dn_matrix(sys).entries
        assert np.abs(lam - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("name", ["cache_2x4", "cache_2x8"])
    def test_order_ends_with_sigma(self, request, name):
        cache = request.getfixturevalue(name)
        free = np.concatenate([cache.interior_dofs, cache.sigma_dofs])
        assert np.array_equal(np.sort(cache.dn_order), np.sort(free))
        assert np.array_equal(cache.dn_order[-cache.sigma_dofs.size:], cache.sigma_dofs)

    def test_rejects_indefinite_interior_block(self, cache_2x4):
        sys = assemble(cache_2x4.mesh, LameVector([1.0, 0.8], [-1.0, -1.0]),
                       cache_2x4, warn=False)
        with pytest.raises(ValueError, match="positive definite"):
            dn_matrix(sys)

    def test_gram_spd_and_label(self, cache_2x4):
        g = cache_2x4.gram_half
        assert np.allclose(g, g.T, atol=1e-12)
        assert np.linalg.eigvalsh(g).min() > 0
        assert GRAM_LABEL == "spectral-half"

    def test_interior_identity(self, cache_2x4, rng):
        for _ in range(3):
            psi = random_sigma_trace(cache_2x4, rng)
            phi = random_sigma_trace(cache_2x4, rng)
            lhs, rhs, res = alessandrini_residual(
                cache_2x4.mesh, L2, L2B, psi, phi, cache_2x4
            )
            assert res < 1e-12
            assert lhs != 0.0

    @pytest.mark.parametrize("name", ["cache_2x4", "cache_2x8"])
    def test_interior_identity_factors_each_system_once(self, request, name,
                                                        rng, monkeypatch):
        """u1, u2 come from the factors the DN maps are read off: one
        factorisation per system, two a call."""
        cache = request.getfixturevalue(name)
        calls = []
        factor = fem._factor_fronts

        def counting_factor(*args, **kwargs):
            calls.append(1)
            return factor(*args, **kwargs)

        monkeypatch.setattr(fem, "_factor_fronts", counting_factor)
        for k in range(3):
            psi = random_sigma_trace(cache, rng)
            phi = random_sigma_trace(cache, rng)
            l1, l2 = sample_admissible(2, rng=rng), sample_admissible(2, rng=rng)
            _, _, res = alessandrini_residual(cache.mesh, l1, l2, psi, phi, cache)
            assert len(calls) == 2 * (k + 1)
            assert res < 1e-12

    def test_interior_identity_rejects_foreign_traces(self, cache_2x4, rng):
        psi = random_sigma_trace(cache_2x4, rng)
        with pytest.raises(ValueError, match="Sigma"):
            alessandrini_residual(cache_2x4.mesh, L2, L2B, psi[:-1], psi, cache_2x4)


def _dense_interior(sys):
    """Dense K and the interior / boundary index sets of a system."""
    cache = sys.cache
    return sys.stiffness.toarray(), cache.interior_dofs, cache.boundary_dofs


def _two_cubes(n):
    """Two one-layer unit cubes, n cells a side, a unit gap apart: the
    interior node graph falls in two pieces, so the first split finds no
    separator and two fronts sit below the Sigma block."""
    a = build_layered_cube(1, n)
    shift = a.num_vertices
    return PartitionedMesh(
        vertices=np.vstack([a.vertices, a.vertices + [2.0, 0.0, 0.0]]),
        tets=np.vstack([a.tets, a.tets + shift]), labels=np.tile(a.labels, 2),
        boundary_faces=np.vstack([a.boundary_faces, a.boundary_faces + shift]),
        boundary_tags=np.tile(a.boundary_tags, 2), interfaces=[], r0=a.r0, n=n)


def _stretched_cube(n, factor):
    """A one-layer cube stretched along x by `factor`, which makes x the
    widest coordinate of every node set the dissection splits.  At n = 5 the
    interior nodes lie on four x-planes: the first split leaves planes 0-1
    below, and the next one finds every node of plane 1 next to plane 0, so
    plane 1 is a separator front whose only child is the leaf plane 0."""
    a = build_layered_cube(1, n)
    return dataclasses.replace(a, vertices=a.vertices * [factor, 1.0, 1.0])


def _mesh(spec):
    if spec == "two-cubes":
        return _two_cubes(4)
    if spec == "one-child":
        return _stretched_cube(5, 4.0)
    return build_layered_cube(*spec)


class TestFronts:
    """The multifrontal factor against dense references on meshes whose
    dissection trees differ: a single leaf (n = 3), uneven median splits
    (odd n), several layers, a split without separator, and a separator
    with a single child."""

    MESHES = [(1, 3), (1, 5), (1, 7), (2, 2), (2, 6), (3, 3), (3, 6), "two-cubes",
              "one-child"]

    @pytest.mark.parametrize("spec", MESHES)
    def test_dn_matrix_matches_dense_schur_complement(self, spec):
        cache = build_cache(_mesh(spec))
        N = cache.mesh.N
        L = sample_admissible(N, rng=np.random.default_rng(10 * N + cache.mesh.n))
        sys = assemble(cache.mesh, L, cache)
        k, i_idx, _ = _dense_interior(sys)
        s_idx = cache.sigma_dofs
        k_is = k[np.ix_(i_idx, s_idx)]
        ref = k[np.ix_(s_idx, s_idx)] - k_is.T @ np.linalg.solve(k[np.ix_(i_idx, i_idx)], k_is)
        lam = dn_matrix(sys).entries
        assert np.abs(lam - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.array_equal(lam, lam.T)

    @pytest.mark.parametrize("spec", MESHES)
    def test_plan_partitions_and_nests(self, spec):
        """Pivot ranges tile the interior dofs, then Sigma; every update set
        lies after its front and inside its parent's front."""
        cache = build_cache(_mesh(spec))
        plan = cache.fronts
        assert len(plan.children[-1]) == (2 if spec == "two-cubes" else 1)
        ni = cache.interior_dofs.size
        assert plan.start[0] == 0
        assert np.array_equal(plan.start[1:], plan.stop[:-1])
        assert (plan.stop > plan.start).all()
        assert plan.start[-1] == ni and plan.stop[-1] == ni + cache.sigma_dofs.size
        assert plan.update[-1].size == 0
        kids = sorted(c for ch in plan.children for c in ch)
        assert kids == list(range(len(plan.update) - 1))
        for f, children in enumerate(plan.children):
            front = np.concatenate([np.arange(plan.start[f], plan.stop[f]), plan.update[f]])
            for c in children:
                assert c < f
                assert (plan.update[c] >= plan.stop[c]).all()
                assert np.isin(plan.update[c], front).all()

    def test_one_child_front_solves_match_dense(self, rng):
        cache = build_cache(_mesh("one-child"))
        assert [len(c) for c in cache.fronts.children[:-1]].count(1) == 1
        sys = assemble(cache.mesh, LameVector([0.7], [1.3]), cache)
        k, i_idx, b_idx = _dense_interior(sys)
        k_ii = k[np.ix_(i_idx, i_idx)]
        psi = random_sigma_trace(cache, rng)
        want = -np.linalg.solve(k_ii, k[np.ix_(i_idx, cache.sigma_dofs)] @ psi)
        got = solve_dirichlet(sys, psi).reshape(-1)[i_idx]
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        g = rng.standard_normal((cache.mesh.num_vertices, 3))
        want = -np.linalg.solve(k_ii, k[np.ix_(i_idx, b_idx)] @ g.reshape(-1)[b_idx])
        got = solve_with_boundary_values(sys, g).reshape(-1)
        assert np.abs(got[i_idx] - want).max() <= 1e-12 * np.abs(want).max()
        assert np.array_equal(got[b_idx], g.reshape(-1)[b_idx])

    def test_no_sparse_lu(self, cache_2x8, rng, monkeypatch):
        """Every solve and the DN map and its partials use the one factor."""
        def refuse(*args, **kwargs):
            raise AssertionError("sparse LU called")

        monkeypatch.setattr(fem.spla, "splu", refuse)
        monkeypatch.setattr(fem.spla, "spsolve", refuse)
        sys = assemble(cache_2x8.mesh, L2, cache_2x8)
        dn_matrix(sys)
        dn_partials(sys)
        solve_dirichlet(sys, random_sigma_trace(cache_2x8, rng))
        solve_with_boundary_values(sys, rng.standard_normal((cache_2x8.mesh.num_vertices, 3)))
        alessandrini_residual(cache_2x8.mesh, L2, L2B, random_sigma_trace(cache_2x8, rng),
                              random_sigma_trace(cache_2x8, rng), cache_2x8)

    @pytest.mark.parametrize("name", ["cache_1x4", "cache_2x4", "cache_2x8"])
    def test_solve_dirichlet_matches_dense(self, request, name, rng):
        cache = request.getfixturevalue(name)
        sys = assemble(cache.mesh, L2 if cache.mesh.N == 2 else LameVector([1.0], [1.2]), cache)
        k, i_idx, _ = _dense_interior(sys)
        psi = random_sigma_trace(cache, rng)
        want = -np.linalg.solve(k[np.ix_(i_idx, i_idx)], k[np.ix_(i_idx, cache.sigma_dofs)] @ psi)
        got = solve_dirichlet(sys, psi).reshape(-1)[i_idx]
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("name", ["cache_1x4", "cache_2x4", "cache_2x8"])
    def test_solve_with_boundary_values_matches_dense(self, request, name, rng):
        cache = request.getfixturevalue(name)
        sys = assemble(cache.mesh, L2 if cache.mesh.N == 2 else LameVector([1.0], [1.2]), cache)
        k, i_idx, b_idx = _dense_interior(sys)
        g = rng.standard_normal((cache.mesh.num_vertices, 3))
        want = -np.linalg.solve(k[np.ix_(i_idx, i_idx)],
                                k[np.ix_(i_idx, b_idx)] @ g.reshape(-1)[b_idx])
        got = solve_with_boundary_values(sys, g).reshape(-1)
        assert np.abs(got[i_idx] - want).max() <= 1e-12 * np.abs(want).max()
        assert np.array_equal(got[b_idx], g.reshape(-1)[b_idx])


def _dof_blocks_reference(vol, grads):
    """The (nt, 12, 12) element blocks in dof order p = 3*i + a, from the
    dof-level formula the node-pair blocks replaced."""
    nt = vol.size
    flat = grads.reshape(nt, 12)
    a_lam = vol[:, None, None] * np.einsum("np,nq->npq", flat, flat)
    dots = np.einsum("nia,nja->nij", grads, grads)
    term1 = np.einsum("nij,ab->niajb", dots, np.eye(3)).reshape(nt, 12, 12)
    outer = np.einsum("nia,njb->niajb", grads, grads)
    term2 = outer.transpose(0, 3, 2, 1, 4).reshape(nt, 12, 12)
    return a_lam, vol[:, None, None] * 0.5 * (term1 + term2)


def _coo_splits(cache):
    """The subdomain splits assembled from dof-level COO triplets."""
    mesh = cache.mesh
    ndof = 3 * mesh.num_vertices
    dofs = (3 * mesh.tets[:, :, None] + np.arange(3)).reshape(-1, 12)
    rows = np.repeat(dofs, 12, axis=1).ravel()
    cols = np.tile(dofs, (1, 12)).ravel()
    splits = []
    for blk in _dof_blocks_reference(cache.vol, cache.grads):
        for j in range(1, mesh.N + 1):
            sel = mesh.labels == j
            idx = np.repeat(sel, 144)
            splits.append(sp.coo_matrix((blk[sel].ravel(), (rows[idx], cols[idx])),
                                        shape=(ndof, ndof)).tocsr())
    return splits


class TestSetUp:
    def test_degenerate_tet_raises_before_dividing(self):
        mesh = build_layered_cube(1, 2)
        tets = mesh.tets.copy()
        tets[0] = [0, 1, 3, 4]  # the corners of one bottom-face cell: flat
        assert not mesh.vertices[tets[0], 2].any()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="degenerate tet"):
                build_cache(dataclasses.replace(mesh, tets=tets))

    def test_peak_memory_at_most_twice_the_cache(self):
        """Under tracemalloc, the peak while build_cache runs is at most
        twice the traced bytes that the returned cache holds."""
        mesh = build_layered_cube(2, 12)
        tracemalloc.start()
        try:
            cache = build_cache(mesh)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cache.fronts.offset[-1] > 0
        assert peak <= 2 * kept, (peak, kept)


class TestSplits:
    """The subdomain splits summed from node-pair blocks against the
    dof-level COO assembly: the same CSR pattern (sorted indices, a full
    3 x 3 block per coupled node pair), entries up to summation order."""

    @pytest.mark.parametrize("spec", [(1, 3), (2, 4), (3, 6), (2, 12), "two-cubes"])
    def test_splits_match_coo_reference(self, spec):
        cache = build_cache(_mesh(spec))
        for got, want in zip(cache.a_lam + cache.a_mu, _coo_splits(cache)):
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert np.abs(got.data - want.data).max() <= 1e-15 * np.abs(want.data).max()

    def test_node_pair_blocks_match_dof_blocks(self):
        """On tets off the grid, where no gradient component vanishes: the
        kernel's node-pair sums against the reference blocks summed per node
        pair, and its closed-form gradients against inverted edge matrices."""
        mesh = build_layered_cube(2, 4)
        rng = np.random.default_rng(5)
        mesh = dataclasses.replace(
            mesh, vertices=mesh.vertices + 0.02 * rng.standard_normal(mesh.vertices.shape))
        vol, grads, sub, rows, cols, a_lam, a_mu = backend.stiffness_blocks(mesh)
        coords = mesh.vertices[mesh.tets]
        inv = np.linalg.inv(coords[:, 1:] - coords[:, :1])
        assert np.abs(grads[:, 1:] - inv.transpose(0, 2, 1)).max() <= 1e-15 * np.abs(inv).max()
        assert np.abs(grads.sum(axis=1)).max() <= 1e-15 * np.abs(inv).max()

        nv, nt = mesh.num_vertices, mesh.num_tets
        keys = (sub * nv + rows) * nv + cols
        assert (np.diff(keys) > 0).all()
        t = mesh.tets.astype(np.int64)
        tet_keys = (((mesh.labels[:, None, None] - 1) * nv + t[:, :, None]) * nv
                    + t[:, None, :]).ravel()
        pos = np.searchsorted(keys, tet_keys)
        assert np.array_equal(keys[pos], tet_keys)
        assert np.unique(pos).size == keys.size
        for got, blk in zip((a_lam, a_mu), _dof_blocks_reference(vol, grads)):
            want = np.zeros_like(got)
            np.add.at(want, pos, blk.reshape(nt, 4, 3, 4, 3).transpose(0, 1, 3, 2, 4)
                      .reshape(-1, 3, 3))
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


class TestDnPartials:
    @pytest.mark.parametrize("name, L", [("cache_1x4", LameVector([1.0], [1.2])),
                                         ("cache_2x4", L2)])
    def test_matches_dense_reference(self, request, name, L):
        """J_p = A_SS - A_IS^T X - X^T A_IS + X^T A_II X, X = K_II^{-1} K_IS."""
        cache = request.getfixturevalue(name)
        sys = assemble(cache.mesh, L, cache)
        k = sys.stiffness.toarray()
        s_idx, i_idx = cache.sigma_dofs, cache.interior_dofs
        x = np.linalg.solve(k[np.ix_(i_idx, i_idx)], k[np.ix_(i_idx, s_idx)])
        dks = [a.toarray() for a in cache.a_lam] + [2.0 * a.toarray() for a in cache.a_mu]
        got = dn_partials(sys)
        assert len(got) == 2 * L.N
        for jp, dk in zip(got, dks):
            a_is = dk[np.ix_(i_idx, s_idx)]
            ref = (dk[np.ix_(s_idx, s_idx)] - a_is.T @ x - x.T @ a_is
                   + x.T @ dk[np.ix_(i_idx, i_idx)] @ x)
            assert np.abs(jp - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("name, L", [("cache_1x4", LameVector([1.0], [1.2])),
                                         ("cache_2x4", L2)])
    def test_euler_identity(self, request, name, L):
        """Lambda is homogeneous of degree one in L: sum_p L_p J_p = Lambda."""
        cache = request.getfixturevalue(name)
        sys = assemble(cache.mesh, L, cache)
        lam = dn_matrix(sys).entries
        euler = sum(lp * jp for lp, jp in zip(L.as_array(), dn_partials(sys)))
        assert np.abs(euler - lam).max() <= 1e-12 * np.abs(lam).max()


class TestQuadratureAndNorms:
    def test_weights_and_points(self):
        bary, w = tet_quadrature(4)
        assert w.sum() == pytest.approx(1.0, rel=1e-14)
        assert (bary >= -1e-14).all()
        assert np.allclose(bary.sum(axis=1), 1.0)

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_gauss_jacobi_matches_scipy(self, n, alpha):
        # weights to 1e-14 of their sum 2^(alpha+1)/(alpha+1): at n = 6,
        # alpha = 2 SciPy's own weights are 1.0e-14 off a 40-digit reference
        x, w = fem._gauss_jacobi(n, alpha)
        x_ref, w_ref = roots_jacobi(n, alpha, 0.0)
        assert np.abs(x - x_ref).max() <= 1e-14
        assert np.abs(w - w_ref).max() <= 1e-14 * w_ref.sum()

    def test_polynomial_exactness(self):
        # int over the reference tet of x^2 y equals 1/360 = vol * sum w x^2 y
        bary, w = tet_quadrature(3)
        x, y = bary[:, 1], bary[:, 2]
        val = (1.0 / 6.0) * np.dot(w, x**2 * y)
        assert val == pytest.approx(1.0 / 360.0, rel=1e-13)

    def test_h1_error_vanishes_for_linear_fields(self, cache_1x4):
        a = np.array([[0.2, 0.1, 0.0], [-0.3, 0.4, 0.2], [0.0, -0.1, 0.5]])
        u = cache_1x4.mesh.vertices @ a.T

        def grad_exact(pts):
            return np.broadcast_to(a, (pts.shape[0], 3, 3))

        assert h1_seminorm_error(cache_1x4, u, grad_exact) < 1e-13

    def test_element_gradients_constant_for_linear(self, cache_1x4):
        a = np.array([[0.2, 0.1, 0.0], [-0.3, 0.4, 0.2], [0.0, -0.1, 0.5]])
        u = cache_1x4.mesh.vertices @ a.T
        g = element_gradients(cache_1x4, u)
        assert np.abs(g - a).max() < 1e-13


class TestFileFormats:
    def test_matrix_json_roundtrip(self, tmp_path, rng):
        m = rng.standard_normal((5, 7))
        path = tmp_path / "m.json"
        save_matrix_json(path, m)
        assert np.array_equal(load_matrix_json(path), m)


def test_convergence_under_refinement():
    # one coarse/fine pair of the full H1 study; the slope test lives in the
    # acceptance suite
    from lamedn import backend

    lam, mu = 1.0, 1.0
    nu = poisson_ratio(lam, mu)
    y = np.array([0.5, 0.5, 1.8])
    errs = []
    for n in (4, 8):
        mesh = build_layered_cube(1, n)
        cache = build_cache(mesh)
        sys = assemble(mesh, LameVector([lam], [mu]), cache)
        g = backend.kelvin_batch(mesh.vertices, y, mu, nu, np.eye(3)[2])
        u = solve_with_boundary_values(sys, g)
        from lamedn.kernels import kelvin_gradient

        def grad_exact(pts):
            return np.stack([kelvin_gradient(p, y, mu, nu)[:, 2, :] for p in pts])

        errs.append(h1_seminorm_error(cache, u, grad_exact, degree=3))
    assert errs[1] < errs[0]
    assert errs[0] / errs[1] > 1.7
