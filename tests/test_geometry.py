"""Mesh construction/validation and the cone ball chain."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lamedn.geometry import (
    TAG_SIGMA,
    _boundary_faces,
    _face_keys,
    _tet_faces,
    build_cone_chain,
    build_layered_cube,
    eta_r,
    load_mesh,
    nesting_margins,
    save_mesh,
    validate_mesh,
)


class TestLayeredCube:
    @pytest.mark.parametrize("N,n", [(1, 2), (1, 4), (2, 4), (3, 6)])
    def test_build_and_validate(self, N, n):
        mesh = build_layered_cube(N, n)
        validate_mesh(mesh)
        assert mesh.N == N
        assert mesh.num_vertices == (n + 1) ** 3
        assert mesh.num_tets == 6 * n**3
        assert mesh.n == n

    def test_volumes_positive_and_sum_to_one(self):
        mesh = build_layered_cube(2, 4)
        vols = mesh.tet_volumes()
        assert (vols > 0).all()
        assert vols.sum() == pytest.approx(1.0, abs=1e-12)

    def test_label_one_is_top_layer(self):
        mesh = build_layered_cube(3, 6)
        cent = mesh.vertices[mesh.tets].mean(axis=1)
        z = cent[:, 2]
        assert (z[mesh.labels == 1] > 2.0 / 3.0).all()
        assert (z[mesh.labels == 3] < 1.0 / 3.0).all()

    def test_node_sets_partition_vertices(self):
        mesh = build_layered_cube(2, 4)
        sets = mesh.node_sets()
        idx = np.concatenate([sets["interior"], sets["sigma"], sets["zero"]])
        assert len(idx) == mesh.num_vertices
        assert len(np.unique(idx)) == mesh.num_vertices

    def test_sigma_nodes_interior_of_top_face(self):
        mesh = build_layered_cube(1, 4)
        sigma = mesh.node_sets()["sigma"]
        pts = mesh.vertices[sigma]
        assert len(sigma) == 3**2  # (n-1)^2 interior top-grid nodes
        assert np.allclose(pts[:, 2], 1.0)
        assert (pts[:, :2] > 0).all() and (pts[:, :2] < 1).all()

    def test_sigma_margin_shrinks_patch(self):
        mesh = build_layered_cube(1, 4, sigma_margin=0.2)
        sigma = mesh.node_sets()["sigma"]
        assert len(sigma) == 1
        assert np.allclose(mesh.vertices[sigma[0]], [0.5, 0.5, 1.0])
        full = build_layered_cube(1, 4)
        n_sigma = (mesh.boundary_tags == TAG_SIGMA).sum()
        assert n_sigma < (full.boundary_tags == TAG_SIGMA).sum()

    def test_certified_scale(self):
        assert build_layered_cube(1, 4).r0 == pytest.approx(1.0)
        assert build_layered_cube(2, 4, sigma_margin=0.1).r0 == pytest.approx(1.0)
        assert build_layered_cube(4, 8).r0 == pytest.approx(0.75)

    def test_build_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            build_layered_cube(0, 4)
        with pytest.raises(ValueError):
            build_layered_cube(1, 1)
        with pytest.raises(ValueError):
            build_layered_cube(3, 4)  # n not divisible by N
        with pytest.raises(ValueError):
            build_layered_cube(1, 4, sigma_margin=0.5)

    def test_validate_catches_degenerate_tet(self):
        mesh = build_layered_cube(1, 2)
        mesh.tets[0] = mesh.tets[0][0]  # collapse to a point
        with pytest.raises(ValueError, match="degenerate"):
            validate_mesh(mesh)

    def test_validate_catches_undeclared_interface(self):
        mesh = build_layered_cube(2, 4)
        mesh.labels[mesh.labels == 2] = 3  # labels 1,3 touch with no declared plane
        with pytest.raises(ValueError, match="interface"):
            validate_mesh(mesh)

    def test_validate_catches_interface_off_its_plane(self):
        mesh = build_layered_cube(2, 4)
        mesh.interfaces[0]["point"] = [0.5, 0.5, 0.6]
        with pytest.raises(ValueError, match="off its plane by 1.00e-01"):
            validate_mesh(mesh)

    def test_validate_catches_d1_away_from_sigma(self):
        mesh = build_layered_cube(2, 4)
        mesh.labels = 3 - mesh.labels  # label 1 is now the bottom layer
        with pytest.raises(ValueError, match="D_1 does not touch Sigma"):
            validate_mesh(mesh)

    def test_validate_catches_non_manifold_faces(self):
        mesh = build_layered_cube(1, 2)
        mesh.tets = np.vstack([mesh.tets, mesh.tets[:1]])
        mesh.labels = np.append(mesh.labels, 1)
        with pytest.raises(ValueError, match="non-manifold"):
            validate_mesh(mesh)

    def test_validate_catches_missing_boundary_face(self):
        mesh = build_layered_cube(1, 2)
        mesh.boundary_faces = mesh.boundary_faces[1:]
        mesh.boundary_tags = mesh.boundary_tags[1:]
        with pytest.raises(ValueError, match="boundary face list inconsistent"):
            validate_mesh(mesh)

    def test_validate_catches_broken_chain(self):
        mesh = build_layered_cube(3, 6)
        mesh.labels[mesh.labels == 3] = 4  # D_3 is empty, D_4 touches no D_3
        mesh.interfaces[1] = {**mesh.interfaces[1], "k": 4}
        with pytest.raises(ValueError, match="chain condition"):
            validate_mesh(mesh)

    def test_save_load_roundtrip(self, tmp_path):
        mesh = build_layered_cube(2, 4, sigma_margin=0.1)
        path = tmp_path / "mesh.json"
        save_mesh(mesh, path)
        back = load_mesh(path)
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.tets, mesh.tets)
        assert np.array_equal(back.labels, mesh.labels)
        assert np.array_equal(back.boundary_tags, mesh.boundary_tags)
        assert back.r0 == mesh.r0
        assert back.n == mesh.n
        assert back.sigma_margin == mesh.sigma_margin
        assert back.interfaces[0]["point"][2] == pytest.approx(0.5)


def _boundary_faces_reference(tets):
    """Faces met once, found by a row-wise np.unique of the sorted faces."""
    faces = _tet_faces(tets)
    _, inverse, counts = np.unique(np.sort(faces, axis=1), axis=0,
                                   return_inverse=True, return_counts=True)
    return faces[counts[inverse] == 1].astype(np.int32)


class TestFaceKeys:
    @pytest.mark.parametrize("N,n", [(1, 3), (2, 4), (3, 6), (2, 12)])
    def test_boundary_faces_match_row_unique(self, N, n):
        mesh = build_layered_cube(N, n)
        want = _boundary_faces_reference(mesh.tets)
        assert mesh.boundary_faces.dtype == want.dtype
        assert np.array_equal(mesh.boundary_faces, want)

    def test_boundary_faces_of_shuffled_two_cubes(self):
        """Two cubes a gap apart, vertices renumbered and tets reordered."""
        a = build_layered_cube(1, 4)
        tets = np.vstack([a.tets, a.tets + a.num_vertices])
        rng = np.random.default_rng(3)
        tets = rng.permutation(2 * a.num_vertices)[tets][rng.permutation(tets.shape[0])]
        assert np.array_equal(_boundary_faces(tets), _boundary_faces_reference(tets))

    def test_keys_identify_vertex_sets(self):
        faces = np.array([[4, 1, 2], [2, 4, 1], [1, 2, 3], [0, 0, 0]])
        keys = _face_keys(faces, 5)
        assert keys.tolist() == [(1 * 5 + 2) * 5 + 4] * 2 + [(1 * 5 + 2) * 5 + 3, 0]

    def test_overflow_guard(self):
        """Keys reach nv**3 - 1, which for nv = 2**21 is the int64 maximum."""
        nv = 2 ** 21
        top = _face_keys(np.array([[nv - 1] * 3, [nv - 1, nv - 3, nv - 2]]), nv)
        assert top.tolist() == [np.iinfo(np.int64).max, ((nv - 3) * nv + nv - 2) * nv + nv - 1]
        with pytest.raises(ValueError, match="overflow"):
            _face_keys(np.array([[0, 1, 2]]), nv + 1)
        with pytest.raises(ValueError, match="overflow"):
            _boundary_faces(np.array([[0, 1, 2, nv]]))


class TestConeChain:
    def test_contraction_factor_frozen(self):
        gamma3 = math.atan(0.5)
        chain = build_cone_chain(1.0, gamma3, 0.2)
        expect = (4 * math.sqrt(5) - 3) / (4 * math.sqrt(5) - 1)
        assert chain.chi == pytest.approx(expect, rel=1e-14)
        assert chain.chi == pytest.approx(0.7482462807595149, abs=1e-15)

    def test_last_center_exact(self):
        chain = build_cone_chain(1.0, math.atan(0.5), 0.2)
        assert chain.s[-1] == 0.2
        assert chain.centers[-1, 2] == -0.2
        assert chain.centers[-1, 0] == 0.0 and chain.centers[-1, 1] == 0.0

    def test_radii_follow_angles(self):
        chain = build_cone_chain(1.0, 0.5, 0.1)
        s3 = math.sin(0.5)
        assert np.allclose(chain.r1k, chain.s * s3 / 4)
        assert np.allclose(chain.r2k, chain.s * 3 * s3 / 4)
        assert np.allclose(chain.r3k, chain.s * s3)
        assert (np.diff(chain.s) < 0).all()

    @given(
        rho=st.floats(0.1, 10.0),
        gamma3=st.floats(0.05, 1.5),
        frac=st.floats(1e-4, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_first_center_in_band(self, rho, gamma3, frac):
        s3 = math.sin(gamma3)
        chi = (1 - 3 * s3 / 4) / (1 - s3 / 4)
        t0 = rho / math.tan(gamma3) / (1 + s3)
        chain = build_cone_chain(rho, gamma3, frac * chi * t0)
        assert chi * t0 * (1 - 1e-10) <= chain.t <= t0 * (1 + 1e-10)
        # k0 is maximal: one more contraction step would overshoot r/t0
        assert chain.chi ** (chain.k0 - 1) >= chain.r / chain.t0 * (1 - 1e-12)

    def test_nesting_margins(self):
        chain = build_cone_chain(1.0, math.atan(0.5), 0.05)
        m = nesting_margins(chain)
        ulp8 = 8 * np.spacing(chain.t0)
        assert (m["inner"] >= -ulp8).all()  # tangent by construction
        assert (m["lateral"] >= -ulp8).all()  # tangent by construction
        assert (m["middle"] > 0).all()
        assert (m["depth"] >= -ulp8).all()

    def test_build_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            build_cone_chain(1.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            build_cone_chain(1.0, math.pi / 2, 0.1)
        with pytest.raises(ValueError):
            build_cone_chain(-1.0, 0.5, 0.1)
        with pytest.raises(ValueError):
            build_cone_chain(1.0, 0.5, 0.0)
        chain = build_cone_chain(1.0, 0.5, 0.1)
        with pytest.raises(ValueError):
            build_cone_chain(1.0, 0.5, chain.chi * chain.t0 * 1.01)

    def test_eta_r_reduces_to_theta_bar_at_r_eq_t(self):
        chain = build_cone_chain(1.0, math.atan(0.5), 0.2)
        flat = dataclasses.replace(chain, r=chain.t)
        assert eta_r(flat, 0.3) == pytest.approx(0.3, rel=1e-15)
        # generally strictly smaller than theta_bar when r < t
        deep = build_cone_chain(1.0, math.atan(0.5), 0.01)
        assert 0.0 < eta_r(deep, 0.3) < 0.3

    def test_eta_r_rejects_bad_theta(self):
        chain = build_cone_chain(1.0, 0.5, 0.1)
        with pytest.raises(ValueError):
            eta_r(chain, 0.0)
        with pytest.raises(ValueError):
            eta_r(chain, 1.0)
