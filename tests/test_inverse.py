"""Fréchet derivatives, q0 search, Lipschitz probe, projected Gauss-Newton."""

import itertools
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import minimize

from lamedn import fem, inverse
from lamedn.core import DEFAULT_BOX, AdmissibleBox, LameVector, check_admissible, sample_admissible
from lamedn.geometry import TAG_SIGMA, build_layered_cube
from lamedn.inverse import (
    ForwardContext,
    _face_bounds,
    _face_min,
    _project_box,
    _project_feasible,
    _whitened,
    build_context,
    forward,
    frechet_derivative,
    lipschitz_probe,
    q0_estimate,
    q0_search,
    reconstruct,
    star_norm,
)

L2 = LameVector([1.0, 0.8], [0.9, 1.2])
L2B = LameVector([1.1, 0.7], [1.0, 1.1])


def dependent_partials():
    """A stack of four random symmetric 12 x 12 partials with M_1 = -M_0."""
    rng = np.random.default_rng(5)
    stack = []
    for _ in range(3):
        g = rng.standard_normal((12, 12))
        stack.append(g + g.T)
    return np.array([stack[0], -stack[0], stack[1], stack[2]])


def count_factorisations(monkeypatch):
    """Count multifrontal factorisations; each call also records how many
    FemSystems built through `inverse.assemble` still hold a factor."""
    calls, systems = [], []
    factor, assemble = fem._factor_fronts, inverse.assemble

    def counting_factor(*args, **kwargs):
        calls.append(sum(1 for ref in systems
                         if (s := ref()) is not None and "cholesky" in vars(s)))
        return factor(*args, **kwargs)

    def recording_assemble(*args, **kwargs):
        sys = assemble(*args, **kwargs)
        systems.append(weakref.ref(sys))
        return sys

    monkeypatch.setattr(fem, "_factor_fronts", counting_factor)
    monkeypatch.setattr(inverse, "assemble", recording_assemble)
    return calls


class TestContext:
    def test_gram_hash_stable_and_mesh_dependent(self, ctx_2x4, ctx_2x8):
        h = ctx_2x4.gram_hash()
        assert len(h) == 16
        assert h == ctx_2x4.gram_hash()
        assert h != ctx_2x8.gram_hash()

    def test_gram_hashed_once_on_first_use(self, cache_2x4, monkeypatch):
        calls = []
        sha256 = inverse.hashlib.sha256
        monkeypatch.setattr(inverse.hashlib, "sha256",
                            lambda data: calls.append(1) or sha256(data))
        ctx = ForwardContext(cache=cache_2x4)
        assert not calls
        assert ctx.gram_hash() == ctx.gram_hash() == sha256(
            cache_2x4.gram_half.tobytes()).hexdigest()[:16]
        assert len(calls) == 1

    def test_build_context(self, mesh_1x4):
        ctx = build_context(mesh_1x4)
        assert ctx.mesh is mesh_1x4
        assert ctx.box == DEFAULT_BOX

    def test_whitening_inverts_gram(self, ctx_2x4, ctx_2x8):
        # C^T G C = I and C C^T = G^{-1} for the node-level factor, and
        # through `_whitened` on the vector Gram G (x) I3
        for ctx in (ctx_2x4, ctx_2x8):
            g, c = ctx.cache.gram, ctx.cache.whitening
            assert np.abs(c.T @ g @ c - np.eye(g.shape[0])).max() <= 1e-13
            white = _whitened(ctx, ctx.cache.gram_half)
            assert np.abs(white - np.eye(white.shape[0])).max() <= 1e-13
            g_inv = np.linalg.inv(g)
            assert np.abs(c @ c.T - g_inv).max() <= 1e-13 * np.abs(g_inv).max()

    def test_whitened_matches_dense_reference(self, ctx_2x4, ctx_2x8, rng):
        """The per-node whitening against kron(C, I3)^T X kron(C, I3), on a
        nonsymmetric matrix and on the (2N, n, n) stack of partials."""
        for ctx in (ctx_2x4, ctx_2x8):
            k = np.kron(ctx.cache.whitening, np.eye(3))
            n = k.shape[0]
            for x in (rng.standard_normal((n, n)),
                      np.array(frechet_derivative(ctx, L2).mats)):
                want = k.T @ x @ k
                got = _whitened(ctx, x)
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
            assert np.array_equal(_whitened(ctx, list(x)), got)

    def test_gram_half_is_node_gram_times_identity(self, ctx_2x4, ctx_2x8):
        for ctx in (ctx_2x4, ctx_2x8):
            g = ctx.cache.gram
            assert g.shape == ctx.cache.whitening.shape == (ctx.cache.sigma_dofs.size // 3,) * 2
            assert np.array_equal(ctx.cache.gram_half, np.kron(g, np.eye(3)))

    def test_gram_hash_pinned(self):
        # reports name the Gram by this hash: pinned, so that how the cache
        # stores the Gram cannot change the hash of reports
        assert build_context(build_layered_cube(3, 6)).gram_hash() == "d5b2a4b56ef9c9ff"

    def test_indefinite_mass_rejected(self, mesh_1x4, monkeypatch):
        surface_p1 = fem._surface_p1

        def flipped(mesh, faces):
            mass, stiff = surface_p1(mesh, faces)
            mass = mass.tolil()
            node = mesh.node_sets()["sigma"][0]
            mass[node, node] *= -1.0
            return mass.tocsr(), stiff

        monkeypatch.setattr(fem, "_surface_p1", flipped)
        with pytest.raises(ValueError, match="positive definite"):
            fem.build_cache(mesh_1x4)

    def test_gram_is_geometric_mean(self, ctx_2x4, ctx_2x8):
        # G = M^{1/2} (M^{-1/2} (M + r0^2 S) M^{-1/2})^{1/2} M^{1/2}, each root
        # from its own eigh, and the vector Gram is G (x) I3
        def power(a, p):
            w, u = np.linalg.eigh(a)
            return (u * w ** p) @ u.T

        for ctx in (ctx_2x4, ctx_2x8):
            mesh = ctx.mesh
            sigma = mesh.node_sets()["sigma"]
            mass, stiff = fem._surface_p1(mesh, mesh.boundary_faces[mesh.boundary_tags == TAG_SIGMA])
            m = mass[sigma][:, sigma].toarray()
            s = stiff[sigma][:, sigma].toarray()
            m_half, m_ihalf = power(m, 0.5), power(m, -0.5)
            ref = m_half @ power(m_ihalf @ (m + mesh.r0 ** 2 * s) @ m_ihalf, 0.5) @ m_half
            ref = np.kron(ref, np.eye(3))
            g = ctx.cache.gram_half
            assert np.abs(g - ref).max() <= 1e-13 * np.abs(ref).max()


class TestForwardAndNorm:
    def test_forward_returns_symmetric_dn(self, ctx_2x4):
        dn = forward(ctx_2x4, L2)
        assert np.abs(dn.entries - dn.entries.T).max() < 1e-10

    def test_star_norm_basics(self, ctx_2x4):
        g = ctx_2x4.cache.gram_half
        assert star_norm(ctx_2x4, np.zeros_like(g)) == 0.0
        assert star_norm(ctx_2x4, g) == pytest.approx(1.0, rel=1e-10)
        d = forward(ctx_2x4, L2).entries - forward(ctx_2x4, L2B).entries
        v = star_norm(ctx_2x4, d)
        assert v > 0
        assert star_norm(ctx_2x4, 2.0 * d) == pytest.approx(2.0 * v, rel=1e-12)

    @pytest.mark.parametrize("name", ["ctx_2x4", "ctx_2x8"])
    def test_star_norm_matches_svd(self, name, request):
        # against the SVD of the difference whitened by the symmetric G^{-1/2}
        ctx = request.getfixturevalue(name)
        w, u = np.linalg.eigh(ctx.cache.gram_half)
        g_ihalf = (u / np.sqrt(w)) @ u.T
        rng = np.random.default_rng(11)
        for _ in range(3):
            d = (forward(ctx, sample_admissible(2, rng=rng)).entries
                 - forward(ctx, sample_admissible(2, rng=rng)).entries)
            svd = np.linalg.norm(g_ihalf @ d @ g_ihalf, 2)
            assert star_norm(ctx, d) == pytest.approx(svd, rel=1e-13)


class TestFrechetDerivative:
    def test_matches_finite_differences(self, ctx_2x4, rng):
        jac = frechet_derivative(ctx_2x4, L2)
        h = 1e-6
        direction = rng.uniform(-1, 1, 4)
        base = L2.as_array()
        fp = forward(ctx_2x4, LameVector.from_array(base + h * direction)).entries
        fm = forward(ctx_2x4, LameVector.from_array(base - h * direction)).entries
        fd = (fp - fm) / (2 * h)
        got = jac.directional(direction)
        scale = np.abs(fd).max()
        assert np.abs(got - fd).max() / scale < 1e-7

    def test_partials_are_symmetric(self, ctx_2x4):
        jac = frechet_derivative(ctx_2x4, L2)
        assert len(jac.mats) == 4  # lambda_1, lambda_2, mu_1, mu_2
        for m in jac.mats:
            assert np.abs(m - m.T).max() < 1e-12

    def test_flat_ordering_lambda_first(self, ctx_2x4):
        jac = frechet_derivative(ctx_2x4, L2)
        h = 1e-6
        base = L2.as_array()
        for p, name in enumerate(["lam1", "lam2", "mu1", "mu2"]):
            e = np.zeros(4)
            e[p] = 1.0
            fp = forward(ctx_2x4, LameVector.from_array(base + h * e)).entries
            fm = forward(ctx_2x4, LameVector.from_array(base - h * e)).entries
            fd = (fp - fm) / (2 * h)
            err = np.abs(jac.mats[p] - fd).max() / np.abs(fd).max()
            assert err < 1e-6, name

    def test_directional_is_linear(self, ctx_2x4, rng):
        jac = frechet_derivative(ctx_2x4, L2)
        h1 = rng.uniform(-1, 1, 4)
        h2 = rng.uniform(-1, 1, 4)
        combo = jac.directional(2.0 * h1 - 0.5 * h2)
        parts = 2.0 * jac.directional(h1) - 0.5 * jac.directional(h2)
        assert np.allclose(combo, parts, atol=1e-13)

    def test_factors_once(self, ctx_2x4, monkeypatch):
        calls = count_factorisations(monkeypatch)
        frechet_derivative(ctx_2x4, L2)
        assert len(calls) == 1


class TestQ0:
    def test_positive_on_admissible_sample(self, ctx_2x4, rng):
        samples = sample_admissible(2, rng=rng)
        q0 = q0_estimate(ctx_2x4, [samples])
        assert q0 > 0

    def test_min_over_more_samples_never_increases(self, ctx_2x4):
        q_one = q0_estimate(ctx_2x4, [L2])
        q_two = q0_estimate(ctx_2x4, [L2, L2B])
        assert q_two <= q_one + 1e-12

    def test_empty_samples_rejected(self, ctx_2x4):
        with pytest.raises(ValueError):
            q0_estimate(ctx_2x4, [])

    def test_no_face_grid_point_below_estimate(self, ctx_2x4):
        # q0 must be the minimum of f(H) = ||sum H_p M_p||_2 over the whole
        # sup-norm sphere, not just some positive value of it; each face
        # solve must likewise undercut every grid point of its own face
        mats = _whitened(ctx_2x4, frechet_derivative(ctx_2x4, L2).mats)
        q0 = q0_estimate(ctx_2x4, [L2])
        axis = np.linspace(-1.0, 1.0, 9)
        free = np.array(list(itertools.product(axis, repeat=3)))
        for p in range(4):
            face = _face_min(mats, p)[0]
            for sign in (-1.0, 1.0):
                h = np.insert(free, p, sign, axis=1)
                f = np.abs(np.linalg.eigvalsh(np.tensordot(h, mats, 1))).max(axis=1)
                assert q0 <= f.min() * (1.0 + 1e-9), (p, sign)
                assert face <= f.min() * (1.0 + 1e-9), (p, sign)

    def test_face_solve_terminates_at_zero_minimum(self):
        # M_1 = -M_0: on the faces H_0 = 1 and H_1 = 1 the minimum 0 sits on
        # the face boundary (H_1 = -1, resp. H_0 = -1)
        mats = dependent_partials()
        scale = sum(np.linalg.norm(m, 2) for m in mats)
        for p in (0, 1):
            value, steps = _face_min(mats, p)[:2]
            assert 0.0 <= value <= 1e-12 * scale
            assert steps <= 300

    def test_face_solve_with_dependent_partials(self):
        # M_1 = -M_0 makes the data part of the Newton Hessian singular on
        # faces 2 and 3; their minima are checked against a multistart
        # Nelder-Mead search over the face, at 1e-9 relative
        mats = dependent_partials()
        rng = np.random.default_rng(6)
        for p in (2, 3):
            free = [m for q, m in enumerate(mats) if q != p]

            def f(u):
                a = mats[p] + np.tensordot(np.clip(u, -1.0, 1.0), free, 1)
                return np.abs(np.linalg.eigvalsh(a)).max()

            ref = min(minimize(f, u0, method="Nelder-Mead",
                               options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 20000}).fun
                      for u0 in rng.uniform(-0.5, 0.5, (4, 3)))
            face = _face_min(mats, p)
            assert not face.cut and face.steps <= 100
            assert face.value == pytest.approx(ref, rel=1e-9), p


@pytest.fixture(scope="module")
def q0_cases(cache_1x4, ctx_2x4):
    """Per N = 1, 2, 3: a context, three seeded samples and, per sample, the
    whitened partials and every face's `_face_min` value."""
    cases = []
    for ctx in (ForwardContext(cache=cache_1x4), ctx_2x4,
                inverse.build_context(build_layered_cube(3, 3))):
        n_sub = ctx.mesh.N
        rng = np.random.default_rng(300 + n_sub)
        samples = [sample_admissible(n_sub, rng=rng) for _ in range(3)]
        mats = [_whitened(ctx, frechet_derivative(ctx, L).mats) for L in samples]
        faces = [[_face_min(m, p)[0] for p in range(2 * n_sub)] for m in mats]
        cases.append((ctx, samples, mats, faces))
    return cases


def count_face_solves(monkeypatch):
    """Record (p, best, FaceSolve) for every face the search solves."""
    calls = []
    face_min = inverse._face_min

    def counting(mats, p, best, norms, start):
        face = face_min(mats, p, best, norms, start)
        calls.append((p, best, face))
        return face

    monkeypatch.setattr(inverse, "_face_min", counting)
    return calls


class TestQ0Pruning:
    def test_bitwise_equal_to_exhaustive_search(self, q0_cases):
        for ctx, samples, _, faces in q0_cases:
            for L, values in zip(samples, faces):
                assert q0_estimate(ctx, [L]) == min(values)
            assert q0_estimate(ctx, samples) == min(map(min, faces))

    def test_bounds_below_face_minima(self, q0_cases):
        for _, _, mats, faces in q0_cases:
            for m, values in zip(mats, faces):
                bounds = _face_bounds(m)[0]
                assert (bounds <= np.array(values)).all(), (bounds, values)
                assert bounds.max() > 0.0

    def test_zero_minimum_through_search(self, monkeypatch):
        mats = dependent_partials()
        scale = sum(np.linalg.norm(m, 2) for m in mats)
        monkeypatch.setattr(inverse, "frechet_derivative",
                            lambda ctx, L: SimpleNamespace(mats=mats))
        ctx = ForwardContext(cache=SimpleNamespace(whitening=np.eye(4)))
        assert 0.0 <= q0_estimate(ctx, [None]) <= 1e-12 * scale

    def test_separated_faces_are_skipped(self, ctx_2x4, monkeypatch):
        # L2's face minima are 4.0e-3, 7.0e-2, 0.60 and 3.1
        calls = count_face_solves(monkeypatch)
        search = q0_search(ctx_2x4, [L2])
        assert len(calls) == search.faces_solved < 4
        assert search.faces_skipped == 4 - search.faces_solved
        assert search.newton_steps and len(search.newton_steps) == len(calls)
        assert 0.0 < search.gap <= 1e-8 * search.q0

    def test_best_carries_across_samples(self, q0_cases, monkeypatch):
        # sample 2 of N = 2 has a smaller q0 than any face bound of sample 0,
        # so after it no face of sample 0 is solved
        ctx, samples, mats, faces = q0_cases[1]
        assert min(faces[2]) < _face_bounds(mats[0])[0].min()
        calls = count_face_solves(monkeypatch)
        first = q0_search(ctx, samples[2:])
        both = q0_search(ctx, [samples[2], samples[0]])
        assert both.q0 == first.q0
        assert both.faces_solved == first.faces_solved
        assert both.faces_skipped == first.faces_skipped + 4
        assert len(calls) == 2 * first.faces_solved

    def test_norms_formed_once_per_sample(self, q0_cases, monkeypatch):
        # a face solve given no norms forms its own through `_norm_sums`, and
        # one given no start fits its face again through `_fit`
        sums, fits = [], []
        norm_sums, fit = inverse._norm_sums, inverse._fit
        monkeypatch.setattr(inverse, "_norm_sums", lambda mats: sums.append(1) or norm_sums(mats))
        monkeypatch.setattr(inverse, "_fit", lambda cols, p: fits.append(p) or fit(cols, p))
        ctx, samples, _, _ = q0_cases[2]
        search = q0_search(ctx, samples)
        assert search.faces_solved > 0
        assert len(sums) == len(samples)
        assert fits == list(range(2 * ctx.mesh.N)) * len(samples)


class TestQ0Certificate:
    def test_dual_bound_below_face_minimum(self, q0_cases, monkeypatch):
        # the bound is certified at every iterate, centred or not
        certs = []
        dual_bound = inverse._dual_bound

        def recording(*args):
            certs.append(dual_bound(*args))
            return certs[-1]

        monkeypatch.setattr(inverse, "_dual_bound", recording)
        for _, _, mats, faces in q0_cases:
            for m, values in zip(mats, faces):
                for p, value in enumerate(values):
                    certs.clear()
                    face = _face_min(m, p)
                    assert face.value == value and not face.cut
                    assert len(certs) > face.steps
                    assert max(certs) <= value, (p, max(certs), value)

    def test_losing_faces_cut_above_best(self, ctx_2x4):
        mats = _whitened(ctx_2x4, frechet_derivative(ctx_2x4, L2).mats)
        best = q0_estimate(ctx_2x4, [L2])
        faces = [_face_min(mats, p, best) for p in range(4)]
        winners = [f for f in faces if not f.cut]
        assert len(winners) == 1 and winners[0].value == best
        cut = [f for f in faces if f.cut]
        assert cut
        for f in cut:
            assert f.value > best
            assert f.gap > 1e-9 * f.value

    def test_search_counts_cut_faces(self, q0_cases, monkeypatch):
        # the diagonal screen drops every losing face of these samples before
        # a full step; run it to its gap, uncut, so that they are solved
        screen = inverse._diagonal_screen
        monkeypatch.setattr(inverse, "_diagonal_screen",
                            lambda mats, p, start, best, norms: screen(mats, p, start, np.inf, norms))
        ctx, samples, _, faces = q0_cases[2]
        calls = count_face_solves(monkeypatch)
        search = q0_search(ctx, samples)
        assert search.q0 == min(map(min, faces))
        assert search.faces_cut == sum(face.cut for _, _, face in calls) > 0
        assert search.newton_steps == tuple(face.steps for _, _, face in calls)
        for _, best, face in calls:
            assert not face.cut or face.value > best
        assert search.capped_centrings == sum(face.capped for _, _, face in calls)


def record_screens(monkeypatch):
    """Record (mats, p, best, FaceSolve) for every diagonal screen."""
    calls = []
    screen = inverse._diagonal_screen

    def recording(mats, p, start, best, norms):
        result = screen(mats, p, start, best, norms)
        calls.append((mats, p, best, result))
        return result

    monkeypatch.setattr(inverse, "_diagonal_screen", recording)
    return calls


class TestQ0Screen:
    def test_certified_faces_lie_above_best(self, q0_cases, monkeypatch):
        # each face the screen drops has an exhaustive minimum at or above
        # the running best it was certified against
        screens = record_screens(monkeypatch)
        certified = 0
        for ctx, samples, mats, faces in q0_cases:
            for order in (samples, samples[::-1]):
                screens.clear()
                search = q0_search(ctx, order)
                assert search.q0 == min(map(min, faces))
                assert search.faces_certified == sum(r.cut for *_, r in screens)
                assert search.lp_steps == sum(r.steps for *_, r in screens)
                for m, p, best, result in screens:
                    assert np.isfinite(best)
                    if result.cut:
                        k = next(k for k, mk in enumerate(mats)
                                 if all(np.array_equal(a, b) for a, b in zip(m, mk)))
                        assert faces[k][p] >= best, (k, p, faces[k][p], best)
                certified += search.faces_certified
        assert certified > 0

    def test_every_face_accounted_for(self, q0_cases, monkeypatch):
        screens = record_screens(monkeypatch)
        calls = count_face_solves(monkeypatch)
        ctx, samples, _, _ = q0_cases[2]
        search = q0_search(ctx, samples)
        assert search.faces_certified > 0
        assert search.faces_solved == len(calls) == len(screens) - search.faces_certified + 1
        assert (search.faces_solved + search.faces_skipped + search.faces_certified
                == 2 * ctx.mesh.N * len(samples))

    def test_screen_without_best_runs_to_its_gap(self, q0_cases):
        # uncut, the screen's value is the diagonal LP's minimum: a lower
        # bound on the face minimum, up to the gap
        for _, _, mats, faces in q0_cases:
            for m, values in zip(mats, faces):
                norms = inverse._norm_sums(m)
                fits = _face_bounds(m)[1]
                for p, value in enumerate(values):
                    start = inverse._face_start(m, p, fits[p])
                    lp = inverse._diagonal_screen(m, p, start, np.inf, norms)
                    assert not lp.cut and lp.gap <= 1e-9 * lp.value + 1e-13 * norms[0]
                    assert lp.value - lp.gap <= value * (1.0 + 1e-12)


class TestQ0Attained:
    def test_h_star_attains_q0(self, q0_cases):
        # ||H*||_inf = 1, and the eigenvalue of largest modulus of
        # sum_p H*_p M_p is +q0 to rounding
        for ctx, samples, mats, _ in q0_cases:
            search = q0_search(ctx, samples)
            h = search.h
            assert np.abs(h).max() == 1.0 and h[search.face] == search.sign
            w = np.linalg.eigvalsh(np.tensordot(h, mats[search.sample], 1))
            assert w[np.abs(w).argmax()] == pytest.approx(search.q0, rel=1e-12, abs=0.0)


class TestLipschitzProbe:
    def test_report_shape(self, ctx_2x4, rng):
        pairs = [
            (sample_admissible(2, rng=rng), sample_admissible(2, rng=rng))
            for _ in range(4)
        ]
        pairs.append((L2, L2))  # coincident: skipped, not a ratio
        rep = lipschitz_probe(ctx_2x4, pairs)
        assert set(rep) == {"max_ratio", "ratios", "skipped", "gram_hash"}
        assert rep["skipped"] == 1
        assert len(rep["ratios"]) == 4
        assert all(np.isfinite(r) and r > 0 for r in rep["ratios"])
        assert rep["max_ratio"] == max(rep["ratios"])
        assert rep["gram_hash"] == ctx_2x4.gram_hash()

    def test_all_coincident_rejected(self, ctx_2x4):
        with pytest.raises(ValueError):
            lipschitz_probe(ctx_2x4, [(L2, L2)])


class TestProjection:
    def test_box_clip(self, ctx_2x4):
        # box [0.5, 2] on mu, lambda <= 2
        arr = np.array([5.0, -9.0, 0.1, 7.0])
        out = _project_box(ctx_2x4, arr)
        assert out[0] == 2.0 and out[1] == -9.0  # lambda only clipped above
        assert out[2] == 0.5 and out[3] == 2.0

    def test_feasible_raises_lambda_floor(self, ctx_2x4):
        arr = np.array([-9.0, 0.0, 0.5, 0.5])
        out = _project_feasible(ctx_2x4, arr)
        ok, bad = check_admissible(LameVector.from_array(out), ctx_2x4.box)
        assert ok, bad
        # 2 mu + 3 lambda = beta0 exactly on the raised coordinates
        assert 2 * out[2] + 3 * out[0] == pytest.approx(ctx_2x4.box.beta0)

    def test_step_projection_stays_admissible(self, ctx_2x4):
        base = L2.as_array()
        step = np.array([-50.0, -50.0, 0.0, 0.0])  # crashes through convexity
        out = _project_feasible(ctx_2x4, base + step)
        ok, bad = check_admissible(LameVector.from_array(out), ctx_2x4.box)
        assert ok, bad

    @pytest.mark.parametrize("box", [DEFAULT_BOX, AdmissibleBox(0.3, 1.7), AdmissibleBox(0.9, 0.1)])
    def test_projection_is_nearest_admissible_point(self, ctx_2x4, box):
        """p is the projection of x onto the convex polygon of one layer iff
        (x - p) . (q - p) <= 0 at each of the polygon's vertices q; projecting
        p again returns it bit for bit."""
        ctx = ForwardContext(cache=ctx_2x4.cache, box=box)
        a0, b0 = box.alpha0, box.beta0
        corners = np.array([[1 / a0, a0], [1 / a0, 1 / a0],
                            [(b0 - 2 / a0) / 3, 1 / a0], [(b0 - 2 * a0) / 3, a0]])
        x = np.random.default_rng(5).uniform(-6.0, 6.0, (2, 500))
        out = _project_feasible(ctx, x.ravel())
        ok, bad = check_admissible(LameVector.from_array(out), box)
        assert ok, bad
        lam_mu = out.reshape(2, -1).T
        gap = np.einsum("ni,nqi->nq", x.T - lam_mu, corners[None] - lam_mu[:, None])
        assert gap.max() <= 1e-12
        assert np.array_equal(_project_feasible(ctx, out), out)


class TestReconstruct:
    def test_recovers_exact_data(self, ctx_2x4):
        truth = L2
        obs = forward(ctx_2x4, truth)
        init = LameVector([1.3, 0.6], [1.1, 0.8])
        got, trace = reconstruct(
            ctx_2x4, obs, init, {"max_iters": 20, "truth": truth}
        )
        assert np.abs(got.as_array() - truth.as_array()).max() < 1e-8
        assert trace[-1]["error_inf"] < 1e-8
        assert set(trace[0]) == {"k", "residual", "L", "error_inf"}
        res = [t["residual"] for t in trace]
        assert all(b < a for a, b in zip(res, res[1:]))  # accepted steps only

    def test_trace_without_truth(self, ctx_2x4):
        obs = forward(ctx_2x4, L2)
        _, trace = reconstruct(ctx_2x4, obs, L2B, {"max_iters": 3})
        assert set(trace[0]) == {"k", "residual", "L"}
        assert trace[0]["k"] == 0
        assert len(trace[0]["L"]) == 4

    def test_infeasible_init_is_projected(self, ctx_2x4):
        obs = forward(ctx_2x4, L2)
        wild = LameVector([50.0, -50.0], [1e-3, 1e3])
        got, trace = reconstruct(ctx_2x4, obs, wild, {"max_iters": 25})
        ok, bad = check_admissible(LameVector.from_array(np.asarray(trace[0]["L"])),
                                   ctx_2x4.box)
        assert ok, bad
        assert np.abs(got.as_array() - L2.as_array()).max() < 1e-6

    def test_factors_once_per_dn_evaluation(self, ctx_2x4, monkeypatch):
        obs = forward(ctx_2x4, L2)
        calls = count_factorisations(monkeypatch)
        dn_calls = []
        dn_matrix = inverse.dn_matrix
        monkeypatch.setattr(inverse, "dn_matrix", lambda sys: dn_calls.append(1) or dn_matrix(sys))
        _, trace = reconstruct(ctx_2x4, obs, L2B, {"max_iters": 20})
        assert len(trace) > 3
        assert len(calls) == len(dn_calls)
        assert max(calls) == 0  # no other factor alive when one is built

    def test_leaves_convexity_boundary(self):
        """The init violates 2 mu_3 + 3 lambda_3 >= beta0.  Backing off along
        a step to that line instead of projecting stalls on it: one
        iteration, sup-norm error 0.28."""
        ctx = inverse.build_context(build_layered_cube(3, 6))
        truth = LameVector.from_array([1.98174, 1.424035, -0.626273, 1.348316, 0.650241, 1.460692])
        init = LameVector.from_array([2.016035, 1.208817, -0.682492, 1.13127, 0.703754, 1.179403])
        got, trace = reconstruct(ctx, forward(ctx, truth), init, {"max_iters": 30})
        assert np.abs(got.as_array() - truth.as_array()).max() < 1e-10
        res = [t["residual"] for t in trace]
        assert all(b < a for a, b in zip(res, res[1:]))

    def test_accepts_raw_matrix_observation(self, ctx_2x4):
        obs = forward(ctx_2x4, L2).entries  # plain ndarray instead of DnMatrix
        got, _ = reconstruct(ctx_2x4, obs, L2B, {"max_iters": 15})
        assert np.abs(got.as_array() - L2.as_array()).max() < 1e-7

    def test_recovers_near_convexity_constraint(self):
        """Truth and a 20 % start both within 1e-3 of 2 mu_j + 3 lambda_j =
        beta0 in every layer."""
        ctx = build_context(build_layered_cube(3, 6))
        a0, b0 = ctx.box.alpha0, ctx.box.beta0
        rng = np.random.default_rng(43)

        def near_line(mu):
            mu = np.clip(mu, a0, 1.0 / a0)
            return LameVector((b0 + rng.uniform(0.0, 1e-3, 3) - 2.0 * mu) / 3.0, mu)

        truth = near_line(rng.uniform(a0, 1.0 / a0, 3))
        init = near_line(np.asarray(truth.mus) * (1.0 + 0.2 * rng.uniform(-1.0, 1.0, 3)))
        got, trace = reconstruct(ctx, forward(ctx, truth), init, {"max_iters": 30})
        assert np.abs(got.as_array() - truth.as_array()).max() < 1e-10
        res = [t["residual"] for t in trace]
        assert all(b < a for a, b in zip(res, res[1:]))
        assert trace.stop_reason == "step_tol"

    def test_stop_reasons(self, ctx_2x4):
        obs = forward(ctx_2x4, L2)
        _, trace = reconstruct(ctx_2x4, obs, L2B, {"max_iters": 2})
        assert (len(trace), trace.stop_reason) == (3, "max_iters")
        _, trace = reconstruct(ctx_2x4, obs, L2B, {"max_iters": 20})
        assert trace.stop_reason == "step_tol"
        # a negative tolerance never stops on the step: past convergence no
        # candidate lowers the residual, and the damping ramps to its limit
        got, trace = reconstruct(ctx_2x4, obs, L2B, {"max_iters": 20, "step_tol": -1.0})
        assert trace.stop_reason == "damping_limit" and trace.rejected > 0
        assert np.abs(got.as_array() - L2.as_array()).max() < 1e-10

    def test_start_at_truth_stops_after_one_candidate(self, ctx_2x4, monkeypatch):
        """Zero residual: the first candidate is the start itself and ends
        the iteration before it is factored, instead of ramping the damping."""
        obs = forward(ctx_2x4, L2)
        calls = count_factorisations(monkeypatch)
        got, trace = reconstruct(ctx_2x4, obs, L2, {"max_iters": 20})
        assert got == L2
        assert (len(trace), trace.rejected, trace.stop_reason) == (1, 0, "step_tol")
        assert len(calls) == 1

    def test_criterion_08_inputs_in_few_factorisations(self, ctx_2x8, monkeypatch):
        """Criterion 8's inputs (tests/test_acceptance.py).  Residual-scaled
        damping converges on the exact data in five iterations, where an
        absolute damping of 1e-6 took six; on the noisy data, stopping at
        the tolerance instead of ramping the damping halves the
        factorisations (absolute damping: 30)."""
        rng = np.random.default_rng(31)
        truth = sample_admissible(2, rng=rng)
        obs = forward(ctx_2x8, truth)
        init = LameVector.from_array(_project_feasible(
            ctx_2x8, truth.as_array() * (1.0 + 0.2 * rng.uniform(-1, 1, 4))))
        _, trace = reconstruct(ctx_2x8, obs, init, {"max_iters": 30, "truth": truth})
        res = [t["residual"] for t in trace]
        assert trace[-1]["k"] <= 5 and trace[-1]["error_inf"] <= 1e-12
        assert all(b < a for a, b in zip(res, res[1:]))

        raw = rng.standard_normal(obs.entries.shape)
        raw = 0.5 * (raw + raw.T)
        pert = ctx_2x8.cache.gram_half @ raw @ ctx_2x8.cache.gram_half
        pert *= 0.01 * star_norm(ctx_2x8, obs.entries) / star_norm(ctx_2x8, pert)
        calls = count_factorisations(monkeypatch)
        _, trace = reconstruct(ctx_2x8, obs.entries + pert, init, {"max_iters": 30})
        assert trace.stop_reason == "step_tol"
        assert len(calls) == len(trace) + trace.rejected <= 16
