"""Exact-solution ensembles, ball/cone quadratures, three-sphere fits, and
smallness propagation along the cone chain."""

import dataclasses
import math

import numpy as np
import pytest

from lamedn import ucp
from lamedn.core import poisson_ratio, sample_admissible
from lamedn.geometry import build_cone_chain, eta_r
from lamedn.kernels import kelvin_gradient, kelvin_matrix
from lamedn.ucp import (
    SolutionEnsemble,
    SolutionMember,
    ball_l2,
    caccioppoli_check,
    cone_l2,
    cone_propagation_experiment,
    kelvin_ensemble,
    linear_ensemble,
    three_sphere_fit,
)

GAMMA3 = math.atan(0.5)


def _const_field(pts):
    return np.ones((np.atleast_2d(pts).shape[0], 1))


def _random_moduli(ens, seed):
    """The ensemble with each member's (mu, nu) drawn from the admissible box."""
    rng = np.random.default_rng(seed)
    members = []
    for m in ens:
        L = sample_admissible(1, rng=rng)
        members.append(dataclasses.replace(
            m, mu=L.mus[0], nu=poisson_ratio(L.lambdas[0], L.mus[0])))
    return SolutionEnsemble(members, ens.center)


def _gauss_ball(center, radius, order, panels):
    """Nodes and weights of the spherical tensor-product rule with `panels`
    Gauss-Legendre panels of `order` points on each of the rho, theta and
    phi axes, built here apart from the rule that ucp caches."""
    x, w = np.polynomial.legendre.leggauss(order)

    def axis(length):
        edges = np.linspace(0.0, length, panels + 1)
        h = 0.5 * np.diff(edges)[:, None]
        return (edges[:-1, None] + h * (x + 1.0)).ravel(), (h * w).ravel()

    (r, rw), (t, tw), (p, pw) = axis(radius), axis(math.pi), axis(2.0 * math.pi)
    rr, tt, pp = np.meshgrid(r, t, p, indexing="ij")
    pts = np.stack([rr * np.sin(tt) * np.cos(pp), rr * np.sin(tt) * np.sin(pp),
                    rr * np.cos(tt)], axis=-1).reshape(-1, 3) + np.asarray(center)
    wts = np.einsum("i,j,k->ijk", r ** 2 * rw, np.sin(t) * tw, pw).ravel()
    return pts, wts


class TestEnsembles:
    def test_kelvin_sources_clear_validity_ball(self):
        radius = 0.5
        ens = kelvin_ensemble(12, center=(1.0, 0.0, 0.0), radius=radius, seed=3)
        assert len(ens) == 12
        for m in ens:
            assert np.linalg.norm(m.source - ens.center) >= 1.5 * radius
            m.check_ball(ens.center, radius)  # must not raise

    @staticmethod
    def _unit(rng, count):
        v = rng.normal(size=(count, 3))
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    def test_kelvin_seed_reproducible(self):
        # The seeded stream is three batched draws: source directions,
        # distances, column directions.
        rng = np.random.default_rng(11)
        dirs = self._unit(rng, 5)
        dist = rng.uniform(1.5, 4.0, 5)
        cols = self._unit(rng, 5)
        for ens in (kelvin_ensemble(5, seed=11), kelvin_ensemble(5, seed=11)):
            assert [m.index for m in ens] == list(range(5))
            assert np.array_equal([m.source for m in ens], dist[:, None] * dirs)
            assert np.array_equal([m.direction for m in ens], cols)

    def test_kelvin_source_cap(self):
        ens = kelvin_ensemble(20, seed=5, source_cap=(2, 0.9))
        for m in ens:
            d = m.source - ens.center
            assert d[2] / np.linalg.norm(d) >= 0.9

    def test_kelvin_source_cap_keeps_draw_order(self):
        # About 5 % of directions meet the cap, so the 20 kept ones come from
        # several batches of 20; they stay in draw order, and the distances
        # and column directions are drawn after the last batch.
        rng = np.random.default_rng(5)
        kept, batches = [], 0
        while len(kept) < 20:
            dirs = self._unit(rng, 20)
            kept.extend(dirs[dirs[:, 2] >= 0.9])
            batches += 1
        assert batches > 1
        center = np.array([0.0, 0.0, -1.0])
        sources = center + (rng.uniform(1.5, 4.0, 20) * 2.0)[:, None] * np.array(kept[:20])
        cols = self._unit(rng, 20)
        ens = kelvin_ensemble(20, center=center, radius=2.0, seed=5, source_cap=(2, 0.9))
        assert np.array_equal([m.source for m in ens], sources)
        assert np.array_equal([m.direction for m in ens], cols)

    def test_member_batch_matches_single(self):
        m = kelvin_ensemble(1, seed=9).members[0]
        pts = np.array([[0.1, 0.2, 0.3], [-0.2, 0.0, 0.1]])
        vals = m(pts)
        grads = m.grad(pts)
        for i, p in enumerate(pts):
            assert np.array_equal(vals[i], m(p))
            assert np.array_equal(grads[i], m.grad(p))

    def test_kelvin_column_matches_kelvin_matrix(self):
        ens = _random_moduli(kelvin_ensemble(6, seed=12), seed=13)
        pts = np.random.default_rng(3).uniform(-1.0, 1.0, (40, 3))
        for m in ens:
            want = np.array([kelvin_matrix(x, m.source, m.mu, m.nu) @ m.direction
                             for x in pts])
            assert np.abs(m(pts) - want).max() <= 1e-14 * np.abs(want).max()

    def test_kelvin_rejects_source_point(self):
        m = kelvin_ensemble(1, seed=9).members[0]
        with pytest.raises(ValueError, match="coincident"):
            m(np.vstack([np.zeros(3), m.source]))

    def test_kelvin_grad_is_exact(self):
        m = kelvin_ensemble(1, seed=4).members[0]
        x = np.array([0.3, -0.1, 0.2])
        want = np.einsum("ijk,j->ik", kelvin_gradient(x, m.source, m.mu, m.nu),
                         m.direction)
        assert np.allclose(m.grad(x), want, atol=1e-14)

    def test_check_ball_raises_inside_source(self):
        m = SolutionMember(kind="kelvin", source=np.array([0.0, 0.0, 0.5]),
                           direction=np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="source"):
            m.check_ball((0.0, 0.0, 0.0), 1.0)

    def test_is_zero(self):
        z = SolutionMember(kind="linear", matrix=np.zeros((3, 3)))
        assert z.is_zero()
        assert not linear_ensemble(1, seed=0).members[0].is_zero()


class TestQuadratures:
    def test_ball_volume_exact(self):
        got = ball_l2(_const_field, (0.3, -0.2, 0.5), 0.7)
        assert got == pytest.approx(4.0 / 3.0 * math.pi * 0.7**3, rel=1e-13)

    def test_ball_radial_moment_exact(self):
        # |x|^2 integrates to 4 pi rho^5 / 5 over B_rho(0)
        got = ball_l2(lambda p: np.atleast_2d(p), (0.0, 0.0, 0.0), 0.9)
        assert got == pytest.approx(4.0 * math.pi * 0.9**5 / 5.0, rel=1e-13)

    def test_ball_input_validation(self):
        with pytest.raises(ValueError):
            ball_l2(_const_field, (0, 0, 0), -1.0)

    def test_ball_respects_member_validity(self):
        m = SolutionMember(kind="kelvin", source=np.array([0.0, 0.0, 0.5]),
                           direction=np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            ball_l2(m, (0.0, 0.0, 0.0), 0.8)

    def test_order_refinement_converges(self):
        # the fixed rule (order 6, 4 panels) against order 7 on the same panels
        m = kelvin_ensemble(1, seed=6).members[0]
        a = ball_l2(m, (0, 0, 0), 1.0)
        pts, wts = _gauss_ball((0.0, 0.0, 0.0), 1.0, 7, 4)
        b = wts @ (m(pts) ** 2).sum(axis=1)
        assert abs(a - b) / abs(b) < 1e-6

    def test_cone_volume_exact(self):
        rho = 0.8
        got = cone_l2(_const_field, rho, GAMMA3)
        want = math.pi * rho**3 / (3.0 * math.tan(GAMMA3))
        assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("rho, gamma3", [(0.0, GAMMA3), (-0.5, GAMMA3),
                                             (0.8, 0.0), (0.8, -0.1),
                                             (0.8, 0.5 * math.pi), (0.8, 2.0)])
    def test_cone_rejects_bad_geometry(self, rho, gamma3):
        with pytest.raises(ValueError):
            cone_l2(_const_field, rho, gamma3)

    @pytest.mark.parametrize("center, radius, randomize", [
        ((0.0, 0.0, 0.0), 0.7, False),
        ((0.3, -0.2, 0.5), 0.6, True),
    ])
    def test_ball_kelvin_matches_tensor_product_reference(self, center, radius,
                                                          randomize):
        # the fixed rule's nodes, with the field taken from kelvin_matrix at each
        ens = kelvin_ensemble(2, center=center, radius=1.0, seed=21)
        if randomize:
            ens = _random_moduli(ens, seed=22)
        pts, wts = _gauss_ball(ens.center, radius, 6, 4)
        for m in ens:
            vals = np.array([kelvin_matrix(x, m.source, m.mu, m.nu) @ m.direction
                             for x in pts])
            want = wts @ (vals ** 2).sum(axis=1)
            assert ball_l2(m, ens.center, radius) == pytest.approx(want, rel=1e-13)

    def test_rule_built_once(self, monkeypatch):
        calls = []
        leggauss = np.polynomial.legendre.leggauss

        def counting_leggauss(deg):
            calls.append(deg)
            return leggauss(deg)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting_leggauss)
        ucp._panel_rule.cache_clear()
        ucp._unit_ball_rule.cache_clear()
        m = kelvin_ensemble(1, seed=6).members[0]
        for _ in range(3):
            ball_l2(m, (0.0, 0.0, 0.0), 0.5)
            ball_l2(_const_field, (0.1, 0.0, 0.0), 1.0)
            cone_l2(_const_field, 0.8, GAMMA3)
        assert calls == [6]
        for arr in ucp._panel_rule() + ucp._unit_ball_rule():
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0


def _least_spread_brute(rows, lo=1e-6, hi=1.0 - 1e-6):
    """Minimiser of the residual spread over the bounds and every pairwise
    crossing of the residual lines inside them, where the minimum of a
    convex piecewise-linear spread must lie."""
    a1, b, a3 = np.log(np.asarray([row[1:] for row in rows])).T
    c, s = b - a3, a1 - a3
    i, j = np.triu_indices(len(c), 1)
    keep = s[i] != s[j]
    theta = (c[i] - c[j])[keep] / (s[i] - s[j])[keep]
    theta = np.concatenate([[lo], np.sort(theta[(theta > lo) & (theta < hi)]), [hi]])
    spread = np.concatenate([np.ptp(c[None, :] - part[:, None] * s[None, :], axis=1)
                             for part in np.array_split(theta, 20)])
    return theta[np.argmin(spread)]


class TestThreeSphereFit:
    RADII = (0.25, 0.5, 1.0)

    def test_radii_validation(self):
        ens = linear_ensemble(3, seed=0)
        with pytest.raises(ValueError):
            three_sphere_fit(ens, 0.5, 0.25, 1.0)
        with pytest.raises(ValueError):
            three_sphere_fit(ens, 0.25, 0.5, 0.5)
        with pytest.raises(ValueError):
            three_sphere_fit(SolutionEnsemble([], np.zeros(3)), *self.RADII)

    def test_linear_ensemble_closed_form(self):
        # every linear member obeys I(r) = r^5 Q(A): residuals are member-
        # independent, the bound is tight, and logC has a closed form
        ens = linear_ensemble(10, seed=2)
        fit = three_sphere_fit(ens, *self.RADII)
        assert fit.violation_rate == 0.0
        want = (10.0 * fit.theta0 - 5.0) * math.log(2.0)
        assert fit.logC == pytest.approx(want, abs=1e-9)

    def test_scaling_invariance(self):
        members = kelvin_ensemble(12, seed=3).members + linear_ensemble(4, seed=4).members
        ens = SolutionEnsemble(members, np.zeros(3))
        scaled = SolutionEnsemble(
            [dataclasses.replace(m, matrix=10.0 * m.matrix) if m.kind == "linear"
             else dataclasses.replace(m, direction=10.0 * m.direction) for m in members],
            np.zeros(3))
        fit = three_sphere_fit(ens, *self.RADII)
        fit10 = three_sphere_fit(scaled, *self.RADII)
        assert fit10.theta0 == pytest.approx(fit.theta0, abs=1e-9)
        assert fit10.logC == pytest.approx(fit.logC, abs=1e-9)

    def test_kelvin_fit_report(self):
        ens = kelvin_ensemble(30, seed=7)
        fit = three_sphere_fit(ens, *self.RADII)
        assert 0.0 < fit.theta0 < 1.0
        assert fit.violation_rate <= 0.05
        assert fit.n_fit + fit.n_test == len(fit.rows)
        for _, i1, i2, i3 in fit.rows:
            assert 0 < i1 < i2 < i3  # nested positive masses

    def test_zero_members_are_excluded(self):
        members = [SolutionMember(kind="linear", index=0, matrix=np.eye(3)),
                   SolutionMember(kind="linear", index=1, matrix=np.zeros((3, 3)))]
        ens = SolutionEnsemble(members, np.zeros(3))
        fit = three_sphere_fit(ens, *self.RADII, fit_fraction=1.0)
        assert len(fit.rows) == 1
        all_zero = SolutionEnsemble(members[1:], np.zeros(3))
        with pytest.raises(ValueError, match="vanishes"):
            three_sphere_fit(all_zero, *self.RADII)

    def _fit(self, monkeypatch, logs, fit_fraction=1.0):
        """The fit over members whose ball integrals at RADII are exp(logs)."""
        members = [SolutionMember(kind="linear", index=i, matrix=np.eye(3))
                   for i in range(len(logs))]
        table = {(i, r): math.exp(v) for i, row in enumerate(logs)
                 for r, v in zip(self.RADII, row)}
        monkeypatch.setattr(ucp, "ball_l2", lambda m, center, r: table[m.index, r])
        return three_sphere_fit(SolutionEnsemble(members, np.zeros(3)), *self.RADII,
                                fit_fraction=fit_fraction)

    @pytest.mark.parametrize("seed", [42, 455])
    def test_matches_brute_force(self, seed):
        fit = three_sphere_fit(kelvin_ensemble(400, radius=1.0, seed=seed), *self.RADII)
        want = _least_spread_brute(fit.rows[:fit.n_fit])
        assert abs(fit.theta0 - want) <= 1e-13 * want

    @pytest.mark.parametrize("kink, theta0", [(-0.5, 1e-6), (1.5, 1.0 - 1e-6)])
    def test_kink_outside_bounds_clips(self, monkeypatch, kink, theta0):
        # residuals c_i - theta s_i with s = (0, 1) cross at theta = c_2 - c_1
        fit = self._fit(monkeypatch, [(0.0, 0.0, 0.0), (1.0, kink, 0.0)])
        assert fit.theta0 == theta0

    @pytest.mark.parametrize("logs, fit_fraction", [
        ([(-3.0, -1.0, 0.0), (-2.0, -0.5, 0.0)], 0.5),   # one member in the fit half
        ([(-3.0, -1.0, 0.0), (-3.0, -0.5, 0.0)], 1.0)])  # parallel residual lines
    def test_flat_spread_gives_lower_bound(self, monkeypatch, logs, fit_fraction):
        fit = self._fit(monkeypatch, logs, fit_fraction)
        assert fit.theta0 == 1e-6
        a1, b, a3 = np.log([row[1:] for row in fit.rows[:fit.n_fit]]).T
        want = (b - 1e-6 * a1 - (1.0 - 1e-6) * a3).max()
        assert fit.logC == pytest.approx(want, rel=1e-15, abs=0.0)


class TestCaccioppoli:
    def test_linear_oracle(self):
        # for u = A x both integrals factor through |A|/Frobenius: the ratio is
        # (rho1-rho2)^2 * 5 rho2^3 / rho1^5 independent of A
        ens = linear_ensemble(3, seed=5)
        got = caccioppoli_check(ens, 0.5, 1.0)
        assert got == pytest.approx(0.15625, rel=1e-10)

    def test_radius_order_enforced(self):
        ens = linear_ensemble(1, seed=0)
        with pytest.raises(ValueError):
            caccioppoli_check(ens, 1.0, 0.5)

    def test_kelvin_bounded(self):
        ens = kelvin_ensemble(6, seed=1)
        got = caccioppoli_check(ens, 0.5, 1.0)
        assert np.isfinite(got) and got > 0


class TestConePropagation:
    def _chain(self, r_frac=0.9):
        chain0 = build_cone_chain(1.0, GAMMA3, 1e-6)
        return build_cone_chain(1.0, GAMMA3, r_frac * chain0.chi * chain0.t0)

    def _ensemble(self, count=8):
        # sources far from the whole truncated cone (depth 2, radius 1)
        return kelvin_ensemble(count, center=(0.0, 0.0, -1.0), radius=2.5, seed=4)

    def test_report_contents(self):
        chain = self._chain()
        ens = self._ensemble()
        rep = cone_propagation_experiment(chain, ens, eps_small=1e6)
        assert set(rep) == {"theta_bar", "eta_r", "k0", "rows", "max_C_impl",
                            "skipped", "screened_out"}
        assert 0.0 < rep["theta_bar"] < 1.0
        assert rep["eta_r"] == pytest.approx(eta_r(chain, rep["theta_bar"]), rel=1e-12)
        assert rep["k0"] == chain.k0
        assert rep["screened_out"] == [] and rep["skipped"] == []
        assert len(rep["rows"]) == len(ens)
        assert rep["max_C_impl"] == max(r["C_impl"] for r in rep["rows"])
        assert np.isfinite(rep["max_C_impl"]) and rep["max_C_impl"] > 0

    def test_explicit_theta_bar_skips_fit(self):
        chain = self._chain()
        rep = cone_propagation_experiment(chain, self._ensemble(3), 1e6,
                                          theta_bar=0.4)
        assert rep["theta_bar"] == 0.4
        assert rep["eta_r"] == pytest.approx(eta_r(chain, 0.4), rel=1e-12)

    def test_zero_member_skipped(self):
        chain = self._chain()
        ens = self._ensemble(3)
        ens.members.append(SolutionMember(kind="linear", index=77,
                                          matrix=np.zeros((3, 3))))
        rep = cone_propagation_experiment(chain, ens, 1e6, theta_bar=0.5)
        assert rep["skipped"] == [77]
        assert len(rep["rows"]) == 3

    def test_over_tight_screen_raises(self):
        chain = self._chain()
        with pytest.raises(ValueError, match="eps_small"):
            cone_propagation_experiment(chain, self._ensemble(3), 1e-30,
                                        theta_bar=0.5)

