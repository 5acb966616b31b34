"""Exact-solution ensembles, ball/cone quadratures, three-sphere fits, and
smallness propagation along the cone chain."""

import dataclasses
import math

import numpy as np
import pytest

from lamedn import ucp
from lamedn.core import DEFAULT_BOX
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
    write_cone_csv,
    write_three_sphere_csv,
)

GAMMA3 = math.atan(0.5)


def _const_field(pts):
    return np.ones((np.atleast_2d(pts).shape[0], 1))


class TestEnsembles:
    def test_kelvin_sources_clear_validity_ball(self):
        ens = kelvin_ensemble(12, center=(1.0, 0.0, 0.0), radius=0.5, seed=3)
        assert len(ens) == 12
        for m in ens:
            assert np.linalg.norm(m.source - ens.center) >= 1.5 * ens.radius
            m.check_ball(ens.center, ens.radius)  # must not raise

    def test_kelvin_seed_reproducible(self):
        a = kelvin_ensemble(5, seed=11)
        b = kelvin_ensemble(5, seed=11)
        for ma, mb in zip(a, b):
            assert np.array_equal(ma.source, mb.source)
            assert np.array_equal(ma.direction, mb.direction)

    def test_kelvin_source_cap(self):
        ens = kelvin_ensemble(20, seed=5, source_cap=(2, 0.9))
        for m in ens:
            d = m.source - ens.center
            assert d[2] / np.linalg.norm(d) >= 0.9

    def test_kelvin_randomized_moduli_stay_admissible(self):
        # The range of nu over the box stated in the core module docstring.
        a0, b0 = DEFAULT_BOX.alpha0, DEFAULT_BOX.beta0
        lo, hi = -1.0 + b0 * a0 / 4.0, 0.5 - a0 ** 2 / 4.0
        ens = kelvin_ensemble(15, seed=2, randomize_moduli=True)
        for m in ens:
            assert 0.5 <= m.mu <= 2.0
            assert lo <= m.nu <= hi

    def test_member_batch_matches_single(self):
        m = kelvin_ensemble(1, seed=9).members[0]
        pts = np.array([[0.1, 0.2, 0.3], [-0.2, 0.0, 0.1]])
        vals = m(pts)
        grads = m.grad(pts)
        for i, p in enumerate(pts):
            assert np.array_equal(vals[i], m(p))
            assert np.array_equal(grads[i], m.grad(p))

    def test_kelvin_column_matches_kelvin_matrix(self):
        ens = kelvin_ensemble(6, seed=12, randomize_moduli=True)
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
        with pytest.raises(ValueError):
            ball_l2(_const_field, (0, 0, 0), 1.0, order=1)
        with pytest.raises(ValueError):
            ball_l2(_const_field, (0, 0, 0), 1.0, panels=0)

    def test_ball_respects_member_validity(self):
        m = SolutionMember(kind="kelvin", source=np.array([0.0, 0.0, 0.5]),
                           direction=np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            ball_l2(m, (0.0, 0.0, 0.0), 0.8)

    def test_order_refinement_converges(self):
        m = kelvin_ensemble(1, seed=6).members[0]
        a = ball_l2(m, (0, 0, 0), 1.0, order=6)
        b = ball_l2(m, (0, 0, 0), 1.0, order=7)
        assert abs(a - b) / abs(b) < 1e-6

    def test_cone_volume_exact(self):
        rho = 0.8
        got = cone_l2(_const_field, rho, GAMMA3)
        want = math.pi * rho**3 / (3.0 * math.tan(GAMMA3))
        assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("kwargs", [{"order": 1}, {"order": 0}, {"panels": 0}])
    def test_cone_rejects_bad_rule(self, kwargs):
        with pytest.raises(ValueError, match="order >= 2"):
            cone_l2(_const_field, 0.8, GAMMA3, **kwargs)

    @pytest.mark.parametrize("rho, gamma3", [(0.0, GAMMA3), (-0.5, GAMMA3),
                                             (0.8, 0.0), (0.8, -0.1),
                                             (0.8, 0.5 * math.pi), (0.8, 2.0)])
    def test_cone_rejects_bad_geometry(self, rho, gamma3):
        with pytest.raises(ValueError):
            cone_l2(_const_field, rho, gamma3)

    @staticmethod
    def _tensor_product_reference(m, center, radius, order, panels):
        """The spherical tensor-product Gauss rule built per call, with the
        field taken from kelvin_matrix at each node."""
        def panel(a, b):
            x, w = np.polynomial.legendre.leggauss(order)
            edges = np.linspace(a, b, panels + 1)
            h = 0.5 * np.diff(edges)
            return (np.concatenate([lo + hh * (x + 1.0) for lo, hh in zip(edges[:-1], h)]),
                    np.concatenate([hh * w for hh in h]))
        total = 0.0
        for rr, rw in zip(*panel(0.0, radius)):
            for t, tw in zip(*panel(0.0, math.pi)):
                for p, pw in zip(*panel(0.0, 2.0 * math.pi)):
                    x = center + rr * np.array([math.sin(t) * math.cos(p),
                                                math.sin(t) * math.sin(p), math.cos(t)])
                    v = kelvin_matrix(x, m.source, m.mu, m.nu) @ m.direction
                    total += (v @ v) * rr**2 * rw * math.sin(t) * tw * pw
        return total

    @pytest.mark.parametrize("center, radius, randomize", [
        ((0.0, 0.0, 0.0), 0.7, False),
        ((0.3, -0.2, 0.5), 0.6, True),
    ])
    def test_ball_kelvin_matches_tensor_product_reference(self, center, radius,
                                                          randomize):
        ens = kelvin_ensemble(3, center=center, radius=1.0, seed=21,
                              randomize_moduli=randomize)
        for m in ens:
            got = ball_l2(m, ens.center, radius, order=3, panels=2)
            want = self._tensor_product_reference(m, ens.center, radius, 3, 2)
            assert got == pytest.approx(want, rel=1e-13)

    def test_rule_built_once_per_order_and_panels(self, monkeypatch):
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
            for order, panels in ((6, 4), (3, 2)):
                ball_l2(m, (0.0, 0.0, 0.0), 0.5, order, panels)
                ball_l2(_const_field, (0.1, 0.0, 0.0), 1.0, order, panels)
                cone_l2(_const_field, 0.8, GAMMA3, order, panels)
        assert sorted(calls) == [3, 6]
        for order, panels in ((6, 4), (3, 2)):
            for arr in ucp._panel_rule(order, panels) + ucp._unit_ball_rule(order, panels):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 0.0


class TestThreeSphereFit:
    RADII = (0.25, 0.5, 1.0)

    def test_radii_validation(self):
        ens = linear_ensemble(3, seed=0)
        with pytest.raises(ValueError):
            three_sphere_fit(ens, 0.5, 0.25, 1.0)
        with pytest.raises(ValueError):
            three_sphere_fit(ens, 0.25, 0.5, 0.5)
        with pytest.raises(ValueError):
            three_sphere_fit(SolutionEnsemble([], np.zeros(3), 1.0), *self.RADII)

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
        ens = SolutionEnsemble(members, np.zeros(3), 1.0)
        scaled = SolutionEnsemble(
            [dataclasses.replace(m, matrix=10.0 * m.matrix) if m.kind == "linear"
             else dataclasses.replace(m, direction=10.0 * m.direction) for m in members],
            np.zeros(3), 1.0)
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
        ens = SolutionEnsemble(members, np.zeros(3), 1.0)
        fit = three_sphere_fit(ens, *self.RADII, fit_fraction=1.0)
        assert len(fit.rows) == 1
        all_zero = SolutionEnsemble(members[1:], np.zeros(3), 1.0)
        with pytest.raises(ValueError, match="vanishes"):
            three_sphere_fit(all_zero, *self.RADII)


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
        assert set(rep) == {"theta_bar", "eta_r", "chi", "k0", "r", "rows",
                            "max_C_impl", "skipped", "screened_out"}
        assert 0.0 < rep["theta_bar"] < 1.0
        assert rep["eta_r"] == pytest.approx(eta_r(chain, rep["theta_bar"]), rel=1e-12)
        assert rep["chi"] == chain.chi
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


class TestCsvReports:
    def test_three_sphere_csv(self, tmp_path):
        fit = three_sphere_fit(linear_ensemble(4, seed=0), 0.25, 0.5, 1.0)
        path = tmp_path / "three_sphere.csv"
        write_three_sphere_csv(path, fit)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "member_id,r1_int,r2_int,r3_int"
        assert len(lines) == 1 + len(fit.rows)
        first = lines[1].split(",")
        assert float(first[1]) == fit.rows[0][1]

    def test_cone_csv(self, tmp_path):
        chain = build_cone_chain(1.0, GAMMA3, 0.2)
        ens = kelvin_ensemble(3, center=(0.0, 0.0, -1.0), radius=2.5, seed=4)
        rep = cone_propagation_experiment(chain, ens, 1e6, theta_bar=0.5)
        path = tmp_path / "cone.csv"
        write_cone_csv(path, rep)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "member_id,eps,E,value,C_impl"
        assert len(lines) == 1 + len(rep["rows"])
        row = lines[1].split(",")
        assert float(row[4]) == rep["rows"][0]["C_impl"]
