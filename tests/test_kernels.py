"""Closed-form kernels: Kelvin matrix, laminate solution, on-axis derivatives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lamedn import backend
from lamedn.kernels import (
    BiphaseParams,
    dgamma33_dt,
    elastic_residual_fd,
    f1_alpha,
    f2_gamma,
    gamma33_ondiag_difference,
    gamma_e3_upper,
    kelvin_gradient,
    kelvin_matrix,
    lame_lambda,
)

E3 = np.array([0.0, 0.0, 1.0])


class TestInterfaceCoefficients:
    def test_alpha_examples(self):
        assert f1_alpha(2.0, 1.0, 0.25) == pytest.approx(0.25)
        assert f1_alpha(1.0, 1.0, 0.3) == 0.0  # equal shear moduli

    def test_alpha_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            f1_alpha(1.0, -1.0 / 3.0, 0.0)

    def test_gamma_example(self):
        assert f2_gamma(1.0, 2.0, 0.0, 0.0) == pytest.approx(6.0)

    def test_gamma_equal_poisson_is_regular(self):
        # the (nu - nu') factor kills the ratio term even when mu = mu'
        v = f2_gamma(1.0, 1.0, 0.3, 0.3)
        assert math.isfinite(v)

    def test_gamma_singular_when_only_mu_matches(self):
        with pytest.raises(ZeroDivisionError):
            f2_gamma(1.0, 1.0, 0.3, 0.2)

    def test_gamma_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            f2_gamma(2.0, 1.0, -1.0 / 3.0, 0.0)

    def test_gamma_variants_differ(self):
        printed = f2_gamma(2.0, 1.0, 0.25, 0.35, "as-printed")
        alt = f2_gamma(2.0, 1.0, 0.25, 0.35, "mu-variant")
        assert printed != alt
        with pytest.raises(ValueError):
            f2_gamma(2.0, 1.0, 0.25, 0.35, "bogus")

    def test_params_validation(self):
        with pytest.raises(ValueError):
            BiphaseParams(mu_up=0.0, nu_up=0.2, mu_low=1.0, nu_low=0.2)
        with pytest.raises(ValueError):
            BiphaseParams(mu_up=1.0, nu_up=0.2, mu_low=1.0, nu_low=0.2, variant="x")

    def test_from_lame_roundtrip(self):
        p = BiphaseParams.from_lame(1.0, 1.0, 0.5, 2.0)
        assert p.nu_up == pytest.approx(0.25)
        assert lame_lambda(p.mu_low, p.nu_low) == pytest.approx(0.5)


class TestKelvin:
    def test_axial_value(self):
        g = kelvin_matrix((0.0, 0.0, 2.0), (0.0, 0.0, 1.0), 1.0, 0.0)
        assert g[2, 2] == pytest.approx(1.0 / (4.0 * math.pi), abs=1e-14)

    def test_symmetric_and_translation_invariant(self):
        x, y = np.array([0.3, -0.2, 0.7]), np.array([-0.1, 0.5, 0.2])
        g = kelvin_matrix(x, y, 1.5, 0.3)
        assert np.allclose(g, g.T, atol=1e-16)
        assert np.allclose(g, kelvin_matrix(y, x, 1.5, 0.3), atol=1e-16)
        shift = np.array([1.0, -2.0, 0.5])
        assert np.allclose(g, kelvin_matrix(x + shift, y + shift, 1.5, 0.3), atol=1e-15)

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError):
            kelvin_matrix((1.0, 2.0, 3.0), (1.0, 2.0, 3.0), 1.0, 0.25)
        with pytest.raises(ValueError):
            kelvin_gradient((1.0, 2.0, 3.0), (1.0, 2.0, 3.0), 1.0, 0.25)

    def test_kelvin_batch_rejects_coincident(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="coincident"):
            backend.kelvin_batch(pts, (0.0, 0.0, 0.0), 1.0, 0.25, E3)

    def test_gradient_matches_finite_differences(self):
        x, y = np.array([0.4, 0.1, 0.9]), np.array([-0.2, 0.3, 0.1])
        grad = kelvin_gradient(x, y, 2.0, 0.3)
        h = 1e-6
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            fd = (kelvin_matrix(x + e, y, 2.0, 0.3) - kelvin_matrix(x - e, y, 2.0, 0.3)) / (2 * h)
            assert np.allclose(grad[:, :, k], fd, atol=1e-8)

    def test_columns_solve_the_system(self):
        lam, mu = 1.2, 0.8
        nu = lam / (2.0 * (lam + mu))
        y = np.array([-0.3, 0.2, 0.0])
        field = lambda pt: kelvin_matrix(pt, y, mu, nu)[:, 2]
        res = elastic_residual_fd(field, np.array([0.5, 0.4, 0.8]), lam, mu, 1e-2)
        assert np.abs(res).max() < 1e-5


class TestLaminateSolution:
    def test_reduces_to_kelvin_for_equal_phases(self):
        p = BiphaseParams(mu_up=1.3, nu_up=0.28, mu_low=1.3, nu_low=0.28)
        pts = np.array([[0.4, -0.2, 0.5], [0.0, 0.0, 2.0], [1.0, 1.0, 0.0]])
        got = gamma_e3_upper(pts, 0.7, p)
        want = np.array([kelvin_matrix(x, [0.0, 0.0, 0.7], 1.3, 0.28)[:, 2] for x in pts])
        assert np.allclose(got, want, atol=1e-12)

    @given(
        mu=st.floats(0.5, 2.0),
        nu=st.floats(-0.4, 0.45),
        cx=st.floats(-1.0, 1.0),
        cz=st.floats(0.0, 2.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_equal_phase_reduction_property(self, mu, nu, cx, cz):
        p = BiphaseParams(mu_up=mu, nu_up=nu, mu_low=mu, nu_low=nu)
        x = np.array([cx, 0.3, cz])
        if np.linalg.norm(x - [0.0, 0.0, 1.0]) < 1e-3:
            return
        got = gamma_e3_upper(x, 1.0, p)
        want = kelvin_matrix(x, [0.0, 0.0, 1.0], mu, nu)[:, 2]
        assert np.allclose(got, want, atol=1e-11)

    def test_batch_matches_single(self):
        p = BiphaseParams(mu_up=1.0, nu_up=0.25, mu_low=2.0, nu_low=0.35)
        pts = np.array([[0.1, 0.2, 0.3], [-0.5, 0.4, 1.2], [0.0, 0.0, 0.0]])
        batch = gamma_e3_upper(pts, 0.8, p)
        for row, x in zip(batch, pts):
            assert np.array_equal(row, gamma_e3_upper(x, 0.8, p))

    def test_domain_restrictions(self):
        p = BiphaseParams(mu_up=1.0, nu_up=0.25, mu_low=2.0, nu_low=0.35)
        with pytest.raises(ValueError):
            gamma_e3_upper(np.array([0.0, 0.0, -0.1]), 1.0, p)
        with pytest.raises(ValueError):
            gamma_e3_upper(np.array([0.0, 0.0, 1.0]), 1.0, p)  # at the source
        with pytest.raises(ValueError):
            gamma_e3_upper(np.array([0.0, 0.0]), 1.0, p)
        for c in (0.0, -0.5):
            with pytest.raises(ValueError, match="height"):
                gamma_e3_upper(np.array([0.0, 0.0, 1.0]), c, p)

    def test_solves_upper_phase_system(self):
        p = BiphaseParams(mu_up=1.0, nu_up=0.25, mu_low=2.0, nu_low=0.35)
        lam_up = lame_lambda(p.mu_up, p.nu_up)
        field = lambda pt: gamma_e3_upper(pt, 1.0, p)
        res = elastic_residual_fd(field, np.array([0.3, 0.2, 0.5]), lam_up, p.mu_up, 1e-2)
        assert np.abs(res).max() < 1e-5


class TestOnAxisDifference:
    P = BiphaseParams(mu_up=1.0, nu_up=0.25, mu_low=2.0, nu_low=0.35)
    PBAR = BiphaseParams(mu_up=1.0, nu_up=0.25, mu_low=3.0, nu_low=0.2)

    def test_matches_direct_evaluation(self):
        for c in (0.25, 0.5, 0.75):
            direct = (
                gamma_e3_upper(E3, c, self.P)[2]
                - gamma_e3_upper(E3, c, self.PBAR)[2]
            )
            assert gamma33_ondiag_difference(self.P, self.PBAR, c) == pytest.approx(
                direct, abs=1e-13
            )

    def test_rejects_invalid_inputs(self):
        with pytest.raises(ValueError):
            gamma33_ondiag_difference(self.P, self.PBAR, 0.0)
        with pytest.raises(ValueError):
            gamma33_ondiag_difference(self.P, self.PBAR, 1.0)
        other_upper = BiphaseParams(mu_up=2.0, nu_up=0.25, mu_low=3.0, nu_low=0.2)
        with pytest.raises(ValueError):
            gamma33_ondiag_difference(self.P, other_upper, 0.5)

    def test_identical_pairs_give_zero(self):
        assert gamma33_ondiag_difference(self.P, self.P, 0.5) == 0.0


class TestParameterDerivative:
    P = BiphaseParams(mu_up=1.0, nu_up=0.25, mu_low=2.0, nu_low=0.35)

    def _fd(self, h, k, c, t=1e-3):
        lam_up = lame_lambda(self.P.mu_up, self.P.nu_up)
        lam_l = lame_lambda(self.P.mu_low, self.P.nu_low)

        def g33(tt):
            pp = BiphaseParams.from_lame(
                lam_up, self.P.mu_up, lam_l + tt * h, self.P.mu_low + tt * k
            )
            return gamma_e3_upper(E3, c, pp)[2]

        d1 = (g33(t) - g33(-t)) / (2 * t)
        d2 = (g33(t / 2) - g33(-t / 2)) / t
        return (4 * d2 - d1) / 3  # Richardson-extrapolated central difference

    @pytest.mark.parametrize("c", [0.25, 1.0 / 3.0, 0.5])
    def test_matches_richardson(self, c):
        closed = dgamma33_dt(self.P, 0.7, -0.3, c)
        assert closed == pytest.approx(self._fd(0.7, -0.3, c), abs=1e-10)

    def test_exactly_homogeneous_in_direction(self):
        d = dgamma33_dt(self.P, 0.7, -0.3, 0.25)
        assert dgamma33_dt(self.P, 1.4, -0.6, 0.25) == 2.0 * d

    def test_additive_in_direction(self):
        da = dgamma33_dt(self.P, 0.3, 0.0, 0.25)
        db = dgamma33_dt(self.P, 0.0, 0.4, 0.25)
        dab = dgamma33_dt(self.P, 0.3, 0.4, 0.25)
        assert dab == pytest.approx(da + db, rel=1e-13)

    def test_regular_at_equal_phases(self):
        p = BiphaseParams(mu_up=1.0, nu_up=0.25, mu_low=1.0, nu_low=0.25)
        v = dgamma33_dt(p, 0.5, 0.5, 0.3)
        assert math.isfinite(v)

    def test_rejects_c_outside_unit_interval(self):
        with pytest.raises(ValueError):
            dgamma33_dt(self.P, 1.0, 1.0, 1.5)
        with pytest.raises(ValueError):
            dgamma33_dt(self.P, 1.0, 1.0, 0.0)
