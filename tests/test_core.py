import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lamedn.core import (
    DEFAULT_BOX,
    AdmissibleBox,
    LameVector,
    check_admissible,
    poisson_ratio,
    propbv_constant,
    sample_admissible,
    sigma,
    sigma_compose,
    sigma_inverse,
)


class TestLameVector:
    def test_roundtrip(self):
        vec = LameVector([1.0, 2.0], [0.5, 1.5])
        arr = vec.as_array()
        assert arr.tolist() == [1.0, 2.0, 0.5, 1.5]
        back = LameVector.from_array(arr)
        assert back.lambdas == vec.lambdas and back.mus == vec.mus

    def test_n_property(self):
        assert LameVector([1.0], [1.0]).N == 1
        assert LameVector([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]).N == 3

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            LameVector([1.0, 2.0], [1.0])


class TestAdmissibility:
    def test_default_box_values(self):
        assert DEFAULT_BOX.alpha0 == 0.5 and DEFAULT_BOX.beta0 == 1.0

    def test_interior_point_passes(self):
        ok, bad = check_admissible(LameVector([1.0], [1.0]))
        assert ok and bad == []

    def test_violations_are_named(self):
        box = AdmissibleBox(alpha0=0.5, beta0=1.0)
        ok, bad = check_admissible(LameVector([3.0], [0.1]), box)
        assert not ok
        names = {name for _, name in bad}
        assert "mu lower" in names and "lambda upper" in names

    def test_convexity_violation(self):
        ok, bad = check_admissible(LameVector([-1.0], [0.6]), DEFAULT_BOX)
        assert not ok
        assert any(name == "convexity" for _, name in bad)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=100, deadline=None)
    def test_sampled_vectors_admissible(self, seed):
        rng = np.random.default_rng(seed)
        vec = sample_admissible(3, DEFAULT_BOX, rng=rng)
        ok, bad = check_admissible(vec, DEFAULT_BOX)
        assert ok, bad

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=100, deadline=None)
    def test_poisson_in_bounds_on_box(self, seed):
        rng = np.random.default_rng(seed)
        vec = sample_admissible(2, DEFAULT_BOX, rng=rng)
        # The range of nu over the box stated in the core module docstring.
        a0, b0 = DEFAULT_BOX.alpha0, DEFAULT_BOX.beta0
        lo, hi = -1.0 + b0 * a0 / 4.0, 0.5 - a0 ** 2 / 4.0
        for lam, mu in zip(vec.lambdas, vec.mus):
            nu = poisson_ratio(lam, mu)
            assert lo - 1e-12 <= nu <= hi + 1e-12
            assert -1.0 < nu < 0.5


class TestSigma:
    def test_branch_values(self):
        assert sigma(math.exp(-1), 0.7) == pytest.approx(1.0, abs=1e-15)
        assert sigma(math.exp(-1) + 1.0, 0.7) == pytest.approx(2.0, abs=1e-15)
        assert sigma(math.exp(-256), 0.5) == pytest.approx(0.25, abs=1e-12)

    def test_continuity_at_knee(self):
        t0 = math.exp(-1)
        eps = 1e-12
        left = sigma(t0 * (1 - eps), 0.5)
        right = sigma(t0 * (1 + eps), 0.5)
        assert abs(left - 1.0) < 1e-10 and abs(right - 1.0) < 1e-10

    def test_zero_and_negative(self):
        assert sigma(0.0, 0.5) == 0.0
        with pytest.raises(ValueError):
            sigma(-1e-3, 0.5)

    @given(st.floats(1e-300, 10.0), st.floats(1e-300, 10.0))
    @example(1e-300, 1.0000000000000002e-300)
    @settings(max_examples=200, deadline=None)
    def test_strictly_increasing(self, t1, t2):
        lo, hi = sorted((t1, t2))
        assert sigma(lo, 0.5) <= sigma(hi, 0.5)
        # adjacent doubles can round to one value (near 1e-300 sigma's slope
        # is below an ulp); a relative gap of 1e-9 never does
        if hi >= lo * (1 + 1e-9):
            assert sigma(lo, 0.5) < sigma(hi, 0.5)

    def test_compose_tends_to_zero(self):
        for n in range(1, 6):
            vals = [sigma_compose(10.0 ** (-k), 0.5, n) for k in range(1, 13)]
            assert all(a > b for a, b in zip(vals, vals[1:]))
            assert vals[-1] < vals[0]

    def test_inverse_roundtrip(self):
        for y in (0.2, 0.5, 0.9, 1.5):
            t = sigma_inverse(y, 0.5, 1)
            assert sigma_compose(t, 0.5, 1) == pytest.approx(y, rel=1e-8)
        # N = 2: the composed modulus cannot reach below sigma(sigma(tiny))
        for y in (0.9, 1.1, 2.0):
            t = sigma_inverse(y, 0.5, 2)
            assert sigma_compose(t, 0.5, 2) == pytest.approx(y, rel=1e-8)

    def test_inverse_underflow_returns_zero(self):
        assert sigma_inverse(1e-6, 0.5, 3) == 0.0


class TestPropbvConstant:
    def test_frozen_example(self):
        # delta0 = 1, delta1 = 1/2, sigma^{-1}(1/2) = e^{-16} -> C = 2 e^{16}
        val = propbv_constant(1.0, 1.0, 2.0, 1.0, 0.5, 1)
        assert val == pytest.approx(2.0 * math.exp(16.0), rel=1e-9)

    def test_linear_in_m1(self):
        a = propbv_constant(1.0, 1.0, 2.0, 1.0, 0.5, 1)
        b = propbv_constant(2.0, 1.0, 2.0, 1.0, 0.5, 1)
        assert b == pytest.approx(2.0 * a, rel=1e-12)

    def test_monotone_decreasing_in_q0(self):
        vals = [propbv_constant(1.0, 1.0, q0, 1.0, 0.5, 1) for q0 in (0.5, 1.0, 2.0, 4.0)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_large_q0_dominated_by_first_branch(self):
        val = propbv_constant(1.0, 1.0, 1e9, 1.0, 0.5, 1)
        assert val > 2.0 / 1e9

    def test_underflow_gives_inf(self):
        # deep composition drives sigma^{-1} below the smallest float
        assert propbv_constant(1.0, 1e-4, 1e-4, 1.0, 0.05, 5) == math.inf

    def test_nonpositive_q0_rejected(self):
        with pytest.raises(ValueError):
            propbv_constant(1.0, 1.0, 0.0, 1.0, 0.5, 1)
