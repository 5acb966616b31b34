"""The four workloads: set-up, seeded inputs, one timed operation, and the
correctness checks that run between operations and after the timed phase.

Every call into the package goes through a module attribute
(`inverse.forward`, `fem.build_cache`, ...) so that the traced run's
wrappers, installed on those attributes, see it.
"""

from __future__ import annotations

import math

import numpy as np

from lamedn import fem, geometry, inverse, kernels, ucp
from lamedn.core import LameVector, sample_admissible


def _context(N, n):
    return inverse.ForwardContext(cache=fem.build_cache(geometry.build_layered_cube(N, n)))


def _g_ihalf(gram):
    w, u = np.linalg.eigh(gram)
    return (u / np.sqrt(w)) @ u.T


class Workload:
    """Defaults: no check after the timed phase, no counts but the spans'."""

    def check_run(self, state, first, rng):
        return []

    def counts(self, result):
        return {}


class Probe(Workload):
    """Two DN maps and one whitened norm per seeded admissible pair on the
    N = 2, n = 12 cube; almost all of it is the fem Schur solve."""

    name = "probe"
    setup_repeats = 5

    def setup(self, rng):
        return _context(2, 12)

    def inputs(self, ctx, rng, k):
        return sample_admissible(2, rng=rng), sample_admissible(2, rng=rng)

    def op(self, ctx, pair):
        # keep each DN map the probe computes, for the checks after the op
        captured = []
        forward = inverse.forward

        def capturing(c, L):
            dn = forward(c, L)
            captured.append(dn.entries)
            return dn

        inverse.forward = capturing
        try:
            report = inverse.lipschitz_probe(ctx, [pair])
        finally:
            inverse.forward = forward
        return report, captured

    def check_op(self, ctx, pair, result, rng):
        report, maps = result
        errors = []
        if len(maps) != 2:
            errors.append(f"probe computed {len(maps)} DN maps, expected 2")
        for lam in maps:
            asym = np.abs(lam - lam.T).max() / np.abs(lam).max()
            if not asym <= 1e-10:
                errors.append(f"DN map asymmetry {asym:.3e} > 1e-10")
            try:
                np.linalg.cholesky(0.5 * (lam + lam.T))
            except np.linalg.LinAlgError:
                errors.append("DN map not positive definite")
        ratios = report["ratios"]
        if len(ratios) != 1 or not all(math.isfinite(r) and r > 0 for r in ratios):
            errors.append(f"probe ratios {ratios} not one finite positive value")
        return errors

    def check_run(self, ctx, first, rng):
        """Alessandrini's identity on the run's first pair: the element-wise
        energy of two single-datum solves against the DN pairing."""
        l1, l2 = first
        psi = fem.random_sigma_trace(ctx.cache, rng)
        phi = fem.random_sigma_trace(ctx.cache, rng)
        _, _, res = fem.alessandrini_residual(ctx.mesh, l1, l2, psi, phi, ctx.cache)
        return [] if res <= 1e-8 else [f"Alessandrini residual {res:.3e} > 1e-8"]


class Reconstruct(Workload):
    """Projected Gauss-Newton from exact synthetic data on N = 3, n = 6,
    started within 5 % of the truth: forward and frechet_derivative run at
    the same parameter vector in every iteration."""

    name = "reconstruct"
    setup_repeats = 35
    N = 3
    max_iters = 30
    start_offset = 0.05
    margin = 0.2

    def setup(self, rng):
        return _context(self.N, 6)

    def inputs(self, ctx, rng, k):
        # Truth and start keep 2 mu_j + 3 lambda_j >= beta0 + margin: an
        # iterate that meets that constraint stalls there (see README.md).
        while True:
            truth = sample_admissible(self.N, rng=rng)
            init = truth.as_array() * (1.0 + self.start_offset * rng.uniform(-1.0, 1.0, 2 * self.N))
            if min(self._slack(ctx, truth.as_array()), self._slack(ctx, init)) >= self.margin:
                return truth, inverse.forward(ctx, truth), LameVector.from_array(init)

    def _slack(self, ctx, arr):
        return float((2.0 * arr[self.N:] + 3.0 * arr[:self.N] - ctx.box.beta0).min())

    def op(self, ctx, inp):
        truth, obs, init = inp
        return inverse.reconstruct(ctx, obs, init, {"max_iters": self.max_iters})

    def check_op(self, ctx, inp, result, rng):
        l_hat, trace = result
        errors = []
        err = float(np.abs(l_hat.as_array() - inp[0].as_array()).max())
        if not err <= 1e-4:
            errors.append(f"sup-norm error {err:.3e} > 1e-4 after {trace[-1]['k']} iterations")
        res = [t["residual"] for t in trace]
        if not all(b < a for a, b in zip(res, res[1:])):
            errors.append("Gauss-Newton residuals do not strictly decrease")
        return errors

    def counts(self, result):
        return {"inverse.gn_iterations": len(result[1]) - 1}


class Q0(Workload):
    """Derivative gap of one admissible sample on the N = 3, n = 6 mesh: the
    2N log-barrier face solves in inverse dominate; fem is about 2 %."""

    name = "q0"
    setup_repeats = 35
    N = 3
    face_points = 64

    def setup(self, rng):
        return _context(self.N, 6)

    def inputs(self, ctx, rng, k):
        return sample_admissible(self.N, rng=rng)

    def op(self, ctx, L):
        return inverse.q0_estimate(ctx, [L])

    def check_op(self, ctx, L, q0, rng):
        """sigma_min([vec M_p]) / sqrt(n) <= q0 <= ||sum_p H_p M_p||_2 at every
        cube vertex and at seeded points on the faces of ||H||_inf = 1."""
        g_ih = _g_ihalf(ctx.cache.gram_half)
        mats = np.array([g_ih @ jp @ g_ih for jp in inverse.frechet_derivative(ctx, L).mats])
        d, n = mats.shape[0], mats.shape[1]
        lower = np.linalg.svd(mats.reshape(d, -1).T, compute_uv=False)[-1] / math.sqrt(n)
        errors = []
        if not lower <= q0:
            errors.append(f"q0 {q0:.6e} below the lower bound {lower:.6e}")
        vertices = np.array(np.meshgrid(*[[-1.0, 1.0]] * d)).reshape(d, -1).T
        faces = rng.uniform(-1.0, 1.0, (self.face_points, d))
        faces[np.arange(self.face_points), rng.integers(0, d, self.face_points)] = \
            rng.choice([-1.0, 1.0], self.face_points)
        upper = min(np.linalg.norm(np.tensordot(h, mats, 1), 2)
                    for h in np.concatenate([vertices, faces]))
        if not q0 <= upper * (1.0 + 1e-12):
            errors.append(f"q0 {q0:.6e} above the attained value {upper:.6e}")
        return errors


class ThreeSphere(Workload):
    """Three-sphere fit over a freshly seeded 400-member Kelvin ensemble with
    radii 0.25 / 0.5 / 1: no FEM; ball_l2 quadrature and kelvin_batch."""

    name = "three-sphere"
    setup_repeats = 120
    members = 400
    radii = (0.25, 0.5, 1.0)

    def setup(self, rng):
        """The ensemble of the first operation."""
        return ucp.kelvin_ensemble(self.members, radius=1.0, seed=int(rng.integers(2**31)))

    def inputs(self, first, rng, k):
        if k == 0:
            return first
        return ucp.kelvin_ensemble(self.members, radius=1.0, seed=int(rng.integers(2**31)))

    def op(self, state, ens):
        return ucp.three_sphere_fit(ens, *self.radii, fit_fraction=0.5)

    def check_op(self, state, ens, fit, rng):
        errors = []
        if not 0.0 < fit.theta0 < 1.0:
            errors.append(f"theta0 {fit.theta0} outside (0, 1)")
        if not fit.violation_rate <= 0.05:
            errors.append(f"held-out violation rate {fit.violation_rate:.3f} > 5 %")
        return errors

    def check_run(self, ens, first, rng):
        errors = []
        worst = 0.0
        for m in ens.members[:20]:
            pts = rng.uniform(-1.0, 1.0, (25, 3))
            got = m(pts)
            want = np.array([kernels.kelvin_matrix(x, m.source, m.mu, m.nu) @ m.direction
                             for x in pts])
            worst = max(worst, float(np.abs(got - want).max() / np.abs(want).max()))
        if not worst <= 1e-12:
            errors.append(f"Kelvin member vs kelvin_matrix mismatch {worst:.3e} > 1e-12")
        worst = 0.0
        for r in self.radii:
            a = rng.normal(size=(3, 3))
            exact = 4.0 * math.pi * r ** 5 * float((a * a).sum()) / 15.0
            got = ucp.ball_l2(lambda x: x @ a.T, ens.center, r)
            worst = max(worst, abs(got - exact) / exact)
        if not worst <= 1e-10:
            errors.append(f"ball_l2 of linear fields off the closed form by {worst:.3e}")
        return errors


WORKLOADS = {w.name: w for w in (Probe(), Reconstruct(), Q0(), ThreeSphere())}
