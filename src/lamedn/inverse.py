"""Forward map, Fréchet derivative, stability probes, and reconstruction.

The forward map F sends a piecewise-constant Lamé vector to the discrete
local DN matrix on Sigma.  Everything here works in the Gram-whitened
geometry of the DN operator norm: matrices X are whitened once, to C^T X C
with the cache's factor C (C C^T = G^{-1}, applied per displacement
component: `_whitened`), and compared in spectral or Frobenius norm
afterwards.  Those norms, eigenvalues and inner products depend on C only
through C C^T, so any such factor gives them.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import DEFAULT_BOX, AdmissibleBox, LameVector
from .fem import DnMatrix, MeshCache, assemble, build_cache, dn_matrix, dn_partials
from .geometry import PartitionedMesh

__all__ = [
    "ForwardContext",
    "Jacobian",
    "build_context",
    "forward",
    "frechet_derivative",
    "star_norm",
    "Q0Search",
    "q0_search",
    "q0_estimate",
    "lipschitz_probe",
    "ReconstructTrace",
    "reconstruct",
]


@dataclass
class ForwardContext:
    """Shared immutable state for repeated forward/derivative evaluations."""

    cache: MeshCache
    box: AdmissibleBox = DEFAULT_BOX
    _gram_hash: str = field(default=None, init=False, repr=False, compare=False)

    @property
    def mesh(self) -> PartitionedMesh:
        return self.cache.mesh

    def gram_hash(self) -> str:
        """16 hex digits of the vector Gram's sha256, hashed on first use."""
        if self._gram_hash is None:
            self._gram_hash = hashlib.sha256(
                np.ascontiguousarray(self.cache.gram_half).tobytes()).hexdigest()[:16]
        return self._gram_hash


def build_context(mesh: PartitionedMesh, box: AdmissibleBox = DEFAULT_BOX) -> ForwardContext:
    return ForwardContext(cache=build_cache(mesh), box=box)


def forward(ctx: ForwardContext, L: LameVector) -> DnMatrix:
    """F(L): the DN matrix of the assembled system on the shared cache."""
    return dn_matrix(assemble(ctx.mesh, L, ctx.cache))


def _whitened(ctx: ForwardContext, x) -> np.ndarray:
    """(C (x) I3)^T x (C (x) I3), with C the cache's node-level whitening
    factor (C C^T = G^{-1}), for a matrix x on the Sigma trace dofs or for
    each matrix of a sequence x, stacked.

    The three dofs of a node are consecutive, so a matrix reshaped to
    (s, 9 s) has one row per node of its rows, and C^T times it applies
    (C (x) I3)^T from the left.  The same product on the transpose of that
    result applies C (x) I3 from the right, and a last transpose restores
    the orientation: two products with the s x s factor, no kron."""
    c = ctx.cache.whitening
    x = np.asarray(x)
    lead, n = x.shape[:-2], x.shape[-1]
    for _ in range(2):
        x = (c.T @ x.reshape(*lead, c.shape[0], -1)).reshape(*lead, n, n).swapaxes(-1, -2)
    return x


def star_norm(ctx: ForwardContext, delta: np.ndarray) -> float:
    """Operator norm ||delta||_star = ||C^T delta C||_2 of the whitened matrix.

    delta is taken as symmetric (a difference of DN matrices, or symmetrised
    noise): the norm is the largest |eigenvalue| of the symmetric part of
    the whitened matrix, which costs an eigvalsh instead of an SVD."""
    w = _whitened(ctx, delta)
    return float(np.abs(np.linalg.eigvalsh(0.5 * (w + w.T))).max())


@dataclass
class Jacobian:
    """The 2N partial DN matrices J_p = dLambda/dL_p at the base point, in the
    flat ordering (lambda_1..lambda_N, mu_1..mu_N)."""

    mats: list

    def directional(self, H) -> np.ndarray:
        H = np.asarray(H, dtype=float)
        out = np.zeros_like(self.mats[0])
        for hp, jp in zip(H, self.mats):
            out += hp * jp
        return out


def frechet_derivative(ctx: ForwardContext, L: LameVector) -> Jacobian:
    """Exact parameter Jacobian of the DN matrix at L: the 2N partials
    J_p = P^T (dK/dL_p) P of `fem.dn_partials`, with P the discrete harmonic
    prolongation from Sigma traces, taken from the same multifrontal Cholesky
    factor that `forward` reads the DN matrix off (one factorisation per
    call)."""
    sys = assemble(ctx.mesh, L, ctx.cache)
    return Jacobian(mats=dn_partials(sys))


# ---------------------------------------------------------------------------
# q0: smallest whitened derivative norm over unit sup-norm directions
# ---------------------------------------------------------------------------

def _fit(cols, p):
    """Coefficients c minimising ||vec M_p + sum_{q != p} c_q vec M_q||_2, with
    vec M_q the columns of cols, and that residual vec A(c)."""
    others = np.delete(cols, p, axis=1)
    c = -np.linalg.lstsq(others, cols[:, p], rcond=None)[0]
    return c, cols[:, p] + others @ c


def _dual_bound(w, y, dq, v):
    """The lower bound w.y - v.c - ||c||_1, c = dq @ y, that `_barrier`
    certifies for its face at one iterate, after scaling y to ||y||_1 = 1."""
    y = y / (np.abs(y).sum() or 1.0)
    c = dq @ y
    return w @ y - v @ c - np.abs(c).sum()


class FaceSolve(NamedTuple):
    """What one `_barrier` run returned and why it stopped."""

    value: float   # max |w| at the last iterate: ||A(v)||_2 for a face solve
    steps: int     # Newton steps taken, predictor steps included
    gap: float     # duality gap nu/s of the last centring
    cut: bool      # stopped by the certificate, not by the gap
    capped: int    # centrings stopped at the 50-step cap
    v: np.ndarray  # the last iterate's free coordinates
    sign: float    # sign of the w of largest modulus at the last iterate


def _norm_sums(stack):
    """(sum_q ||M_q||_2, sum_q ||M_q||_F): the scales of `_barrier`'s
    rounding floor and guard, one SVD per partial."""
    return (sum(np.linalg.norm(mq, 2) for mq in stack),
            sum(np.linalg.norm(mq) for mq in stack))


def _barrier(spectrum, project, v, w, x, best, norms):
    """Log-barrier path following for  min t  s.t.  -t <= w_i(v) <= t,
    |v_q| <= 1, where w(v) and x(v) = `spectrum(v)` are the eigenvalues and
    eigenvectors of A(v) (the face SDP of `_face_min`) or a linear w with no
    x (the diagonal LP of `_diagonal_screen`), and `project(x, a, b)` gives
    the diagonal projections dq (m x n) and the data block of the Newton
    Hessian for the weights a, b.

    For s = 10 s0, 100 s0, ... damped Newton steps centre
    s t - sum_i log(t - w_i) - sum_i log(t + w_i) - sum_q log(1 - v_q^2),
    whose barrier parameter is nu = 2n + 2m; the Newton system is solved in
    the least-squares sense, so dependent partials (a singular Hessian) still
    give the minimum-norm step.  The path starts at (v, w, x) with
    t0 = 1.1 max|w| + floor and s0 = nu / t0, and stops once the duality gap
    nu/s is at most 1e-9 t + floor, floor = 1e-13 sum_q ||M_q||_2; the floor
    lets a zero minimum terminate and keeps the slacks above the rounding
    error of forming A.  A centring that has not met its Newton-decrement
    tolerance of 1e-2 after 50 steps ends there and is counted as capped.

    Between centrings a predictor follows the central path's tangent,
    extrapolated in 1/s from s to 10 s: with H the barrier Hessian at the
    centred point, dz/d(1/s) = s^2 H^-1 e_t gives the step -0.9 s H^-1 e_t
    in z = (t, v).  Like every step it is halved until the point is strictly
    feasible, and its spectrum is the next centring's first.  When the
    centring after a predictor step caps, the predicted point lay too far
    off the central path to return to it, and nu/s there bounds nothing: the
    run goes back to the centred point the predictor started from and
    follows the path from there with no more predictor steps.

    Every iterate, predicted or not, also certifies a lower bound on the
    whole face (Vandenberghe & Boyd 1996: the dual of the spectral norm is
    the nuclear norm).  With a = 1/(t - w), b = 1/(t + w) and
    y = (a - b) / ||a - b||_1, the matrix Y = X diag(y) X^T has ||Y||_* = 1
    for any orthonormal X, so every u on the face gives
        ||A(u)||_2 >= <Y, A(u)> >= <Y, M_p> - sum_q |<Y, M_q>| = w.y - v.c - ||c||_1
    with c = dq @ y (`_dual_bound`).  Once that bound, less a rounding guard
    of 1e-12 sum_q ||M_q||_F, reaches `best`, the face cannot attain a value
    below best and the run returns, cut.  The bound needs no centring, so
    the cut is rigorous at any iterate.  It only ends the path, never changes
    it: with best = inf the run goes to the gap.

    `norms` is `_norm_sums` of the face's partials.  Returns a `FaceSolve`.
    """
    m = v.size
    nu = 2.0 * (w.size + m)
    floor = 1e-13 * norms[0]
    guard = 1e-12 * norms[1]

    def move(t, v, step, alpha):
        # a damped Newton step stays inside the Dikin ellipsoid, so for it
        # halving only guards against rounding at the boundary
        while True:
            t_new = t + alpha * step[0]
            v_new = v + alpha * step[1:]
            w_new, x_new = spectrum(v_new)
            if (np.abs(v_new).max() < 1.0
                    and t_new - w_new.max() > 0.0 and t_new + w_new.min() > 0.0):
                return t_new, v_new, w_new, x_new
            alpha *= 0.5

    def solved(cut):
        sign = 1.0 if w.max() >= -w.min() else -1.0
        return FaceSolve(float(np.abs(w).max()), steps, nu / s, cut, capped, v, sign)

    t = 1.1 * np.abs(w).max() + floor
    s = nu / t
    steps = capped = 0
    hess = None
    predict = True
    e_t = np.eye(m + 1)[0]
    while nu / s > 1e-9 * t + floor:
        centred = None
        if hess is not None and predict:
            centred = t, v, s
            t, v, w, x = move(t, v, -0.9 * s * np.linalg.lstsq(hess, e_t, rcond=None)[0], 1.0)
            steps += 1
        s *= 10.0
        for _ in range(50):
            a = 1.0 / (t - w)
            b = 1.0 / (t + w)
            dq, data = project(x, a, b)
            if _dual_bound(w, a - b, dq, v) - guard >= best:
                return solved(True)
            grad = np.concatenate(([s - a.sum() - b.sum()],
                                   dq @ (a - b) + 2.0 * v / (1.0 - v * v)))
            hess = np.empty((m + 1, m + 1))
            hess[0, 0] = a @ a + b @ b
            hess[0, 1:] = hess[1:, 0] = dq @ (b * b - a * a)
            hess[1:, 1:] = data + np.diag(2.0 * (1.0 + v * v) / (1.0 - v * v) ** 2)
            step = -np.linalg.lstsq(hess, grad, rcond=None)[0]
            decrement = np.sqrt(max(-grad @ step, 0.0))
            if decrement <= 1e-2:
                break
            t, v, w, x = move(t, v, step, 1.0 if decrement < 0.25 else 1.0 / (1.0 + decrement))
            steps += 1
        else:
            capped += 1
            hess = None
            if centred is not None:
                t, v, s = centred
                w, x = spectrum(v)
                predict = False
    return solved(False)


def _face_start(stack, p, c):
    """The start of face p's solves: v0 = clip(c, -0.9, 0.9), with c the
    coefficients of the Frobenius fit of -M_p by the other partials of the
    stack (`_fit`), and the eigenvalues and eigenvectors of A(v0)."""
    v = np.clip(c, -0.9, 0.9)
    return (v, *np.linalg.eigh(stack[p] + np.tensordot(v, np.delete(stack, p, axis=0), 1)))


def _face_min(stack, p, best=np.inf, norms=None, start=None):
    """min of ||A(v)||_2, A(v) = M_p + sum_{q != p} v_q M_q, over the face
    |v_q| <= 1 of the (2N, n, n) stack of partials, solved as the SDP
    min t  s.t.  -tI <= A(v) <= tI  by `_barrier` from the Frobenius-fit
    start (`_face_start`; given by a search, which fits each face once in
    `_face_bounds`, and fitted here otherwise).

    Each Newton step costs one eigh of A; in its eigenbasis X the partials
    enter only through X^T M_q X, whose diagonals are the projections dq and
    which form the Hessian's data block
    sum_ij (X^T M_q X)_ij (a_i a_j + b_i b_j) (X^T M_r X)_ij.  The face is cut
    once an iterate certifies that its minimum lies above `best`.  `norms` is
    `_norm_sums(stack)`, formed here when not given; a search over the faces
    of one stack passes it in so that it is formed once.

    Returns a `FaceSolve`: the attained value ||A(v)||_2 at the last iterate,
    the Newton steps, the last duality gap nu/s, whether the certificate cut
    the solve, the number of capped centrings, the last v and the sign of the
    eigenvalue of A(v) of largest modulus.
    """
    free = np.delete(stack, p, axis=0)

    def project(x, a, b):
        bq = x.T @ free @ x
        return (np.diagonal(bq, axis1=1, axis2=2),
                np.einsum("qij,rij->qr", bq * (np.outer(a, a) + np.outer(b, b)), bq))

    if start is None:
        start = _face_start(stack, p, _fit(stack.reshape(len(stack), -1).T, p)[0])
    return _barrier(lambda v: np.linalg.eigh(stack[p] + np.tensordot(v, free, 1)), project,
                    *start, best, _norm_sums(stack) if norms is None else norms)


def _diagonal_screen(stack, p, start, best, norms):
    """Try to certify, without an eigh, that face p cannot go below `best`.

    With X the eigenvectors of the start A(v0) (`_face_start`), restrict the
    face to the diagonal of X: min over |v_q| <= 1 of max_i |w_i(v)|,
    w(v) = m + D^T v, m = diag(X^T M_p X), D_q = diag(X^T M_q X), a linear
    program that `_barrier` solves with the same iteration as the face.  Its
    dual points y give Y = X diag(y) X^T with ||Y||_* = ||y||_1, so
    `_dual_bound` certifies the whole face, not only its diagonal, and the
    run is cut as soon as that bound, less the face's guard, reaches best.
    A run that is not cut certifies nothing; its value is the LP's, a lower
    bound on the face up to the gap, not an attained ||A(v)||_2.
    """
    v, _, x = start
    diag = np.einsum("qij,ij->qj", stack @ x, x)
    m_p, dq = diag[p], np.delete(diag, p, axis=0)
    return _barrier(lambda u: (m_p + u @ dq, None),
                    lambda _, a, b: (dq, (dq * (a * a + b * b)) @ dq.T),
                    v, m_p + v @ dq, None, best, norms)


def _face_bounds(stack):
    """Lower bounds b_p on the minimum of ||A(v)||_2 over face p of the
    (2N, n, n) stack (see `_face_min`), and the coefficients c_p of the
    least-squares fit (`_fit`) behind each, which `_face_start` starts face p
    from: one fit per face.

    With y the unit residual of the fit of vec M_p by the other vec M_q, every
    v with |v_q| <= 1 gives
        ||A(v)||_2 >= ||A(v)||_F / sqrt(n) >= y . vec A(v) / sqrt(n)
                   >= (y . vec M_p - sum_{q != p} |y . vec M_q|) / sqrt(n) = b_p.
    For the exact fit y is orthogonal to every vec M_q, q != p, and b_p is the
    fit's residual over sqrt(n): the Frobenius bound over unconstrained v.  A
    fit that rounding leaves off only lowers b_p, however ill-conditioned the
    stack, so b_p is a bound up to the rounding of its dot products.
    Returns (b, c), c[p] the fit coefficients of face p.
    """
    d, n = stack.shape[:2]
    cols = stack.reshape(d, -1).T
    bounds, coefs = np.zeros(d), []
    for p in range(d):
        c, r = _fit(cols, p)
        coefs.append(c)
        norm = np.linalg.norm(r)
        if norm > 0.0:
            dots = (r / norm) @ cols
            bounds[p] = (dots[p] - np.abs(np.delete(dots, p)).sum()) / np.sqrt(n)
    return bounds, coefs


@dataclass(frozen=True)
class Q0Search:
    """What one q0 search found and did: deterministic counts, no timings,
    and where q0 is attained, H* = sign (e_face + sum_{q != face} v_q e_q) at
    samples[sample]."""

    q0: float
    faces_solved: int
    faces_skipped: int
    newton_steps: tuple    # per solved face, in the order solved
    gap: float             # final duality gap nu/s of the face that gave q0
    faces_cut: int         # solved faces stopped by the certificate
    capped_centrings: int  # centrings stopped at the step cap, screens included
    faces_certified: int   # faces dropped by the diagonal-LP pre-screen
    lp_steps: int          # Newton steps of the pre-screens, over all faces
    sample: int            # index of the sample that gave q0
    face: int              # the face H*_face = sign of that sample
    sign: float            # +1 or -1: the eigenvalue of F'(L)[H*] of largest modulus is sign q0
    v: tuple               # the other coordinates of sign H*, in the order of the partials

    @property
    def h(self) -> np.ndarray:
        """H*, with ||H*||_inf = 1 and ||F'(L)[H*]||_star = q0."""
        return self.sign * np.insert(np.asarray(self.v, dtype=float), self.face, 1.0)


def q0_search(ctx: ForwardContext, samples) -> Q0Search:
    """The search behind `q0_estimate`, with its counts and H*."""
    samples = list(samples)
    if not samples:
        raise ValueError("q0_estimate needs at least one sample")
    best, gap, where, steps = np.inf, 0.0, None, []
    skipped = cut = capped = certified = lp_steps = 0
    for i, L in enumerate(samples):
        # the whitened partials M_p = C^T J_p C that every face indexes
        stack = _whitened(ctx, frechet_derivative(ctx, L).mats)
        if not stack.any():
            warnings.warn("all-zero Jacobian: q0 = 0", stacklevel=3)
            best, gap, where = 0.0, 0.0, (i, 0, 1.0, np.zeros(len(stack) - 1))
            break
        bounds, fits = _face_bounds(stack)
        norms = _norm_sums(stack)
        # rounding of the bounds' dot products and of the attained values
        # they are compared with, both of order eps sum_q ||M_q||_F
        guard = 1e-12 * (np.abs(bounds) + norms[1])
        for p in np.argsort(bounds, kind="stable"):
            if bounds[p] - guard[p] >= best:
                skipped += 1
                continue
            start = _face_start(stack, p, fits[p])
            if best < np.inf:
                screen = _diagonal_screen(stack, p, start, best, norms)
                lp_steps += screen.steps
                capped += screen.capped
                if screen.cut:
                    certified += 1
                    continue
            face = _face_min(stack, p, best, norms, start)
            steps.append(face.steps)
            cut += face.cut
            capped += face.capped
            if face.value < best:
                best, gap, where = face.value, face.gap, (i, int(p), face.sign, face.v)
    i, p, sign, v = where
    return Q0Search(q0=float(best), faces_solved=len(steps), faces_skipped=skipped,
                    newton_steps=tuple(steps), gap=float(gap), faces_cut=cut,
                    capped_centrings=capped, faces_certified=certified, lp_steps=lp_steps,
                    sample=i, face=p, sign=sign, v=tuple(float(u) for u in v))


def q0_estimate(ctx: ForwardContext, samples) -> float:
    """min over samples and over ||H||_inf = 1 of ||F'(L)[H]||_star.

    f(H) = ||sum H_p M_p||_2 (M_p the whitened partials) is convex and even,
    so the sup-norm sphere is covered by the 2N faces H_p = +1.  On each face
    the minimum is the value of a small semidefinite program, solved by a
    log-barrier Newton method with a central-path predictor between
    centrings (`_face_min`, `_barrier`) from the face's Frobenius fit until
    the duality gap is at most 1e-9 times the face value plus a rounding
    floor of 1e-13 sum_p ||M_p||_2.  The result is an attained value of f, so
    it never undercuts the true minimum (up to rounding), and it exceeds it
    by at most that gap when the last centring of the face that gave it met
    its Newton-decrement tolerance.  A centring that caps after a predictor
    step is redone from the last centred point without the predictor.

    Not every face is solved to the end.  Per sample, each face p first gets
    a lower bound b_p from one least-squares fit, the fit its solve starts
    from (`_face_bounds`: ||A||_2 >= ||A||_F / sqrt(n)), and the faces are
    solved in increasing b_p against one running minimum over all samples.
    A face whose b_p, less a rounding guard of 1e-12 (|b_p| + sum_q
    ||M_q||_F), is at least that minimum is skipped.  Once the running
    minimum is finite, a face that is not skipped is pre-screened: the
    linear program on the diagonal of its start's
    eigenbasis (`_diagonal_screen`) runs without any eigh, and its dual
    points certify lower bounds on the whole face; a face so certified to
    lie above the running minimum is dropped (certified).  A face that is
    solved gets the running minimum too, from the start the screen used, and
    stops as soon as one of its iterates certifies, through a nuclear-norm
    dual point, that the face cannot go below it (the face is cut).  Either
    way the face's true minimum lies above the running minimum, so it could
    not have lowered it; a face that is not cut follows the same path and
    gives the same value whatever the running minimum, so the result is
    bitwise the minimum over all 2N faces of every sample.  `q0_search` also
    reports the faces solved, skipped, cut and certified, the Newton steps of
    the solves and of the screens, the centrings that hit the step cap, the
    winning face's duality gap and where q0 is attained (H*).
    """
    return q0_search(ctx, samples).q0


# ---------------------------------------------------------------------------
# Empirical Lipschitz probe
# ---------------------------------------------------------------------------

def lipschitz_probe(ctx: ForwardContext, pairs) -> dict:
    """Ratios ||L1 - L2||_inf / ||F(L1) - F(L2)||_star over parameter pairs;
    returns {max_ratio, ratios, skipped, gram_hash}."""
    ratios = []
    skipped = 0
    for L1, L2 in pairs:
        dl = np.abs(L1.as_array() - L2.as_array()).max()
        if dl == 0.0:
            skipped += 1
            continue
        f1 = forward(ctx, L1).entries
        f2 = forward(ctx, L2).entries
        denom = star_norm(ctx, f1 - f2)
        ratios.append(dl / denom)
    if not ratios:
        raise ValueError("no distinct pairs supplied")
    return {
        "max_ratio": float(max(ratios)),
        "ratios": [float(r) for r in ratios],
        "skipped": skipped,
        "gram_hash": ctx.gram_hash(),
    }


# ---------------------------------------------------------------------------
# Projected Gauss-Newton
# ---------------------------------------------------------------------------

def _project_box(ctx: ForwardContext, arr: np.ndarray) -> np.ndarray:
    """Per-coordinate clip onto the box part of the admissible set."""
    a0 = ctx.box.alpha0
    n = arr.size // 2
    out = arr.copy()
    out[:n] = np.minimum(out[:n], 1.0 / a0)          # lambda_j <= 1/alpha0
    out[n:] = np.clip(out[n:], a0, 1.0 / a0)          # alpha0 <= mu_j <= 1/alpha0
    return out


def _project_feasible(ctx: ForwardContext, arr: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the admissible set, one (lambda_j, mu_j)
    plane at a time.

    The box clip is the projection onto the box.  Where it breaks the
    convexity 2 mu_j + 3 lambda_j >= beta0, the nearest admissible point lies
    on that line (one strictly inside the half-space would be a local, hence
    global, nearest point of the box), so the point goes to the nearest point
    of the line's segment alpha0 <= mu_j <= 1/alpha0, along which
    lambda_j <= (beta0 - 2 alpha0)/3 < 1/alpha0 for every AdmissibleBox.
    """
    a0, b0 = ctx.box.alpha0, ctx.box.beta0
    n = arr.size // 2
    out = _project_box(ctx, arr)
    bad = 2.0 * out[n:] + 3.0 * out[:n] < b0
    mu = np.clip((9.0 * arr[n:][bad] + 2.0 * b0 - 6.0 * arr[:n][bad]) / 13.0, a0, 1.0 / a0)
    lam = (b0 - 2.0 * mu) / 3.0
    while (low := 2.0 * mu + 3.0 * lam < b0).any():  # rounding, at most a few ulps
        lam[low] += np.spacing(np.maximum(np.abs(lam[low]), b0))
    out[:n][bad], out[n:][bad] = lam, mu
    return out


class ReconstructTrace(list):
    """The iterates of one `reconstruct` call, one dict per accepted point
    (keys k, residual, L, and error_inf when the truth is given), with why
    the iteration stopped and how many candidates it rejected."""

    stop_reason: str = "max_iters"
    rejected: int = 0


def reconstruct(ctx: ForwardContext, Lambda_obs, L_init: LameVector, opts: dict = None):
    """Projected Gauss-Newton on the whitened residual
    r(L) = vec(C^T (F(L) - Lambda_obs) C), C C^T = G^{-1} (`_whitened`).

    Levenberg damping scaled to the residual: the step solves
    (A^T A + c ||r_k|| I) delta = -A^T r_k, with c = 1e-6 at the start, x10
    after a rejected candidate and /3 (down to 1e-14) after an accepted one,
    so the damping vanishes with the residual and exact data converge
    quadratically (Yamashita & Fukushima 2001).  Every candidate is the
    Euclidean projection of the step onto the admissible set, and is
    accepted when it lowers ||r||.  The iteration stops, and the trace's
    `stop_reason` says why, with
      - "step_tol": a candidate lies within tol (default 1e-10, sup-norm) of
        the last accepted iterate; it is not evaluated, and that iterate is
        returned;
      - "max_iters": max_iters steps were accepted;
      - "damping_limit": c passed 1e14 without a descent.
    Each evaluated point is factored once: the Jacobian of an accepted point
    comes from the factor its DN matrix was read off, and that factor is
    dropped before the next candidate is factored, so a call costs
    len(trace) + trace.rejected factorisations.  Returns (L_hat, trace), a
    `ReconstructTrace` of residual norms and parameter iterates that adds
    parameter errors when opts["truth"] is given.
    """
    opts = dict(opts or {})
    tol = float(opts.get("step_tol", 1e-10))
    max_iters = int(opts.get("max_iters", 50))
    truth = opts.get("truth")

    obs = Lambda_obs.entries if isinstance(Lambda_obs, DnMatrix) else np.asarray(Lambda_obs)

    def evaluate(arr):
        sys = assemble(ctx.mesh, LameVector.from_array(arr), ctx.cache)
        return sys, _whitened(ctx, dn_matrix(sys).entries - obs).ravel()

    cur = _project_feasible(ctx, L_init.as_array())
    sys, r = evaluate(cur)
    trace = ReconstructTrace([_trace_entry(0, r, cur, truth)])
    c = 1e-6
    for k in range(1, max_iters + 1):
        a = _whitened(ctx, dn_partials(sys)).reshape(cur.size, -1).T
        sys = None  # free this factor before a candidate's is built
        ata = a.T @ a
        atr = a.T @ r
        r_norm = np.linalg.norm(r)
        while c <= 1e14:
            try:
                delta = np.linalg.solve(ata + c * r_norm * np.eye(ata.shape[0]), -atr)
            except np.linalg.LinAlgError:
                c *= 10.0
                continue
            cand = _project_feasible(ctx, cur + delta)
            if np.abs(cand - cur).max() <= tol:
                trace.stop_reason = "step_tol"
                break
            sys, r_new = evaluate(cand)
            if np.linalg.norm(r_new) < r_norm:
                break
            sys = None
            trace.rejected += 1
            c *= 10.0
        else:
            trace.stop_reason = "damping_limit"
        if sys is None:  # no candidate accepted
            break
        cur, r = cand, r_new
        c = max(c / 3.0, 1e-14)
        trace.append(_trace_entry(k, r, cur, truth))
    return LameVector.from_array(cur), trace


def _trace_entry(k, r, cur, truth):
    entry = {"k": int(k), "residual": float(np.linalg.norm(r)), "L": [float(v) for v in cur]}
    if truth is not None:
        entry["error_inf"] = float(np.abs(cur - truth.as_array()).max())
    return entry
