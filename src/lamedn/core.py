"""Parameter vectors, admissibility, Poisson's ratio, and the log modulus.

The material model everywhere is isotropic linear elasticity with piecewise
constant Lame parameters on a labeled partition: on subdomain j the stiffness
tensor acts on a matrix A as

    C A = lambda_j tr(sym A) I + 2 mu_j sym A.

Admissibility is the strong-convexity box

    alpha0 <= mu_j <= 1/alpha0,   lambda_j <= 1/alpha0,   2 mu_j + 3 lambda_j >= beta0,

with 0 < alpha0 < 1 and 0 < beta0 < 2, which keeps Poisson's ratio
nu = lambda/(2(lambda+mu)) inside [-1 + beta0*alpha0/4, 1/2 - alpha0**2/4].

The module also hosts the logarithmic modulus of continuity

    sigma(t) = |log t|^(-1/(8 delta))   for 0 < t < 1/e,
    sigma(t) = t - 1/e + 1               for t >= 1/e,

its N-fold composition, and the explicit stability-constant bound
max{2 M1 / sigma2^{-1}(delta1), 2/q0} built from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LameVector",
    "AdmissibleBox",
    "DEFAULT_BOX",
    "check_admissible",
    "poisson_ratio",
    "sigma",
    "sigma_compose",
    "sigma_inverse",
    "propbv_constant",
    "sample_admissible",
]

_INV_E = 1.0 / math.e

# log of the smallest positive subnormal float64; lower end of the bisection
# bracket when inverting sigma in log space.
_LOG_TINY = math.log(5e-324)


@dataclass(frozen=True)
class LameVector:
    """Piecewise-constant Lame parameters L = (lambda_1..lambda_N, mu_1..mu_N)."""

    lambdas: tuple
    mus: tuple

    def __init__(self, lambdas, mus):
        lambdas = tuple(float(v) for v in np.atleast_1d(lambdas))
        mus = tuple(float(v) for v in np.atleast_1d(mus))
        if len(lambdas) != len(mus) or len(lambdas) < 1:
            raise ValueError("lambdas and mus must have equal length N >= 1")
        if not all(math.isfinite(v) for v in lambdas + mus):
            raise ValueError("Lame parameters must be finite")
        object.__setattr__(self, "lambdas", lambdas)
        object.__setattr__(self, "mus", mus)

    @property
    def N(self) -> int:
        return len(self.lambdas)

    def as_array(self) -> np.ndarray:
        """Flatten to (lambda_1..lambda_N, mu_1..mu_N)."""
        return np.asarray(self.lambdas + self.mus, dtype=float)

    @classmethod
    def from_array(cls, arr) -> "LameVector":
        arr = np.asarray(arr, dtype=float)
        if arr.ndim != 1 or arr.size % 2:
            raise ValueError("flat Lame vector must have even length 2N")
        n = arr.size // 2
        return cls(arr[:n], arr[n:])


@dataclass(frozen=True)
class AdmissibleBox:
    """Strong-convexity parameter box defined by alpha0 in (0,1), beta0 in (0,2)."""

    alpha0: float
    beta0: float

    def __post_init__(self):
        if not (0.0 < self.alpha0 < 1.0):
            raise ValueError("alpha0 must lie in (0, 1)")
        if not (0.0 < self.beta0 < 2.0):
            raise ValueError("beta0 must lie in (0, 2)")


#: Default strong-convexity box used when callers do not supply one.
DEFAULT_BOX = AdmissibleBox(alpha0=0.5, beta0=1.0)


def check_admissible(L: LameVector, box: AdmissibleBox = DEFAULT_BOX):
    """Test the 4N box inequalities; return (ok, violations).

    Violations are (j, name) pairs with 1-based subdomain index j and name in
    {"mu lower", "mu upper", "lambda upper", "convexity"}.
    """
    a0, b0 = box.alpha0, box.beta0
    violations = []
    for j, (lam, mu) in enumerate(zip(L.lambdas, L.mus), start=1):
        if mu < a0:
            violations.append((j, "mu lower"))
        if mu > 1.0 / a0:
            violations.append((j, "mu upper"))
        if lam > 1.0 / a0:
            violations.append((j, "lambda upper"))
        if 2.0 * mu + 3.0 * lam < b0:
            violations.append((j, "convexity"))
    return (not violations), violations


def poisson_ratio(lam: float, mu: float) -> float:
    """Poisson's ratio nu = lambda / (2 (lambda + mu))."""
    den = 2.0 * (lam + mu)
    if den == 0.0:
        raise ValueError("degenerate parameters: lambda + mu = 0")
    return lam / den


def sigma(t: float, delta: float) -> float:
    """Logarithmic modulus of continuity.

    sigma(t) = |log t|^(-1/(8 delta)) on (0, 1/e), the affine continuation
    t - 1/e + 1 on [1/e, inf), and 0 at t = 0 (continuous extension).
    Strictly increasing and concave.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    if t < 0.0:
        raise ValueError("sigma is defined for t >= 0")
    if t == 0.0:
        return 0.0
    if t >= _INV_E:
        return t - _INV_E + 1.0
    return (-math.log(t)) ** (-1.0 / (8.0 * delta))


def sigma_compose(t: float, delta: float, N: int) -> float:
    """N-fold composition sigma^N(t) = sigma(sigma(...sigma(t)))."""
    if int(N) != N or N < 1:
        raise ValueError("N must be an integer >= 1")
    out = t
    for _ in range(int(N)):
        out = sigma(out, delta)
    return out


def sigma_inverse(y: float, delta: float, N: int = 1) -> float:
    """Invert sigma^N by bisection in log t to relative tolerance 1e-10 on t.

    Returns 0.0 when y is below the smallest value sigma^N attains on
    representable positive floats (the inverse underflows; the log branch
    decays slower than any power as t -> 0).
    """
    if y < 0.0:
        raise ValueError("sigma^N is nonnegative")
    if y == 0.0:
        return 0.0
    if sigma_compose(math.exp(_LOG_TINY), delta, N) >= y:
        return 0.0
    lo = _LOG_TINY
    hi = 0.0
    while sigma_compose(math.exp(hi), delta, N) < y:
        hi += 16.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if sigma_compose(math.exp(mid), delta, N) < y:
            lo = mid
        else:
            hi = mid
    return math.exp(0.5 * (lo + hi))


def propbv_constant(M1: float, M2: float, q0: float, lipschitz_Fprime: float,
                    delta: float, N: int, cstar: float = 1.0) -> float:
    """Explicit Lipschitz-stability constant bound.

    C = max{ 2 M1 / sigma2^{-1}(delta1), 2/q0 } with sigma2 = cstar * sigma^N,
    delta0 = q0 / (2 lipschitz_Fprime) and delta1 = min(delta0, M2)/2.
    Returns inf when the sigma inverse underflows (the bound is astronomically
    large, which is the expected regime of the logarithmic modulus).
    """
    if q0 <= 0.0:
        raise ValueError("q0 must be positive (derivative injectivity modulus)")
    if min(M1, M2, lipschitz_Fprime, cstar) <= 0.0:
        raise ValueError("all inputs must be positive")
    delta0 = q0 / (2.0 * lipschitz_Fprime)
    delta1 = 0.5 * min(delta0, M2)
    t_inv = sigma_inverse(delta1 / cstar, delta, N)
    first = math.inf if t_inv == 0.0 else 2.0 * M1 / t_inv
    return max(first, 2.0 / q0)


def sample_admissible(N: int, box: AdmissibleBox = DEFAULT_BOX, *,
                      rng: np.random.Generator) -> LameVector:
    """Uniform rejection-free sample of the admissible box, drawn from rng.

    mu_j ~ U[alpha0, 1/alpha0]; given mu_j, lambda_j ~ U[(beta0-2mu_j)/3, 1/alpha0].
    """
    mus = rng.uniform(box.alpha0, 1.0 / box.alpha0, size=N)
    lo = (box.beta0 - 2.0 * mus) / 3.0
    lambdas = rng.uniform(lo, 1.0 / box.alpha0)
    return LameVector(lambdas, mus)
