"""Renewal sequence of the ancestral-forest model and derived constants.

``q_k`` is the probability that the backward walk started at ``k`` with
i.i.d. jumps from the given pmf ever visits 0.  First-jump decomposition
gives the exact convolution recursion

    q_0 = 1,   q_k = sum_{j=1..k} p_j q_{k-j},

equivalently q is the power-series inverse of 1 - P(x).  The squared sums
of the window weights b_{n,j} = sum_{i=1..n} q_{i-j} drive every variance
normalization of the forest-based fields.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.signal import fftconvolve
from scipy.special import gamma

from .distributions import PmfKind

__all__ = [
    "RenewalSequence",
    "WeightProfile",
    "RenewalConvergenceWarning",
    "renewal_sequence",
    "var_xstar",
    "weights",
    "c_alpha",
    "bn_sq_growth_constant",
    "p_alpha_weight",
    "p_alpha_weights",
]

_DIRECT_CUTOFF = 2048


class RenewalConvergenceWarning(UserWarning):
    """Emitted when a truncated q-sum has not numerically converged."""


@dataclass(frozen=True)
class RenewalSequence:
    """q_0..q_kmax for one jump pmf."""

    q: np.ndarray
    pmf: object
    kmax: int

    def __post_init__(self):
        if self.q.shape != (self.kmax + 1,):
            raise ValueError("q must have length kmax+1")

    @cached_property
    def cum_q(self) -> np.ndarray:
        # cum_q[m] = q_0 + ... + q_m
        return np.cumsum(self.q)

    @cached_property
    def sum_sq(self) -> float:
        """Partial sum of q_k**2 up to kmax (extended-precision accumulation)."""
        return float(np.sum(np.square(self.q, dtype=np.longdouble)))

    @cached_property
    def sum_sq_tail_estimate(self) -> float:
        """Estimated mass of q_k**2 beyond kmax.

        Uses q_k ~ const * k**(alpha-1), which the test suite checks against
        the computed sequence; 0 when no power decay applies (finite pmfs).
        """
        alpha = getattr(self.pmf, "alpha", None)
        if alpha is None or getattr(self.pmf, "kind", None) is not PmfKind.HS_TAIL:
            return 0.0
        return float(self.kmax * self.q[-1] ** 2 / (1.0 - 2.0 * alpha))

    def tail_sum_sq_from(self, k0: int) -> float:
        """Sum of q_k**2 over k > k0, including the beyond-kmax estimate."""
        if k0 >= self.kmax:
            return self.sum_sq_tail_estimate
        tail = float(np.sum(np.square(self.q[k0 + 1 :], dtype=np.longdouble)))
        return tail + self.sum_sq_tail_estimate


def _q_direct(p: np.ndarray, kmax: int) -> np.ndarray:
    q = np.zeros(kmax + 1)
    q[0] = 1.0
    for k in range(1, kmax + 1):
        q[k] = np.dot(p[:k], q[k - 1 :: -1])
    return q


def _series_inverse(a: np.ndarray, n: int) -> np.ndarray:
    # Newton iteration b <- b(2 - ab) mod x**m doubles correct coefficients
    b = np.array([1.0 / a[0]])
    m = 1
    while m < n:
        m2 = min(2 * m, n)
        t = fftconvolve(a[:m2], b)[:m2]
        t = -t
        t[0] += 2.0
        b = fftconvolve(b, t)[:m2]
        m = m2
    return b[:n]


def _q_newton(p: np.ndarray, kmax: int) -> np.ndarray:
    a = np.empty(kmax + 1)
    a[0] = 1.0
    a[1:] = -p[:kmax]
    q = _series_inverse(a, kmax + 1)
    # q is a probability sequence; clip the O(eps) FFT noise
    return np.clip(q, 0.0, 1.0)


def renewal_sequence(pmf, kmax: int, method: str = "auto") -> RenewalSequence:
    """Compute q_0..q_kmax by the exact convolution recursion.

    ``method`` is "direct" (O(kmax^2)), "newton" (FFT series inversion,
    O(kmax log^2 kmax)), or "auto".  The two agree to well below 1e-10 and
    the suite pins that.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    p = pmf.pmf_block(1, kmax + 1)
    if method == "auto":
        method = "direct" if kmax <= _DIRECT_CUTOFF else "newton"
    if method == "direct":
        q = _q_direct(p, kmax)
    elif method == "newton":
        q = _q_newton(p, kmax)
    else:
        raise ValueError(f"unknown method {method!r}")
    return RenewalSequence(q=q, pmf=pmf, kmax=kmax)


@lru_cache(maxsize=32)
def cached_renewal_sequence(pmf, kmax: int) -> RenewalSequence:
    """Shared q computations for immutable pmfs (hashable dataclasses)."""
    return renewal_sequence(pmf, kmax)


def var_xstar(rs: RenewalSequence) -> float:
    """Reciprocal of sum q_k**2: the innovation variance of the ±1 model.

    Warns (does not fail) when the squared tail has not converged at kmax
    and no power-decay tail estimate covers it, e.g. for finitely supported
    jump laws where q_k tends to a positive renewal density and the sum
    diverges.
    """
    if rs.sum_sq_tail_estimate == 0.0 and rs.q[-1] ** 2 >= 1e-10:
        warnings.warn(
            f"sum of q^2 not converged at kmax={rs.kmax} "
            f"(last increment {rs.q[-1]**2:.3e})",
            RenewalConvergenceWarning,
            stacklevel=2,
        )
    return 1.0 / (rs.sum_sq + rs.sum_sq_tail_estimate)


@dataclass(frozen=True)
class WeightProfile:
    """b_{n,j} for j in (n-kmax, n] and the squared sum b_n^2."""

    n: int
    j_lo: int
    b: np.ndarray
    b_sq: float

    def b_at(self, j: int) -> float:
        if not self.j_lo <= j <= self.n:
            return 0.0
        return float(self.b[j - self.j_lo])


def weights(rs: RenewalSequence, n: int, min_ratio: int = 16) -> WeightProfile:
    """Window weights b_{n,j} = sum_{i=1..n} q_{i-j} and b_n^2.

    Requires kmax >= min_ratio*n so that the ignored weight mass beyond the
    q-truncation is a small fraction of b_n^2 (the doubling diagnostic in the
    tests quantifies it).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if rs.kmax < min_ratio * n:
        raise ValueError(f"kmax={rs.kmax} too small for n={n}; need >= {min_ratio}*n")
    cq = rs.cum_q

    def partial(m: np.ndarray) -> np.ndarray:
        # sum of q_0..q_m, zero for m < 0, saturating at kmax
        return np.where(m >= 0, cq[np.clip(m, 0, rs.kmax)], 0.0)

    j = np.arange(n - rs.kmax, n + 1, dtype=np.int64)
    b = partial(n - j) - partial(-j)
    b_sq = float(np.sum(np.square(b, dtype=np.longdouble)))
    return WeightProfile(n=n, j_lo=int(j[0]), b=b, b_sq=b_sq)


def c_alpha(alpha: float) -> float:
    """The closed form sin(pi a) / (pi a (2a+1) Gamma(1-2a)) on (0, 1/2)."""
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must lie strictly inside (0,1/2), got {alpha}")
    return math.sin(math.pi * alpha) / (math.pi * alpha * (2 * alpha + 1) * gamma(1 - 2 * alpha))


def bn_sq_growth_constant(alpha: float) -> float:
    """Exact growth constant of b_n^2 / n^(2 alpha + 1) for exact-tail jumps.

    The renewal density satisfies q_k ~ (sin(pi a)/pi) k**(a-1) (checked
    numerically in the suite), whence

        b_n^2 ~ n^(2a+1) (sin(pi a)/(pi a))^2 [1/(2a+1) + I(a)],
        I(a)  = integral_0^inf ((1+x)^a - x^a)^2 dx,

    which evaluates in closed form to Gamma(1-2a) / (Gamma(1+a)
    Gamma(1-a)^3 (2a+1)).  This equals c_alpha(a) * (Gamma(1-2a)/Gamma(1-a))^2
    and is the constant the simulated variances actually realize; see the
    verification notes in the README.
    """
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must lie strictly inside (0,1/2), got {alpha}")
    return gamma(1 - 2 * alpha) / (gamma(1 + alpha) * gamma(1 - alpha) ** 3 * (2 * alpha + 1))


def p_alpha_weight(alpha: float, r: int) -> float:
    """alpha (1-alpha) ... (r-1-alpha) / r!, computed iteratively."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0,1)")
    if r < 1:
        raise ValueError("r must be >= 1")
    value = alpha
    for i in range(1, r):
        value *= (i - alpha) / (i + 1)
    return value


def p_alpha_weights(alpha: float, rmax: int) -> np.ndarray:
    """Vector of p_alpha(1..rmax)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0,1)")
    i = np.arange(1, rmax + 1, dtype=np.float64)
    factors = np.empty(rmax)
    factors[0] = alpha
    factors[1:] = (i[1:] - 1.0 - alpha) / i[1:]
    return np.cumprod(factors)


def p_alpha_tail(alpha: float, rmax: int) -> float:
    """Exact tail sum of p_alpha over r > rmax.

    Telescoping of the partial sums gives
    sum_{r>R} p_alpha(r) = Gamma(R+1-alpha) / (Gamma(1-alpha) Gamma(R+1)),
    evaluated in log space.
    """
    return math.exp(
        math.lgamma(rmax + 1 - alpha) - math.lgamma(1 - alpha) - math.lgamma(rmax + 1)
    )
