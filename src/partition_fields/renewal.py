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
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ._special import next_fast_len
from .distributions import PmfKind

__all__ = [
    "RenewalSequence",
    "WeightProfile",
    "renewal_sequence",
    "q_sq_tail_bound",
    "var_xstar",
    "weights",
    "c_alpha",
    "bn_sq_growth_constant",
    "p_alpha_weights",
]

_MIN_KMAX_RATIO = 16  # weights() needs kmax >= 16 n


@dataclass(frozen=True)
class RenewalSequence:
    """q_0..q_kmax for one jump pmf."""

    q: np.ndarray
    pmf: object

    @property
    def kmax(self) -> int:
        return self.q.size - 1

    @cached_property
    def cum_q(self) -> np.ndarray:
        # cum_q[m] = q_0 + ... + q_m
        return np.cumsum(self.q)

    @cached_property
    def sum_sq(self) -> float:
        """Partial sum of q_k**2 up to kmax (extended-precision accumulation)."""
        return float(np.sum(np.square(self.q, dtype=np.longdouble)))


def q_sq_tail_bound(alpha: float, depth: int) -> float:
    """Upper bound on sum_{k > depth} q_k**2 for exact-tail jumps, depth >= 1.

    q_k <= c k**(alpha-1) with c = sin(pi alpha)/pi (the suite pins it over a
    computed horizon), so the sum is at most the integral of c**2 x**(2 alpha-2)
    over x > depth, c**2 depth**(2 alpha-1) / (1 - 2 alpha).  It is also the
    package's one value of that tail: at depth 2^18 it exceeds the sum (q
    computed to 2^22) by 1.2e-5, 4.9e-5 and 9.0e-5 relative at alpha = 0.1,
    0.25 and 0.45.
    """
    c = math.sin(math.pi * alpha) / math.pi
    return c * c * depth ** (2.0 * alpha - 1.0) / (1.0 - 2.0 * alpha)


def _fftconvolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two real 1D arrays, as SciPy's ``fftconvolve``.

    Same 5-smooth padding, same operand order and the same length-1
    shortcut, and NumPy's FFT is the same pocketfft, so the result is
    bitwise that of the SciPy routine (the tests compare them) without
    SciPy.
    """
    if a.size == 1 or b.size == 1:
        return a * b
    size = a.size + b.size - 1
    fsize = next_fast_len(size)
    return np.fft.irfft(np.fft.rfft(a, fsize) * np.fft.rfft(b, fsize), fsize)[:size]


def _series_inverse(a: np.ndarray, n: int) -> np.ndarray:
    # Newton iteration b <- b(2 - ab) mod x**m at most doubles the correct
    # coefficients; the precisions n, ceil(n/2), ..., 2 taken from the
    # smallest up run the full-size step once, whatever n
    sizes = []
    while n > 1:
        sizes.append(n)
        n = (n + 1) // 2
    b = np.array([1.0 / a[0]])
    for m in reversed(sizes):
        t = _fftconvolve(a[:m], b)[:m]
        t = -t
        t[0] += 2.0
        b = _fftconvolve(b, t)[:m]
    return b


def renewal_sequence(pmf, kmax: int) -> RenewalSequence:
    """Compute q_0..q_kmax as the power-series inverse of 1 - P(x).

    One algorithm at every kmax: Newton iteration on FFT products.  Its
    precisions kmax + 1, ceil((kmax + 1)/2), ..., 2 shrink geometrically, so
    the whole costs about two steps of the largest size, O(kmax log kmax).
    The tests hold it to the direct O(kmax^2) recursion within 1e-10.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    a = np.empty(kmax + 1)
    a[0] = 1.0
    a[1:] = -pmf.pmf_block(1, kmax + 1)
    # q is a probability sequence and q_0 = 1; clip the O(eps) FFT noise
    q = np.clip(_series_inverse(a, kmax + 1), 0.0, 1.0)
    q[0] = 1.0
    return RenewalSequence(q=q, pmf=pmf)


@lru_cache(maxsize=32)
def cached_renewal_sequence(pmf, kmax: int) -> RenewalSequence:
    """Shared q computations for immutable pmfs (hashable dataclasses)."""
    return renewal_sequence(pmf, kmax)


def var_xstar(rs: RenewalSequence) -> float:
    """Reciprocal of sum q_k**2 for exact-tail jumps: the innovation variance of the ±1 model.

    The squares beyond kmax add :func:`q_sq_tail_bound` at kmax.  Only the
    exact-tail laws (alpha in (0, 1/2)) have that closed form, and for them
    the sum converges; any other law raises ValueError.
    """
    if getattr(rs.pmf, "kind", None) is not PmfKind.HS_TAIL:
        raise ValueError("var_xstar needs an exact-tail (HsTail) jump law")
    return 1.0 / (rs.sum_sq + q_sq_tail_bound(rs.pmf.alpha, rs.kmax))


@dataclass(frozen=True)
class WeightProfile:
    """b_{n,j} for j in (n-kmax, n] and the squared sum b_n^2."""

    n: int
    j_lo: int
    b: np.ndarray
    b_sq: float


def weights(rs: RenewalSequence, n: int) -> WeightProfile:
    """Window weights b_{n,j} = sum_{i=1..n} q_{i-j} and b_n^2.

    Requires kmax >= 16 n so that the ignored weight mass beyond the
    q-truncation is a small fraction of b_n^2 (the doubling diagnostic in the
    tests quantifies it).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if rs.kmax < _MIN_KMAX_RATIO * n:
        raise ValueError(f"kmax={rs.kmax} too small for n={n}; need >= {_MIN_KMAX_RATIO}*n")
    # b_{n,j} = cum_q[n-j] - cum_q[-j] for j = n-kmax..0 (n-j <= kmax there),
    # then cum_q[n-j] alone for j = 1..n
    cq, k = rs.cum_q, rs.kmax
    b = np.concatenate((cq[k:n - 1:-1] - cq[k - n::-1], cq[n - 1::-1]))
    b_sq = float(np.sum(np.square(b, dtype=np.longdouble)))
    return WeightProfile(n=n, j_lo=n - k, b=b, b_sq=b_sq)


def c_alpha(alpha: float) -> float:
    """The closed form sin(pi a) / (pi a (2a+1) Gamma(1-2a)) on (0, 1/2)."""
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must lie strictly inside (0,1/2), got {alpha}")
    return math.sin(math.pi * alpha) / (math.pi * alpha * (2 * alpha + 1) * math.gamma(1 - 2 * alpha))


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
    return math.gamma(1 - 2 * alpha) / (math.gamma(1 + alpha) * math.gamma(1 - alpha) ** 3 * (2 * alpha + 1))


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
