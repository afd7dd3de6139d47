"""The few special functions the models need, in NumPy and ``math``.

* ``hurwitz_zeta``: zeta(s, q) for the Zipf law's normalization and tail;
* ``scaled_betainc``: n B(a, n) I_w(a, n) at the tiny w of the urn
  variance's closed-form tail, with ``gamma_ratio``, Gamma(m + 1) /
  Gamma(m + 1 - alpha) at large m, where I_w is 1;
* ``ndtr`` and ``kolmogorov_sf``: the normal CDF and the Kolmogorov
  survival function of the KS check, vectorized so that one call covers
  every corner of a report;
* ``next_fast_len``: the FFT size of the renewal sequence's products.

Gamma itself is ``math.gamma``.  Each function is held to SciPy in the
tests over the arguments the package evaluates.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["hurwitz_zeta", "scaled_betainc", "gamma_ratio", "ndtr", "kolmogorov_sf", "next_fast_len"]


def next_fast_len(n: int) -> int:
    """The smallest 5-smooth integer (2^a 3^b 5^c) >= n: a fast real FFT size."""
    if n <= 6:
        return n
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least power of two that takes p35 to n or past it
            m = p35 << max(0, (-(-n // p35) - 1).bit_length())
            if m == n:
                return n
            best = min(best, m)
            p35 *= 3
        p5 *= 5
    return best


# B_{2j} / (2j)! for j = 1..8: the Euler-Maclaurin correction coefficients
_EM_COEFFS = np.array(
    [1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
     -691 / 1307674368000, 1 / 74724249600, -3617 / 10670622842880000],
    dtype=np.longdouble,
)


def hurwitz_zeta(s: float, q) -> np.ndarray | float:
    """zeta(s, q) = sum_{k >= 0} (q + k)^-s for s > 1 and q >= 1 (vectorized in q).

    Euler-Maclaurin (DLMF 25.2.9, shifted to q): the 32 terms below
    x = q + 32 one by one, then x^(1-s)/(s-1) + x^-s/2 + sum_j B_2j/(2j)!
    (s)_(2j-1) x^(1-s-2j) for j <= 8, all in extended precision.  Successive
    corrections shrink by about ((s + 2j) / (2 pi x))^2, so the remainder is
    below 1e-20 of the tail while s is below x; at larger s the whole tail
    is below (q/x)^s <= e^(-32 s/x) of the first term.
    """
    q = np.asarray(q, dtype=np.float64)
    if math.isinf(s):  # alpha so small that 1/alpha overflows: only the k = 0 term at q = 1 is left
        out = np.where(q == 1.0, 1.0, 0.0)
        return out if out.ndim else float(out)
    s_l = np.longdouble(s)
    ql = q.astype(np.longdouble)
    direct = np.sum((ql[..., None] + np.arange(32, dtype=np.longdouble)) ** -s_l, axis=-1)
    x = ql + 32.0
    x_s = x**-s_l
    # the rising factorials (s)_(2j-1) for j = 1..8, each (s + 2j - 3)(s + 2j - 2) times the one before
    j = np.arange(1, 8, dtype=np.longdouble)
    rising = np.concatenate(([s_l], (s_l + 2 * j - 1) * (s_l + 2 * j))).cumprod()
    inv_x = 1.0 / x
    powers = inv_x[..., None] ** np.arange(1, 16, 2, dtype=np.longdouble)
    corrections = np.sum(powers * (rising * _EM_COEFFS), axis=-1)
    out = direct + x_s * (x / (s_l - 1.0) + 0.5 + corrections)
    out = out.astype(np.float64)
    return out if out.ndim else float(out)


def gamma_ratio(m: float, alpha: float) -> float:
    """Gamma(m + 1) / Gamma(m + 1 - alpha) for m >= 2^14 and alpha in (0, 1).

    The series of DLMF 5.11.13, taken about w = m + (1 - alpha)/2 so that
    its odd terms vanish: w^alpha (1 + alpha (1 - alpha^2) / (24 w^2)).  The
    next term is of order alpha w^-4, below 1e-17 at m >= 2^14.
    """
    w = m + 0.5 * (1.0 - alpha)
    return w**alpha * (1.0 + alpha * (1.0 - alpha * alpha) / (24.0 * w * w))


_BETA_TERMS = np.arange(160, dtype=np.float64)


def scaled_betainc(a: float, n: int, w: float) -> float:
    """n B(a, n) I_w(a, n), the regularized incomplete beta times n B(a, n), for a in (0, 1) and w <= 2^-19.

    Up to n w = 40 it is n w^a (1 - w)^n / a F(a + n, 1; a + 1; w)
    (DLMF 8.17.8), so B cancels.  The hypergeometric series has positive
    terms, each (a + n + k) w / (a + 1 + k) times the one before, so it
    does not cancel at large n w; its 160th term is below 1e-40 of the sum.
    Past n w = 40, I_w differs from 1 by less than e^-40, and
    n B(a, n) = Gamma(a) Gamma(n + 1) / Gamma(n + a) comes from
    ``gamma_ratio`` (n > 40 * 2^19 there).
    """
    if n * w > 40.0:
        return math.gamma(a) * gamma_ratio(n, 1.0 - a)
    ratios = (a + n + _BETA_TERMS) * w / (a + 1.0 + _BETA_TERMS)
    series = 1.0 + float(np.sum(np.cumprod(ratios)))
    return n * w**a * math.exp(n * math.log1p(-w)) / a * series


# W. J. Cody's rational Chebyshev approximations of erf and erfc (Math. Comp.
# 23, 1969, as in his CALERF): erf(y) = y A(y^2)/B(y^2) for |y| <= 0.46875,
# erfc(y) = exp(-y^2) C(y)/D(y) for y <= 4, and
# erfc(y) = exp(-y^2)/y (1/sqrt(pi) - y^-2 P(y^-2)/Q(y^-2)) past 4.
# Each row is (numerator, denominator), highest power first.
_ERF_SMALL = np.array([
    [1.85777706184603153e-1, 3.16112374387056560e00, 1.13864154151050156e02,
     3.77485237685302021e02, 3.20937758913846947e03],
    [1.0, 2.36012909523441209e01, 2.44024637934444173e02,
     1.28261652607737228e03, 2.84423683343917062e03],
])
_ERFC_MID = np.array([
    [2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e00,
     6.61191906371416295e01, 2.98635138197400131e02, 8.81952221241769090e02,
     1.71204761263407058e03, 2.05107837782607147e03, 1.23033935479799725e03],
    [1.0, 1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
     1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
     3.43936767414372164e03, 1.23033935480374942e03],
])
_ERFC_LARGE = np.array([
    [1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
     1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4],
    [1.0, 2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
     6.05183413124413191e-2, 2.33520497626869185e-3],
])
_INV_SQRT_PI = 0.56418958354775628695


def _rational(coeffs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Numerator over denominator, both by Horner's rule in t, as one (2, n) pass."""
    acc = np.multiply.outer(coeffs[:, 0], np.ones_like(t))
    for c in coeffs[:, 1:].T:
        acc *= t
        acc += c[:, None]
    return acc[0] / acc[1]


def ndtr(x) -> np.ndarray:
    """The standard normal CDF, elementwise, as Cody's erf/erfc at |x|/sqrt(2).

    exp(-x^2/2) is taken from x itself, as exp(-h^2/2) exp(-(x-h)(x+h)/2)
    with h = |x| truncated to a multiple of 1/16 (so h^2/2 is exact), and
    keeps its relative accuracy far into the lower tail.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(x.shape)
    # past |x| = 40 the result is 0 or 1 anyway; the cap keeps huge and infinite x from overflowing
    ax = np.minimum(np.abs(x), 40.0)
    y = ax * math.sqrt(0.5)
    small = y <= 0.46875
    t = y[small]
    out[small] = 0.5 + 0.5 * (x[small] * math.sqrt(0.5)) * _rational(_ERF_SMALL, t * t)
    rest = ~small
    xr, ax, yr = x[rest], ax[rest], y[rest]
    # erfc(y) exp(y^2)
    ratio = np.empty(yr.shape)
    mid = yr <= 4.0
    ratio[mid] = _rational(_ERFC_MID, yr[mid])
    far = yr[~mid]
    inv_sq = 1.0 / (far * far)
    ratio[~mid] = (_INV_SQRT_PI - inv_sq * _rational(_ERFC_LARGE, inv_sq)) / far
    h = np.trunc(ax * 16.0) / 16.0
    half_erfc = 0.5 * np.exp(-0.5 * h * h) * np.exp(-0.5 * (ax - h) * (ax + h)) * ratio
    out[rest] = np.where(xr < 0.0, half_erfc, 1.0 - half_erfc)
    return out


_KS_TERMS = np.arange(1, 9, dtype=np.float64)
_KS_SIGNS = np.where(_KS_TERMS % 2 == 1, 2.0, -2.0)
_THETA_TERMS = np.arange(1, 6, 2, dtype=np.float64) ** 2 * (math.pi**2 / 8.0)


def kolmogorov_sf(x) -> np.ndarray:
    """P(K > x) for the Kolmogorov distribution, elementwise.

    From x = 0.6 on, 2 sum_k (-1)^(k-1) exp(-2 k^2 x^2) over k <= 8, whose
    ninth term is below 1e-20 there; below it, the theta form
    1 - sqrt(2 pi)/x sum_k exp(-(2k-1)^2 pi^2 / (8 x^2)) over k <= 3, whose
    fourth term is below 1e-70.  Each form is summed from its smallest term
    up.  P(K > x) = 1 for x <= 0, and NaN at NaN.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.where(np.isnan(x), np.nan, 1.0)
    large = x >= 0.6
    xl = x[large]
    terms = np.exp(-2.0 * np.square(np.multiply.outer(xl, _KS_TERMS))) * _KS_SIGNS
    out[large] = _sum_backwards(terms)
    small = (x > 0.0) & ~large
    xs = x[small]
    terms = np.exp(-np.multiply.outer(1.0 / (xs * xs), _THETA_TERMS))
    out[small] = 1.0 - math.sqrt(2.0 * math.pi) / xs * _sum_backwards(terms)
    return out


def _sum_backwards(terms: np.ndarray) -> np.ndarray:
    """Each row's sum, from its last column to its first."""
    acc = terms[:, -1].copy()
    for col in range(terms.shape[1] - 2, -1, -1):
        acc += terms[:, col]
    return acc
