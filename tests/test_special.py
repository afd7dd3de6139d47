"""The package's special functions, each held to SciPy over the arguments the package evaluates.

Tolerances are relative, mostly in units of the float64 epsilon, eps.
Where SciPy itself is the less accurate side, the comment says by how much.
"""

import math

import numpy as np
import pytest
import scipy.fft
import scipy.special as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_fields import make_karlin_pmf
from partition_fields._special import (
    gamma_ratio,
    hurwitz_zeta,
    kolmogorov_sf,
    ndtr,
    next_fast_len,
    scaled_betainc,
)
from partition_fields.distributions import _SELF_CHECK_TERMS, _SELF_CHECK_TOL

EPS = np.finfo(np.float64).eps


def test_gamma_matches_scipy_on_the_unit_interval_and_past_it():
    # the package takes Gamma from math.gamma at 1 - alpha, 1 - 2 alpha and 1 + alpha
    x = np.linspace(0.0, 2.0, 20001)[1:]
    got = np.array([math.gamma(v) for v in x])
    np.testing.assert_allclose(got, sps.gamma(x), rtol=8 * EPS, atol=0)


def test_gamma_ratio_matches_poch():
    for alpha in np.linspace(0.001, 0.999, 100):
        for m in (2.0**14, 2.0**14 + 0.5, 1e5, 1e6, 3e7, 1e9, 1e12, 2.0**53):
            assert gamma_ratio(m, alpha) == pytest.approx(sps.poch(m + 1 - alpha, alpha), rel=4 * EPS), (m, alpha)


def _n_beta_oracle(a: float, n: int) -> float:
    """n B(a, n) = Gamma(a) Gamma(n+1)/Gamma(n+a): poch at m = max(n, 2^14), stepped down to n."""
    m = max(n, 1 << 14)
    k = np.arange(n + 1, m + 1, dtype=np.float64)
    return math.gamma(a) * sps.poch(m + a, 1.0 - a) * math.exp(np.sum(np.log1p(-(1.0 - a) / k)))


@pytest.mark.parametrize("n", [1, 10, 10**3, 10**6, 10**7, 10**9, 10**12])
def test_scaled_betainc_matches_betainc(n):
    # w = 2 c 2^(-20/alpha) as in expected_occupancy; n w passes 40 at n = 10^9 and 10^12
    # for the larger alphas, where I_w rounds to 1
    for alpha in np.linspace(0.02, 0.99, 98):
        s = 1.0 / alpha
        w = 2.0 / sps.zeta(s) * 2.0 ** (-20.0 * s)
        a = 1.0 - alpha
        want = _n_beta_oracle(a, n) * sps.betainc(a, n, w)
        assert scaled_betainc(a, n, w) == pytest.approx(want, rel=1e-14, abs=0), (alpha, n)


def test_riemann_zeta_within_a_few_ulp_of_scipy():
    # SciPy's zeta is off by up to 5 ULP at these exponents; the package's by at most 1
    alphas = np.linspace(0.02, 0.999, 5001)
    got = np.array([hurwitz_zeta(1.0 / a, 1.0) for a in alphas])
    want = sps.zeta(1.0 / alphas)
    ulps = np.abs(got - want) / np.spacing(want)
    assert ulps.max() <= 8, alphas[ulps.argmax()]


def test_riemann_zeta_matches_its_closed_forms_at_even_integers():
    # within 2 ULP of the closed form as float64 evaluates it, itself off by up to 1.5 ULP
    for s, exact in ((2.0, math.pi**2 / 6), (4.0, math.pi**4 / 90), (6.0, math.pi**6 / 945)):
        assert abs(hurwitz_zeta(s, 1.0) - exact) <= 2 * np.spacing(exact)


def test_hurwitz_zeta_matches_scipy():
    q = np.array([1.0, 2.0, 3.5, 100.0, 1025.0, 1e6, 2.0**40, 2.0**62])
    for alpha in np.linspace(0.02, 0.999, 200):
        s = 1.0 / alpha
        got, want = hurwitz_zeta(s, q), sps.zeta(s, q)
        assert got.shape == q.shape
        # past about 1e-300 both are subnormal or 0
        big = want > 1e-290
        np.testing.assert_allclose(got[big], want[big], rtol=4 * EPS, atol=0)
        assert np.all(got[~big] <= 1e-290)
        assert hurwitz_zeta(s, 1025.0) == got[4]


def test_hurwitz_zeta_past_the_float_exponent():
    # alpha so small that s = 1/alpha is huge or infinite: only the term at q = 1 is left
    for s in (1e5, 1e300, math.inf):
        assert hurwitz_zeta(s, 1.0) == 1.0
        assert np.all(hurwitz_zeta(s, np.array([2.0, 1025.0])) == 0.0)


def test_ndtr_matches_scipy():
    # both lose about x^2 ULP far in the lower tail: SciPy from rounding x / sqrt(2),
    # the package from the Gaussian factor's argument
    x = np.linspace(-38.0, 8.0, 400001)
    got, want = ndtr(x), sps.ndtr(x)
    tol = 4 * EPS * (1.0 + x * x) * want + 1e-307  # SciPy flushes to 0 below x = -37.5
    assert np.all(np.abs(got - want) <= tol)
    assert got.shape == x.shape
    assert ndtr(0.0) == 0.5 and ndtr(40.0) == 1.0 and ndtr(-40.0) == 0.0
    edges = ndtr([-np.inf, np.inf, np.nan])
    assert edges[0] == 0.0 and edges[1] == 1.0 and np.isnan(edges[2])


def test_kolmogorov_sf_matches_scipy():
    # SciPy's switch between its two series costs it up to 37 ULP near x = 0.8;
    # both lose about 2 x^2 ULP at large x from rounding the exponent
    x = np.linspace(0.05, 5.0, 100001)
    np.testing.assert_allclose(kolmogorov_sf(x), sps.kolmogorov(x), rtol=2e-14, atol=0)
    assert kolmogorov_sf(0.0) == 1.0 and kolmogorov_sf(40.0) == 0.0
    assert kolmogorov_sf(np.inf) == 0.0 and np.isnan(kolmogorov_sf(np.nan))


def test_next_fast_len_matches_scipy():
    sizes = [*range(1, 5000), *range(262_000, 263_000), 2**19 + 1, 2**20 + 1, 10**7 + 3]
    assert [next_fast_len(n) for n in sizes] == [scipy.fft.next_fast_len(n, True) for n in sizes]


def _mass(pmf) -> float:
    """Head plus analytic tail, as the constructor's self-check sums them."""
    head = float(np.sum(pmf.pmf_block(1, _SELF_CHECK_TERMS + 1), dtype=np.longdouble))
    return head + pmf.tail_at(_SELF_CHECK_TERMS + 1)


@given(alpha=st.one_of(
    st.floats(min_value=0.0, max_value=0.03, exclude_min=True),
    st.floats(min_value=0.97, max_value=1.0, exclude_max=True),
))
@settings(max_examples=200, deadline=None)
def test_karlin_pmf_mass_check_near_both_ends(alpha):
    # the constructor's self-check passes, and the mass it checks is 1
    assert abs(_mass(make_karlin_pmf(alpha)) - 1.0) <= _SELF_CHECK_TOL
