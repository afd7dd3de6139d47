"""Limiting Gaussian kernels and the dense reference sampler."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partition_fields import (
    HurstPair,
    fbm_cov,
    fbs_cov_matrix,
    ks_normal,
    replicate_generator,
    sample_fbs,
)
from partition_fields.fbs import _cholesky_with_jitter


def test_fbm_cov_brownian_reduction():
    assert fbm_cov(0.5, 0.3, 0.7) == pytest.approx(0.3, abs=1e-15)
    assert fbm_cov(0.5, 0.7, 0.3) == pytest.approx(0.3, abs=1e-15)


def test_fbm_cov_variance_line():
    for h, t in [(0.3, 0.4), (0.75, 1.0)]:
        assert fbm_cov(h, t, t) == pytest.approx(t ** (2 * h), abs=1e-15)
    assert fbm_cov(0.75, 1.0, 1.0) == 1.0


def _sheet_cov(hurst, s, t):
    """Cov of the sheet at points s and t: their entry in the Gram matrix of {s1, t1} x {s2, t2}."""
    return fbs_cov_matrix(hurst, [s[0], t[0]], [s[1], t[1]])[0, 3]


def test_fbs_cov_products_and_boundary():
    pair = HurstPair(0.5, 0.5)
    s, t = np.array([0.3, 0.8]), np.array([0.6, 0.4])
    assert _sheet_cov(pair, s, t) == pytest.approx(0.3 * 0.4, abs=1e-15)
    assert _sheet_cov(pair, np.array([1.0, 1.0]), np.array([1.0, 1.0])) == 1.0
    assert _sheet_cov(HurstPair(0.3, 0.8), np.array([0.0, 0.5]), np.array([0.7, 0.6])) == 0.0
    # the product of the coordinate kernels
    product = fbm_cov(0.3, 0.3, 0.6) * fbm_cov(0.8, 0.8, 0.4)
    assert _sheet_cov(HurstPair(0.3, 0.8), s, t) == pytest.approx(product, rel=1e-15)


def test_hurst_pair_domain():
    for bad in ((0.0, 0.5), (0.5, 1.0), (-0.1, 0.5)):
        with pytest.raises(ValueError):
            HurstPair(*bad)


# c = 2^k scales s and t exactly, so |cs - ct| = c|s - t| even for nearly
# equal times, where rounding c*s and c*t would dominate |cs - ct|^(2H)
_EXACT_SCALE = st.integers(-3, 1).map(lambda k: 2.0**k)


@example(h1=0.5, h2=0.25, c1=1.0, c2=2.0, s1=0.5, s2=0.010000000000000002, t1=0.5, t2=0.01)
@given(
    h1=st.floats(0.05, 0.95),
    h2=st.floats(0.05, 0.95),
    c1=_EXACT_SCALE,
    c2=_EXACT_SCALE,
    s1=st.floats(0.01, 1.0),
    s2=st.floats(0.01, 1.0),
    t1=st.floats(0.01, 1.0),
    t2=st.floats(0.01, 1.0),
)
@settings(max_examples=80, deadline=None)
def test_fbs_cov_self_similarity(h1, h2, c1, c2, s1, s2, t1, t2):
    pair = HurstPair(h1, h2)
    s = np.array([s1, s2])
    t = np.array([t1, t2])
    c = np.array([c1, c2])
    scaled = _sheet_cov(pair, c * s, c * t)
    factor = c1 ** (2 * h1) * c2 ** (2 * h2)
    assert scaled == pytest.approx(factor * _sheet_cov(pair, s, t), rel=1e-10, abs=1e-12)


def test_fbs_gram_psd_on_random_grids(rng):
    hs = np.arange(0.1, 1.0, 0.1)
    for h1, h2 in itertools.product(hs, hs):
        t1 = np.sort(rng.random(5)) * 0.99 + 0.01
        t2 = np.sort(rng.random(5)) * 0.99 + 0.01
        gram = fbs_cov_matrix(HurstPair(h1, h2), t1, t2)
        assert np.allclose(gram, gram.T)
        assert np.linalg.eigvalsh(gram).min() >= -1e-10


def test_kron_factorization_equals_dense_factorization():
    # chol(C1 (x) C2) == chol(C1) (x) chol(C2), so the tensor sampler and a
    # dense sampler of the raveled grid draw from the same law
    t1 = np.array([0.25, 0.5, 1.0])
    t2 = np.array([0.5, 0.75, 1.0])
    pair = HurstPair(0.3, 0.8)
    l1 = _cholesky_with_jitter(fbm_cov(pair.h1, t1[:, None], t1[None, :]))
    l2 = _cholesky_with_jitter(fbm_cov(pair.h2, t2[:, None], t2[None, :]))
    dense = _cholesky_with_jitter(fbs_cov_matrix(pair, t1, t2))
    assert np.allclose(np.kron(l1, l2), dense, atol=1e-10)


def test_sampler_empirical_covariance():
    pair = HurstPair(0.3, 0.75)
    t = (0.25, 0.5, 0.75, 1.0)
    rng = replicate_generator("fb5", 0)
    vals = sample_fbs(pair, t, t, rng, size=10_000).reshape(10_000, -1)
    emp = np.cov(vals.T)
    target = fbs_cov_matrix(pair, t, t)
    se = np.sqrt((target**2 + np.outer(np.diag(target), np.diag(target))) / vals.shape[0])
    assert np.all(np.abs(emp - target) <= 3.5 * se)


def test_sampler_single_point_is_standard_normal():
    rng = replicate_generator("fb5", 1)
    vals = sample_fbs(HurstPair(0.4, 0.6), (1.0,), (1.0,), rng, size=10_000).ravel()
    stat, p = ks_normal(vals, 1.0)
    assert p > 0.01, (stat, p)


def test_brownian_sheet_disjoint_increments_uncorrelated():
    rng = replicate_generator("fb5", 2)
    t = (0.25, 0.5, 0.75, 1.0)
    vals = sample_fbs(HurstPair(0.5, 0.5), t, t, rng, size=8000)
    # rectangle increments over ((0,.25],(0,.25]] and ((.5,1],(.5,1]]
    inc1 = vals[:, 0, 0]
    inc2 = vals[:, 3, 3] - vals[:, 1, 3] - vals[:, 3, 1] + vals[:, 1, 1]
    r = np.corrcoef(inc1, inc2)[0, 1]
    assert abs(r) < 3 / math.sqrt(vals.shape[0])


def test_sampler_grid_budget():
    rng = replicate_generator("fb5", 3)
    with pytest.raises(ValueError):
        sample_fbs(HurstPair(0.5, 0.5), np.linspace(0.01, 1, 65), np.linspace(0.01, 1, 65), rng)
