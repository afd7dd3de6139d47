"""Label/jump laws: exact accessors, exact samplers, marginal laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps
from scipy.special import zeta

from partition_fields import (
    FinitePmf,
    MarginalLaw,
    PmfKind,
    PowerLawPmf,
    make_hs_pmf,
    make_karlin_pmf,
    replicate_generator,
)
from partition_fields.distributions import MarginalKind, invert_hs_tail, sample_zipf_rows

from conftest import sample_zipf_oracle


# ---------------------------------------------------------------------------
# KarlinZipf
# ---------------------------------------------------------------------------

def test_karlin_pmf_alpha_half_values():
    pmf = make_karlin_pmf(0.5)
    zeta2 = math.pi**2 / 6
    assert pmf.pmf_at(1) == pytest.approx(1 / zeta2, abs=1e-12)
    assert pmf.pmf_at(2) == pytest.approx(0.25 / zeta2, abs=1e-12)
    assert pmf.sv_constant == pytest.approx(zeta2**-0.5, abs=1e-12)


def test_karlin_pmf_monotone_and_normalized():
    pmf = make_karlin_pmf(0.5)
    p = pmf.pmf_block(1, 10_001)
    assert np.all(np.diff(p) <= 0)
    total = p.sum() + pmf.tail_at(10_001)
    assert total == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5])
def test_karlin_pmf_domain(alpha):
    with pytest.raises(ValueError):
        make_karlin_pmf(alpha)


@pytest.mark.parametrize("make", [make_karlin_pmf, make_hs_pmf])
@pytest.mark.parametrize("alpha", ["0.25", True, False])
def test_pmf_rejects_string_and_boolean_alpha(make, alpha):
    with pytest.raises((TypeError, ValueError)):
        make(alpha)


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.6, 0.95])
def test_karlin_sv_constant_is_derived_from_alpha(alpha):
    # bitwise the Z**(-alpha) that the factory used to pass in
    pmf = PowerLawPmf(PmfKind.KARLIN_ZIPF, alpha)
    assert pmf.sv_constant == float(zeta(1.0 / alpha)) ** (-alpha)
    assert pmf == make_karlin_pmf(alpha)


@given(alpha=st.floats(0.1, 0.9), k=st.integers(1, 9_999))
@settings(max_examples=50, deadline=None)
def test_karlin_pmf_nonincreasing_property(alpha, k):
    pmf = make_karlin_pmf(alpha)
    assert pmf.pmf_at(k) >= pmf.pmf_at(k + 1)


def test_zipf_frequency_of_one():
    pmf = make_karlin_pmf(0.5)
    rng = replicate_generator("d157", 0)
    draws = pmf.sample(rng, 10**6)
    p1 = 6 / math.pi**2
    freq = np.mean(draws == 1)
    sigma = math.sqrt(p1 * (1 - p1) / draws.size)
    assert abs(freq - p1) < 3 * sigma


@pytest.mark.parametrize("alpha", [0.3, 0.6, 0.8])
def test_zipf_chi_square_goodness_of_fit(alpha):
    pmf = make_karlin_pmf(alpha)
    rng = replicate_generator("d157", 1)
    draws = pmf.sample(rng, 10**6)
    edges = np.arange(1, 52)
    observed = np.concatenate((np.bincount(np.clip(draws, 0, 51), minlength=52)[1:51],
                               [np.sum(draws >= 51)]))
    expected = np.concatenate((pmf.pmf_block(1, 51), [pmf.tail_at(51)])) * draws.size
    stat = float(np.sum((observed - expected) ** 2 / expected))
    p = sps.chi2.sf(stat, df=50)
    assert p > 1e-3, (stat, p)


# ---------------------------------------------------------------------------
# HsTail
# ---------------------------------------------------------------------------

def test_hs_pmf_values():
    pmf = make_hs_pmf(0.25)
    assert pmf.pmf_at(1) == pytest.approx(1 - 2**-0.25, abs=1e-12)
    assert pmf.tail_at(1) == 1.0
    assert pmf.tail_at(16) == pytest.approx(0.5, abs=1e-15)
    assert pmf.sv_constant == 1.0


def test_hs_tail_differences_are_pmf():
    pmf = make_hs_pmf(0.3)
    n = np.arange(1, 10_001)
    lhs = np.asarray(pmf.tail_at(n)) - np.asarray(pmf.tail_at(n + 1))
    assert np.max(np.abs(lhs - np.asarray(pmf.pmf_at(n)))) < 1e-14


@given(st.floats(0.05, 0.95), st.integers(0, 60), st.integers(1, 6), st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_zipf_rows_match_one_generator_sampler(alpha, m, rows, seed):
    rngs = [replicate_generator(seed, r) for r in range(rows)]
    refs = [replicate_generator(seed, r) for r in range(rows)]
    got = sample_zipf_rows(alpha, rngs, m)
    assert got.shape == (rows, m)
    for row, rng, ref in zip(got, rngs, refs):
        assert np.array_equal(row, sample_zipf_oracle(1.0 / alpha, ref, m))
        assert rng.random() == ref.random()  # each row read exactly its own generator's draws


@pytest.mark.parametrize("alpha", [0.0, 0.5, 0.7])
def test_hs_pmf_domain(alpha):
    with pytest.raises(ValueError):
        make_hs_pmf(alpha)


def test_hs_inversion_hand_values():
    # (1-0.5)^(-4) = 16 -> ceil - 1 = 15
    assert invert_hs_tail(0.25, np.full(3, 0.5)).tolist() == [15, 15, 15]
    # u -> 0 gives the smallest jump
    assert invert_hs_tail(0.25, np.zeros(1)).tolist() == [1]


def test_hs_sampler_matches_tail_law():
    pmf = make_hs_pmf(0.25)
    rng = replicate_generator("d157", 2)
    draws = pmf.sample(rng, 10**6)
    for n in (2, 10, 100):
        frac = np.mean(draws >= n)
        target = n**-0.25
        sigma = math.sqrt(target * (1 - target) / draws.size)
        assert abs(frac - target) < 4 * sigma


def test_hs_chi_square_goodness_of_fit():
    pmf = make_hs_pmf(0.4)
    rng = replicate_generator("d157", 3)
    draws = pmf.sample(rng, 10**6)
    observed = np.concatenate((np.bincount(np.clip(draws, 0, 51), minlength=52)[1:51],
                               [np.sum(draws >= 51)]))
    expected = np.concatenate((pmf.pmf_block(1, 51), [pmf.tail_at(51)])) * draws.size
    stat = float(np.sum((observed - expected) ** 2 / expected))
    assert sps.chi2.sf(stat, df=50) > 1e-3


# ---------------------------------------------------------------------------
# FinitePmf and marginals
# ---------------------------------------------------------------------------

def test_finite_pmf_accessors():
    pmf = FinitePmf((0.5, 0.5))
    assert pmf.pmf_at(1) == 0.5 and pmf.pmf_at(3) == 0.0
    assert pmf.tail_at(1) == 1.0 and pmf.tail_at(2) == 0.5 and pmf.tail_at(7) == 0.0
    assert pmf.tail_sq_at(1) == 0.5
    with pytest.raises(ValueError):
        FinitePmf((0.5, 0.6))


def test_marginal_law_validation_and_moments():
    with pytest.raises(ValueError):
        MarginalLaw.two_point(1.0, 1.0, 0.5)  # mean 1, not centered
    law = MarginalLaw.two_point(2.0, -1.0, 1.0 / 3.0)
    assert law.second_moment == pytest.approx(2.0)
    assert law.support_bound == 2.0
    assert MarginalLaw.scaled_sign(2.5).second_moment == pytest.approx(6.25)
    with pytest.raises(ValueError):
        MarginalLaw.scaled_sign(0.0)


@pytest.mark.parametrize("values", [
    (MarginalKind.RADEMACHER, 2.0, -2.0, 0.5),  # ±1 draws, second moment 4
    (MarginalKind.SCALED_SIGN, 2.0, -1.0, 1.0 / 3.0),  # echoed as scaled_sign c = 2
    (MarginalKind.SCALED_SIGN, -2.0, 2.0, 0.5),  # echoed as c = -2, which the config rejects
])
def test_marginal_kind_must_match_values(values):
    with pytest.raises(ValueError):
        MarginalLaw(*values)


@pytest.mark.parametrize("make, args", [
    (MarginalLaw.two_point, (math.nan, -1.0, 0.5)),  # the centring check is false on a NaN mean
    (MarginalLaw.two_point, (2.0, math.nan, 0.5)),
    (MarginalLaw.two_point, (math.inf, -1.0, 0.5)),  # |mean| = inf is not above 1e-12 * inf
    (MarginalLaw.scaled_sign, (math.inf,)),
])
def test_marginal_law_rejects_non_finite_values(make, args):
    with pytest.raises(ValueError, match="finite"):
        make(*args)


@pytest.mark.parametrize(
    "law",
    [MarginalLaw.rademacher(), MarginalLaw.scaled_sign(3.0), MarginalLaw.two_point(2.0, -1.0, 1.0 / 3.0)],
)
def test_marginal_law_empirical_mean(law):
    from partition_fields._hashing import hash1

    draws = law.draw_from_hash(hash1((0xD157, 4), np.arange(10**6, dtype=np.int64)))
    assert set(np.unique(draws)) <= {law.value_a, law.value_b}
    assert abs(draws.mean()) < 4 / math.sqrt(draws.size) * law.support_bound


def test_marginal_hash_draws_match_law():
    from partition_fields._hashing import hash1

    law = MarginalLaw.two_point(2.0, -1.0, 1.0 / 3.0)
    h = hash1((1, 2), np.arange(1, 200_001, dtype=np.int64))
    vals = law.draw_from_hash(h)
    assert abs(np.mean(vals == 2.0) - 1 / 3) < 0.005
    sym = law.draw_symmetrized_from_hash(h)
    assert set(np.unique(np.abs(sym))) == {1.0, 2.0}
    assert abs(sym.mean()) < 4 / math.sqrt(sym.size) * 2.0


def test_power_law_pmf_is_hashable_and_frozen():
    a = make_karlin_pmf(0.5)
    assert a == make_karlin_pmf(0.5)
    assert hash(a) == hash(make_karlin_pmf(0.5))
    assert a.kind is PmfKind.KARLIN_ZIPF
