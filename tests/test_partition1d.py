"""Urn occupancy and forest component engines."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats as sps
from scipy.special import gamma

from partition_fields import (
    FinitePmf,
    UrnPath,
    expected_occupancy,
    make_hs_pmf,
    make_karlin_pmf,
    occupancy,
    replicate_generator,
    sample_urn,
)
from partition_fields.distributions import PmfKind, invert_hs_tail
from partition_fields.fields import Axis
from partition_fields.partition1d import hashed_jumps, roots_of, truncation_pair_bound
from partition_fields.seeding import spin_key

from conftest import roots_on_jumps, running_parity_oracle


# ---------------------------------------------------------------------------
# urn paths and occupancy
# ---------------------------------------------------------------------------

def _parity_rows(path: UrnPath) -> np.ndarray:
    # per-box count parities after each draw: the urn axis's corner counts at every site
    n = path.labels.size
    axis = Axis(PmfKind.KARLIN_ZIPF, 0.5, n)
    return axis.corner_counts(path.inverse, path.classes.size, tuple(m / n for m in range(1, n + 1)))


def test_running_parity_hand_example():
    path = UrnPath.from_labels([3, 3, 5])
    assert _parity_rows(path).tolist() == [[1, 0], [0, 0], [0, 1]]


def test_single_draw():
    path = UrnPath.from_labels([42])
    assert occupancy(path) == (1, 1) and _parity_rows(path).tolist() == [[1]]


def test_occupancy_hand_counts():
    assert occupancy(UrnPath.from_labels([3, 3, 5])) == (2, 1)
    assert occupancy(UrnPath.from_labels([1, 1, 1, 1])) == (1, 0)


@given(st.lists(st.integers(1, 8), min_size=1, max_size=60))
@settings(max_examples=100, deadline=None)
def test_occupancy_mass_conservation_and_parity_oracle(labels):
    path = UrnPath.from_labels(labels)
    assert path.classes.tolist() == sorted(set(labels))
    assert np.array_equal(path.classes[path.inverse], path.labels)
    # draw m flips its own box's parity row entry and leaves the others
    rows = np.vstack([np.zeros(path.classes.size, np.int64), _parity_rows(path)])
    flipped = np.diff(rows, axis=0)
    assert np.array_equal(np.nonzero(flipped)[1], path.inverse)
    signs = flipped[np.arange(len(labels)), path.inverse]
    assert np.array_equal((signs + 1) // 2, running_parity_oracle(labels))


@given(hnp.arrays(np.int64, st.tuples(st.integers(1, 4), st.integers(1, 40)), elements=st.integers(1, 8)))
@settings(max_examples=100, deadline=None)
def test_occupancy_matches_counter(ids):
    # a multi-row path keeps each row's boxes apart, so its counts add up over rows
    for labels in (ids[0], ids):
        counts = [Counter(row.tolist()) for row in np.atleast_2d(labels)]
        expected = (sum(map(len, counts)), sum(c % 2 for row in counts for c in row.values()))
        assert occupancy(UrnPath.from_labels(labels)) == expected


def test_sample_urn_statistics():
    pmf = make_karlin_pmf(0.6)
    rng = replicate_generator("ab01", 0)
    k_n, k_odd = occupancy(sample_urn(pmf, 10**5, [rng]))
    scale = (10**5) ** 0.6 * pmf.sv_constant
    assert k_n / scale == pytest.approx(gamma(0.4), rel=0.10)
    assert k_odd / k_n == pytest.approx(2 ** (0.6 - 1), rel=0.05)


def test_occupancy_increment_scaling():
    # windows of the sample behave like fresh samples of the window length
    pmf = make_karlin_pmf(0.6)
    rng = replicate_generator("ab01", 1)
    path = sample_urn(pmf, 10**5, [rng])
    n = path.labels.size
    k_n, _ = occupancy(UrnPath.from_labels(path.labels[0, n // 4:3 * n // 4]))
    scale = n**0.6 * pmf.sv_constant
    assert k_n / scale == pytest.approx(0.5**0.6 * gamma(0.4), rel=0.10)


# ---------------------------------------------------------------------------
# expected occupancy
# ---------------------------------------------------------------------------

def test_expected_occupancy_single_draw():
    assert expected_occupancy(make_karlin_pmf(0.5), 1) == pytest.approx((1.0, 1.0), abs=1e-9)


def test_expected_occupancy_two_point_pmf():
    phi, odd = expected_occupancy(FinitePmf((0.5, 0.5)), 2)
    assert phi == pytest.approx(1.5, abs=1e-12)
    # each box is odd iff exactly one of two draws lands in it: p = 1/2 each
    assert odd == pytest.approx(1.0, abs=1e-12)


def test_expected_occupancy_finite_oracle():
    # brute force over all label sequences of length 3 from a 3-point pmf
    probs = (0.5, 0.3, 0.2)
    n = 3
    phi_brute = 0.0
    odd_brute = 0.0
    for a in range(3):
        for b in range(3):
            for c in range(3):
                w = probs[a] * probs[b] * probs[c]
                counts = np.bincount([a, b, c], minlength=3)
                phi_brute += w * np.count_nonzero(counts)
                odd_brute += w * np.count_nonzero(counts % 2)
    phi, odd = expected_occupancy(FinitePmf(probs), n)
    assert phi == pytest.approx(phi_brute, abs=1e-12)
    assert odd == pytest.approx(odd_brute, abs=1e-12)


def test_expected_occupancy_asymptotics():
    pmf = make_karlin_pmf(0.6)
    phi, odd = expected_occupancy(pmf, 10**4)
    scale = (10**4) ** 0.6 * pmf.sv_constant * gamma(0.4)
    assert 0.9 < phi / scale < 1.1
    assert 0.9 < odd / (scale * 2 ** (0.6 - 1)) < 1.1


def test_expected_occupancy_rejects_bad_n():
    with pytest.raises(ValueError):
        expected_occupancy(make_karlin_pmf(0.5), 0)


# ---------------------------------------------------------------------------
# ancestral forest
# ---------------------------------------------------------------------------

def _doubling_roots(jumps: np.ndarray, lo: int) -> np.ndarray:
    """Reference: the root of every site of the window (lo, hi], by pointer doubling."""
    offsets = np.arange(jumps.size)
    parent = np.where(offsets >= jumps, offsets - jumps, offsets)
    while not np.array_equal(parent[parent], parent):
        parent = parent[parent]
    return parent + lo + 1


def test_forced_chain_forest():
    roots = roots_on_jumps(np.ones(40, dtype=np.int64), -10, np.arange(1, 31))
    assert np.all(roots == -9)  # everything chains down to the floor


def test_forced_isolated_forest():
    roots = roots_on_jumps(np.full(40, 1000, dtype=np.int64), -10, np.arange(1, 31))
    assert np.array_equal(roots, np.arange(1, 31))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_roots_walk_matches_pointer_doubling(data):
    depth = data.draw(st.integers(1, 50))
    hi = data.draw(st.integers(0, 50))
    # jumps up to 100 send some lines below the floor from any site
    jumps = np.asarray(data.draw(st.lists(st.integers(1, 100), min_size=depth + hi, max_size=depth + hi)))
    query = np.asarray(data.draw(st.lists(st.integers(1 - depth, hi), max_size=40)), dtype=np.int64)
    expected = _doubling_roots(jumps, -depth)[query + depth - 1]
    assert np.array_equal(roots_on_jumps(jumps, -depth, query), expected)


@given(st.floats(0.05, 0.45), st.integers(1, 40), st.integers(1, 300), st.integers(1, 4), st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_lazy_walk_matches_dense_jumps(alpha, n, depth, rows, seed):
    # the walk against pointer doubling on the same hashed jumps, laid out densely
    keys = [spin_key(replicate_generator(seed, r)) for r in range(rows)]
    got = roots_of(alpha, keys, depth, np.arange(1, n + 1))
    assert got.shape == (rows, n)
    window = np.arange(1 - depth, n + 1)
    for row, key in zip(got, keys):
        dense = hashed_jumps(alpha, np.array(key, dtype=np.uint64), window)
        assert np.array_equal(row, _doubling_roots(dense, -depth)[depth:])


@given(st.lists(st.integers(1, 12), min_size=5, max_size=80))
@settings(max_examples=100, deadline=None)
def test_forest_component_invariants(jump_list):
    hi = len(jump_list) // 2
    lo = hi - len(jump_list)
    jumps = np.asarray(jump_list)
    idx = np.arange(lo + 1, hi + 1)
    roots = roots_on_jumps(jumps, lo, idx)
    # canonical root is the smallest member of its class and is idempotent
    assert np.all(roots <= idx)
    assert np.array_equal(roots_on_jumps(jumps, lo, roots), roots)
    # every parent edge above the floor is honored
    parents = idx - jumps
    inside = parents > lo
    assert np.array_equal(roots_on_jumps(jumps, lo, parents[inside]), roots[inside])


def test_forest_window_rejects_bad_jumps():
    # the walk reads no site at or below its floor
    keys = [spin_key(replicate_generator("aa", r)) for r in (1, 2)]
    with pytest.raises(IndexError):
        roots_of(0.25, keys, 10, [-10])  # at the floor
    with pytest.raises(IndexError):
        roots_of(0.25, keys, 10, np.arange(-12, 5))  # some sites below it
    # a zero jump would never leave its site: the hashed law yields none, even
    # at the extreme uniforms, and no jump passes the 2**62 cap
    for alpha in (0.05, 0.25, 0.45):
        edge = invert_hs_tail(alpha, np.array([0.0, 0.5, 1.0 - 2.0**-53]))
        assert np.all((edge >= 1) & (edge <= 2**62))
        jumps = hashed_jumps(alpha, np.array(keys[0], dtype=np.uint64), np.arange(-5000, 5000))
        assert np.all(jumps >= 1)


def test_sample_forest_validation_and_determinism():
    keys = [spin_key(replicate_generator("aa", r)) for r in (1, 2)]
    sites = np.arange(-499, 101)
    first = roots_of(0.25, keys, 500, sites)
    assert first.shape == (2, sites.size)
    assert np.array_equal(first, roots_of(0.25, keys, 500, sites))
    assert np.array_equal(first[1], roots_of(0.25, keys[1:], 500, sites)[0])  # a row reads its own key
    assert not np.array_equal(first[0], first[1])
    assert np.all(first <= sites)  # a root is the lowest site of its line


# ---------------------------------------------------------------------------
# the hashed jump law
# ---------------------------------------------------------------------------

_LAW_KEY = np.array([0x0123456789ABCDEF, 0xFEDCBA9876543210], dtype=np.uint64)
_LAW_SITES = np.arange(-(10**6) // 2, 10**6 // 2)  # negative and positive sites


@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.45])
def test_hashed_jumps_chi_square_goodness_of_fit(alpha):
    pmf = make_hs_pmf(alpha)
    draws = hashed_jumps(alpha, _LAW_KEY, _LAW_SITES)
    observed = np.concatenate((np.bincount(np.clip(draws, 0, 51), minlength=52)[1:51],
                               [np.sum(draws >= 51)]))
    expected = np.concatenate((pmf.pmf_block(1, 51), [pmf.tail_at(51)])) * draws.size
    stat = float(np.sum((observed - expected) ** 2 / expected))
    assert sps.chi2.sf(stat, df=50) > 1e-3


def test_hashed_jumps_replay_and_independence():
    alpha = 0.25
    sites = _LAW_SITES[::4]
    jumps = hashed_jumps(alpha, _LAW_KEY, sites)
    # the same (key, site) gives the same jump, in any order or batch
    assert np.array_equal(hashed_jumps(alpha, _LAW_KEY, sites[::-1]), jumps[::-1])
    assert np.array_equal(hashed_jumps(alpha, _LAW_KEY, sites[7:8]), jumps[7:8])
    keys = np.repeat(_LAW_KEY[None, :], sites.size, axis=0)
    assert np.array_equal(hashed_jumps(alpha, (keys[:, 0], keys[:, 1]), sites), jumps)
    # J >= 2 is uncorrelated between adjacent sites (i, i + 1) and between two
    # keys (one bit apart): |corr| within 4 standard errors of zero, 1/sqrt(m) each
    big = jumps >= 2
    band = 4 / math.sqrt(big.size)
    for pair in (hashed_jumps(alpha, _LAW_KEY, sites + 1), hashed_jumps(alpha, _LAW_KEY ^ np.uint64(1), sites)):
        assert abs(np.corrcoef(big, pair >= 2)[0, 1]) < band


def test_truncation_bound_spec_point():
    bound = truncation_pair_bound(make_hs_pmf(0.25), -(10**5))
    assert 0 < bound < 1e-2


def test_adjacent_coalescence_against_line_walk_oracle():
    """P(sites 1,2 share a root) two ways: the hashed forest walk vs direct line walks."""
    alpha = 0.3
    depth = 4000

    reps = 4000
    keys = [spin_key(replicate_generator("0b", r)) for r in range(reps)]
    roots = roots_of(alpha, keys, depth, np.array([1, 2]))
    p_forest = float(np.mean(roots[:, 0] == roots[:, 1]))

    # oracle: walk the two ancestral lines directly, meeting within depth
    rng = replicate_generator("0c", 0)
    meets = 0
    for _ in range(reps):
        a, b = 1, 2
        while a > -depth and b > -depth and a != b:
            if a > b:
                a -= int(invert_hs_tail(alpha, rng.random(1))[0])
            else:
                b -= int(invert_hs_tail(alpha, rng.random(1))[0])
        meets += int(a == b)
    p_oracle = meets / reps

    se = math.sqrt(p_forest * (1 - p_forest) / reps + p_oracle * (1 - p_oracle) / reps)
    assert abs(p_forest - p_oracle) < 3 * se + 1e-9, (p_forest, p_oracle)
