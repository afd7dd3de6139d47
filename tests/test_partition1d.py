"""Urn occupancy and forest component engines."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma

from partition_fields import (
    FinitePmf,
    ForestWindow,
    UrnPath,
    expected_occupancy,
    make_hs_pmf,
    make_karlin_pmf,
    occupancy,
    replicate_generator,
    sample_forest,
    sample_urn,
)
from partition_fields.distributions import PmfKind
from partition_fields.fields import Axis
from partition_fields.partition1d import roots_of, truncation_pair_bound

from conftest import running_parity_oracle, sample_hs_oracle


# ---------------------------------------------------------------------------
# urn paths and occupancy
# ---------------------------------------------------------------------------

def _parity_rows(path: UrnPath) -> np.ndarray:
    # per-box count parities after each draw: the urn axis's corner counts at every site
    n = len(path)
    axis = Axis(PmfKind.KARLIN_ZIPF, 0.5, n)
    return axis.corner_counts(path.inverse, path.classes.size, tuple(m / n for m in range(1, n + 1)))


def test_running_parity_hand_example():
    path = UrnPath.from_labels([3, 3, 5])
    assert _parity_rows(path).tolist() == [[1, 0], [0, 0], [0, 1]]


def test_single_draw():
    path = UrnPath.from_labels([42])
    occ = occupancy(path)
    assert occ.k_n == 1 and occ.k_odd == 1 and _parity_rows(path).tolist() == [[1]]


def test_occupancy_hand_counts():
    occ = occupancy(UrnPath.from_labels([3, 3, 5]))
    assert (occ.k_n, occ.k_n_r, occ.k_odd) == (2, {1: 1, 2: 1}, 1)
    occ4 = occupancy(UrnPath.from_labels([1, 1, 1, 1]))
    assert (occ4.k_n, occ4.k_odd) == (1, 0)


@given(st.lists(st.integers(1, 8), min_size=1, max_size=60))
@settings(max_examples=100, deadline=None)
def test_occupancy_mass_conservation_and_parity_oracle(labels):
    path = UrnPath.from_labels(labels)
    assert path.classes.tolist() == sorted(set(labels))
    assert np.array_equal(path.classes[path.inverse], path.labels)
    occ = occupancy(path)
    assert sum(r * c for r, c in occ.k_n_r.items()) == len(labels)
    assert sum(occ.k_n_r.values()) == occ.k_n
    assert occ.k_odd <= occ.k_n
    # draw m flips its own box's parity row entry and leaves the others
    rows = np.vstack([np.zeros(path.classes.size, np.int64), _parity_rows(path)])
    flipped = np.diff(rows, axis=0)
    assert np.array_equal(np.nonzero(flipped)[1], path.inverse)
    signs = flipped[np.arange(len(labels)), path.inverse]
    assert np.array_equal((signs + 1) // 2, running_parity_oracle(labels))


def test_sample_urn_statistics():
    pmf = make_karlin_pmf(0.6)
    rng = replicate_generator("ab01", 0)
    occ = occupancy(sample_urn(pmf, 10**5, [rng]))
    scale = (10**5) ** 0.6 * pmf.sv_constant
    assert occ.k_n / scale == pytest.approx(gamma(0.4), rel=0.10)
    assert occ.k_odd / occ.k_n == pytest.approx(2 ** (0.6 - 1), rel=0.05)


def test_occupancy_increment_scaling():
    # windows of the sample behave like fresh samples of the window length
    pmf = make_karlin_pmf(0.6)
    rng = replicate_generator("ab01", 1)
    path = sample_urn(pmf, 10**5, [rng])
    n = len(path)
    inc = occupancy(UrnPath.from_labels(path.labels[0, n // 4:3 * n // 4]))
    scale = n**0.6 * pmf.sv_constant
    assert inc.k_n / scale == pytest.approx(0.5**0.6 * gamma(0.4), rel=0.10)


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
    """Reference: the root of every window site, by pointer doubling."""
    offsets = np.arange(jumps.size)
    parent = np.where(offsets >= jumps, offsets - jumps, offsets)
    while not np.array_equal(parent[parent], parent):
        parent = parent[parent]
    return parent + lo + 1


def test_forced_chain_forest():
    w = ForestWindow(-10, 30, np.ones(40, dtype=np.int64))
    roots = roots_of(w, np.arange(1, 31))
    assert np.all(roots == -9)  # everything chains down to the window floor


def test_forced_isolated_forest():
    w = ForestWindow(-10, 30, np.full(40, 1000, dtype=np.int64))
    roots = roots_of(w, np.arange(1, 31))
    assert np.array_equal(roots, np.arange(1, 31))


def test_forest_window_rejects_bad_jumps():
    with pytest.raises(ValueError):
        ForestWindow(-10, 30, np.ones(39, dtype=np.int64))
    jumps = np.ones(40, dtype=np.int64)
    jumps[7] = 0  # a zero jump never leaves its site
    with pytest.raises(ValueError):
        ForestWindow(-10, 30, jumps)
    with pytest.raises(IndexError):
        roots_of(ForestWindow(-10, 30, np.ones(40, dtype=np.int64)), [-10])


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_roots_walk_matches_pointer_doubling(data):
    depth = data.draw(st.integers(1, 50))
    hi = data.draw(st.integers(0, 50))
    # jumps up to 100 send some lines out of the window from any site
    jumps = np.asarray(data.draw(st.lists(st.integers(1, 100), min_size=depth + hi, max_size=depth + hi)))
    query = np.asarray(data.draw(st.lists(st.integers(1 - depth, hi), max_size=40)), dtype=np.int64)
    expected = _doubling_roots(jumps, -depth)[query + depth - 1]
    assert np.array_equal(roots_of(ForestWindow(-depth, hi, jumps), query), expected)


@given(st.floats(0.05, 0.45), st.integers(1, 300), st.integers(0, 40), st.integers(1, 5), st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_lazy_walk_matches_dense_jumps(alpha, depth, hi, rows, seed):
    rngs = [replicate_generator(seed, r) for r in range(rows)]
    refs = [replicate_generator(seed, r) for r in range(rows)]
    idx = np.arange(1 - depth, hi + 1)  # every window site
    got = roots_of(sample_forest(make_hs_pmf(alpha), -depth, hi, rngs), idx)
    assert got.shape == (rows, idx.size)
    for row, rng, ref in zip(got, rngs, refs):
        dense = ForestWindow(-depth, hi, sample_hs_oracle(alpha, ref, depth + hi))
        assert np.array_equal(row, roots_of(dense, idx))
        assert rng.random() == ref.random()


@given(st.lists(st.integers(1, 12), min_size=5, max_size=80))
@settings(max_examples=100, deadline=None)
def test_forest_component_invariants(jump_list):
    w = hi = len(jump_list) // 2
    lo = hi - len(jump_list)
    window = ForestWindow(lo, hi, jump_list)
    idx = np.arange(lo + 1, hi + 1)
    roots = roots_of(window, idx)
    # canonical root is the smallest member of its class and is idempotent
    assert np.all(roots <= idx)
    assert np.array_equal(roots_of(window, roots), roots)
    # every in-window parent edge is honored
    parents = idx - window.jumps
    inside = parents > lo
    assert np.array_equal(roots_of(window, parents[inside]), roots[inside])


def test_sample_forest_validation_and_determinism():
    pmf = make_hs_pmf(0.25)
    with pytest.raises(ValueError):
        sample_forest(make_karlin_pmf(0.5), -10, 5, [replicate_generator("aa", 0)])
    with pytest.raises(ValueError):
        sample_forest(pmf, 0, 5, [replicate_generator("aa", 0)])
    w1 = sample_forest(pmf, -500, 100, [replicate_generator("aa", 1)])
    w2 = sample_forest(pmf, -500, 100, [replicate_generator("aa", 1)])
    sites = np.arange(-499, 101)
    assert np.array_equal(w1.jumps, w2.jumps)
    assert np.array_equal(roots_of(w1, sites), roots_of(w2, sites))


def test_truncation_bound_spec_point():
    bound = truncation_pair_bound(make_hs_pmf(0.25), -(10**5))
    assert 0 < bound < 1e-2


def test_adjacent_coalescence_against_line_walk_oracle():
    """P(sites 1,2 share a root) two ways: forest windows vs direct line walks."""
    alpha = 0.3
    pmf = make_hs_pmf(alpha)
    depth = 4000

    reps = 4000
    hits = 0
    for r in range(reps):
        w = sample_forest(pmf, -depth, 2, [replicate_generator("0b", r)])
        (roots,) = roots_of(w, np.array([1, 2]))
        hits += int(roots[0] == roots[1])
    p_forest = hits / reps

    # oracle: walk the two ancestral lines directly, meeting within depth
    rng = replicate_generator("0c", 0)
    meets = 0
    for _ in range(reps):
        a, b = 1, 2
        while a > -depth and b > -depth and a != b:
            if a > b:
                a -= int(pmf.sample(rng))
            else:
                b -= int(pmf.sample(rng))
        meets += int(a == b)
    p_oracle = meets / reps

    se = math.sqrt(p_forest * (1 - p_forest) / reps + p_oracle * (1 - p_oracle) / reps)
    assert abs(p_forest - p_oracle) < 3 * se + 1e-9, (p_forest, p_oracle)
