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
    occupancy_increment,
    replicate_generator,
    sample_forest,
    sample_urn,
)
from partition_fields.partition1d import roots_of, truncation_pair_bound


# ---------------------------------------------------------------------------
# urn paths and occupancy
# ---------------------------------------------------------------------------

def test_running_parity_hand_example():
    path = UrnPath.from_labels([3, 3, 5])
    assert path.running_parity.tolist() == [1, 0, 1]


def test_single_draw():
    path = UrnPath.from_labels([42])
    occ = occupancy(path)
    assert occ.k_n == 1 and occ.k_odd == 1 and path.running_parity.tolist() == [1]


def test_occupancy_hand_counts():
    occ = occupancy(UrnPath.from_labels([3, 3, 5]))
    assert (occ.k_n, occ.k_n_r, occ.k_odd) == (2, {1: 1, 2: 1}, 1)
    occ4 = occupancy(UrnPath.from_labels([1, 1, 1, 1]))
    assert (occ4.k_n, occ4.k_odd) == (1, 0)


def test_occupancy_increment():
    path = UrnPath.from_labels([3, 3, 5])
    assert occupancy_increment(path, 0, 2) == occupancy(UrnPath.from_labels([3, 3]))
    inc = occupancy_increment(path, 1, 3)
    assert (inc.k_n, inc.k_odd) == (2, 2)
    for bad in ((-1, 2), (2, 2), (0, 4)):
        with pytest.raises(IndexError):
            occupancy_increment(path, *bad)


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
    # dict-based one-pass oracle for the running parity
    seen: dict[int, int] = {}
    expected = []
    for lab in labels:
        seen[lab] = seen.get(lab, 0) + 1
        expected.append(seen[lab] % 2)
    assert path.running_parity.tolist() == expected


def test_sample_urn_statistics():
    pmf = make_karlin_pmf(0.6)
    rng = replicate_generator("ab01", 0)
    occ = occupancy(sample_urn(pmf, 10**5, rng))
    scale = (10**5) ** 0.6 * pmf.sv_constant
    assert occ.k_n / scale == pytest.approx(gamma(0.4), rel=0.10)
    assert occ.k_odd / occ.k_n == pytest.approx(2 ** (0.6 - 1), rel=0.05)


def test_occupancy_increment_scaling():
    # windows of the sample behave like fresh samples of the window length
    pmf = make_karlin_pmf(0.6)
    rng = replicate_generator("ab01", 1)
    path = sample_urn(pmf, 10**5, rng)
    n = len(path)
    inc = occupancy_increment(path, n // 4, 3 * n // 4)
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
        sample_forest(make_karlin_pmf(0.5), -10, 5, replicate_generator("aa", 0))
    with pytest.raises(ValueError):
        sample_forest(pmf, 0, 5, replicate_generator("aa", 0))
    w1 = sample_forest(pmf, -500, 100, replicate_generator("aa", 1))
    w2 = sample_forest(pmf, -500, 100, replicate_generator("aa", 1))
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
        w = sample_forest(pmf, -depth, 2, replicate_generator("0b", r))
        roots = roots_of(w, np.array([1, 2]))
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
