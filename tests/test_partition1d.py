"""Urn occupancy and forest component engines.

The urn's label path (``conftest.sample_urn``: n labels, sorted into boxes)
is the reference for the box-count path ``urn_patterns``, and the boxes
with their parities (``conftest.urn_counts_oracle``) for its grouping.
"""

import math
from collections import Counter
from itertools import groupby

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats as sps
from scipy.special import gamma

from partition_fields import (
    FinitePmf,
    expected_occupancy,
    make_hs_pmf,
    make_karlin_pmf,
    replicate_generator,
)
from partition_fields.distributions import PmfKind, invert_hs_tail, sample_zipf_rows
from partition_fields.fields import Axis
from partition_fields import partition1d
from partition_fields.partition1d import (
    hashed_jumps,
    roots_of,
    urn_boxes,
    urn_head_size,
    urn_patterns,
)
from partition_fields.seeding import spin_key

from conftest import (
    UrnPath,
    corner_counts,
    expected_occupancy_oracle,
    group_by_column,
    occupancy,
    roots_on_jumps,
    running_parity_oracle,
    sample_urn,
    urn_counts_oracle,
    urn_layout,
    walk_roots_oracle,
)


# ---------------------------------------------------------------------------
# urn paths and occupancy
# ---------------------------------------------------------------------------

def _parity_rows(path: UrnPath) -> np.ndarray:
    # per-box count parities after each draw: the urn's corner counts with a corner at every draw
    n = path.labels.size
    order = np.argsort(path.labels, kind="stable")  # draw i is first counted at corner i
    classes, counts, starts = corner_counts(np.zeros(n, np.int64), path.labels[order], order, 1, n)
    assert np.array_equal(classes, path.classes) and starts.tolist() == [0, classes.size]
    return counts & 1


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
# urn box counts per corner segment
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha, n, head", [
    (0.6, 1, 0), (0.6, 3, 1), (0.6, 1000, 40), (0.6, 1024, 40),
    (0.3, 500, 6), (0.9, 1000, 65), (0.6, 10**6, 2533),
])
def test_urn_head_size_pins(alpha, n, head):
    assert urn_head_size(alpha, n) == head
    pmf = make_karlin_pmf(alpha)
    # L is the last box that n draws are expected to reach at least once
    assert head == 0 or n * pmf.pmf_at(head) >= 1.0
    assert n * pmf.pmf_at(head + 1) < 1.0


@pytest.mark.parametrize("alpha", [0.3, 0.6, 0.9])
def test_conditioned_tail_chi_square_goodness_of_fit(alpha):
    # the draws above the head, k >= L + 1, against p_k / tail(L + 1)
    pmf = make_karlin_pmf(alpha)
    lo = urn_head_size(alpha, 1000) + 1
    draws = sample_zipf_rows(alpha, [replicate_generator("7a11", 0)], [10**6], lo=lo)
    assert draws.min() >= lo
    observed = np.bincount(np.minimum(draws - lo, 50), minlength=51)  # the last bin is k >= lo + 50
    expected = np.concatenate((pmf.pmf_block(lo, lo + 50), [pmf.tail_at(lo + 50)])) / pmf.tail_at(lo)
    stat = float(np.sum((observed - expected * draws.size) ** 2 / (expected * draws.size)))
    assert sps.chi2.sf(stat, df=50) > 1e-3, stat


def _two_sample_p(a: np.ndarray, b: np.ndarray) -> float:
    """Chi-square two-sample test of two integer samples; adjacent values pooled to 20 or more."""
    values = np.union1d(a, b)
    table = np.array([[np.sum(x == v) for v in values] for x in (a, b)])
    bins, acc = [], np.zeros(2, dtype=np.int64)
    for column in table.T:
        acc = acc + column
        if acc.sum() >= 20:
            bins.append(acc)
            acc = np.zeros(2, dtype=np.int64)
    if acc.sum():
        bins[-1:] = [bins[-1] + acc] if bins else [acc]
    if len(bins) < 2:
        return 1.0
    return float(sps.chi2_contingency(np.array(bins).T, correction=False).pvalue)


# a zero-length segment (0.3 and 0.3001 share their floor at every n here) and a last corner below 1
_SEGMENT_TS = (0.3, 0.3001, 0.75)


def _corners(n: int) -> np.ndarray:
    return np.array([math.floor(n * t) for t in _SEGMENT_TS], dtype=np.int64)


def _per_row(boxes, weights) -> np.ndarray:
    """Each row's sum over its patterns of the weights (one row of weights per corner, or one)."""
    owner = np.repeat(np.arange(boxes.starts.size - 1), np.diff(boxes.starts))
    return np.stack([np.bincount(owner, weights=w, minlength=boxes.starts.size - 1) for w in np.atleast_2d(weights)])


@pytest.mark.parametrize("n", [1, 7, 64, 1024])
def test_box_counts_match_the_label_oracle(n):
    # per corner: odd boxes from one call on the whole grid, distinct boxes from
    # a call on the grid cut at that corner
    alpha, reps = 0.6, 2000
    corners = _corners(n)
    assert corners[0] == corners[1] and corners[-1] < n
    boxes = urn_patterns(alpha, n, corners, [replicate_generator("c0", r) for r in range(reps)])
    odd = _per_row(boxes, boxes.counts * boxes.sizes)
    distinct = np.stack([
        np.bincount(urn_boxes(alpha, n, corners[: m + 1], [replicate_generator("c1", r) for r in range(reps)])[0],
                    minlength=reps)
        for m in range(corners.size)
    ])

    gens = [replicate_generator("0c", r) for r in range(reps)]
    labels = sample_zipf_rows(alpha, gens, [int(corners[-1])] * reps).reshape(reps, -1)
    _, ref_parity, ref_starts = urn_layout(labels, corners)
    ref_owner = np.repeat(np.arange(reps), np.diff(ref_starts))
    ref_odd = np.stack([np.bincount(ref_owner, weights=row, minlength=reps) for row in ref_parity])
    ref_distinct = np.stack([[np.unique(row[:c]).size for row in labels] for c in corners.tolist()])

    for m in range(corners.size):
        assert _two_sample_p(odd[m], ref_odd[m]) > 1e-3, ("odd", n, m)
        assert _two_sample_p(distinct[m], ref_distinct[m]) > 1e-3, ("distinct", n, m)


@pytest.mark.parametrize("n", [7, 64, 1024])
def test_mean_odd_boxes_match_expected_occupancy(n):
    alpha, reps = 0.6, 4000
    corners = _corners(n)
    boxes = urn_patterns(alpha, n, corners, [replicate_generator("e0", r) for r in range(reps)])
    for c, odd in zip(corners.tolist(), _per_row(boxes, boxes.counts * boxes.sizes)):
        want = expected_occupancy(make_karlin_pmf(alpha), c) if c else 0.0
        se = odd.std(ddof=1) / math.sqrt(reps)
        assert abs(odd.mean() - want) <= 4 * se, (n, c, odd.mean(), want, se)


def test_box_counts_layout_and_empty_segments():
    rngs = [replicate_generator("1a", r) for r in range(5)]
    boxes = urn_patterns(0.6, 50, [0, 10, 10, 30], rngs)
    assert all(part.dtype == np.int64 for part in boxes)
    assert boxes.counts.shape == (4, boxes.ids.size) and boxes.sizes.shape == boxes.ids.shape
    assert boxes.starts[0] == 0 and boxes.starts[-1] == boxes.ids.size and np.all(np.diff(boxes.starts) >= 1)
    # nothing below corner 0, nothing added between two equal corners
    assert not boxes.counts[0].any() and np.array_equal(boxes.counts[1], boxes.counts[2])
    assert np.all(boxes.sizes >= 1) and set(np.unique(boxes.counts)) <= {0, 1}
    assert boxes.counts.any(axis=0).all()  # no pattern of code 0: even at every corner
    rows, codes = urn_boxes(0.6, 50, [0, 10, 10, 30], [replicate_generator("1a", r) for r in range(5)])
    assert boxes.sizes.sum() == codes.any(axis=0).sum() and np.array_equal(np.bincount(rows, minlength=5) >= 1,
                                                                               np.ones(5, dtype=bool))
    for b in range(5):
        row = slice(boxes.starts[b], boxes.starts[b + 1])
        assert boxes.ids[row].tolist() == list(range(row.stop - row.start))
        codes = (boxes.counts[:, row] << np.arange(4)[:, None]).sum(axis=0)
        assert np.all(np.diff(codes) > 0)  # one pattern per code, in increasing code order
    # a grid whose last corner is 0 draws nothing
    fresh = [replicate_generator("1b", r) for r in range(2)]
    boxes = urn_patterns(0.6, 50, [0], fresh)
    assert boxes.ids.size == 0 and boxes.counts.shape == (1, 0) and boxes.starts.tolist() == [0] * 3
    assert urn_boxes(0.6, 50, [0], [replicate_generator("1b", 0)])[1].shape == (1, 0)
    assert [rng.random() for rng in fresh] == [replicate_generator("1b", r).random() for r in range(2)]


@pytest.mark.parametrize("lengths", [[1000], [0, 250, 0, 500, 250], [3, 0, 0, 7], [256] * 4, [0, 0, 7, 7, 7, 3]],
                         ids=["one", "zeros", "short", "equal", "runs"])
def test_int_n_multinomials_match_one_array_n_call(lengths):
    # what urn_patterns relies on: one int-n call per segment, or one size=k call per run of
    # k equal lengths, draws what one call over the lengths draws, and leaves the generator
    # at the same place
    pvals = partition1d._head_pvals(0.6, 1000)
    for r in range(200):
        gen, runs, ref = (replicate_generator("3d", r) for _ in range(3))
        got = np.stack([gen.multinomial(m, pvals) for m in lengths])
        by_run = np.concatenate([runs.multinomial(m, pvals, size=len(list(k))) for m, k in groupby(lengths)])
        want = ref.multinomial(np.array(lengths), pvals)
        assert np.array_equal(got, want) and np.array_equal(by_run, want)
        assert gen.random() == runs.random() == ref.random()


@given(st.sampled_from([0.2, 0.6, 0.9]), st.integers(1, 300),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5), st.integers(1, 12), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
@example(0.6, 1024, [0.25, 0.5, 0.75, 1.0], 30, 5)  # one run of equal segments
@example(0.6, 100, [0.0, 0.0, 0.07, 0.14, 0.21, 0.24], 30, 6)  # runs of empty, equal and lone segments
def test_urn_counts_match_the_old_path(alpha, n, ts, rows, seed):
    # the pattern table is the old path's boxes grouped by parity column, on the same
    # generators, which end in the same place; corners may repeat (zero-length
    # segments) and start at 0
    corners = np.sort([math.floor(n * t) for t in ts])
    gens = [replicate_generator(seed, r) for r in range(rows)]
    refs = [replicate_generator(seed, r) for r in range(rows)]
    _, parity, starts = urn_counts_oracle(alpha, n, corners, refs)
    got, want = urn_patterns(alpha, n, corners, gens), group_by_column(parity, starts)
    assert all(g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(got, want))
    assert [gen.random() for gen in gens] == [ref.random() for ref in refs]


@pytest.mark.parametrize("seed", range(5))
def test_urn_patterns_past_64_corners(seed):
    # 70 corners: two code words per box, compared from the last
    n, corners = 300, np.array([math.floor(300 * m / 70) for m in range(1, 71)])
    _, parity, starts = urn_counts_oracle(0.9, n, corners, [replicate_generator(seed, r) for r in range(20)])
    got = urn_patterns(0.9, n, corners, [replicate_generator(seed, r) for r in range(20)])
    assert all(np.array_equal(g, w) for g, w in zip(got, group_by_column(parity, starts)))
    assert got.counts.shape[0] == 70 and got.ids.size > got.starts.size  # some rows hold several patterns


@given(st.lists(st.tuples(st.integers(0, 5), st.sampled_from([1, 2, 3, 2**62 - 2, 2**62 - 1])), max_size=40))
@settings(max_examples=100, deadline=None)
def test_row_label_order_is_lexsort(entries):
    # rows sorted, labels with ties, none at all, and labels near 2**62
    rows = np.array(sorted(r for r, _ in entries), dtype=np.int64)
    labels = np.array([lab for _, lab in entries], dtype=np.int64)
    order = partition1d._row_label_order(rows, labels)
    assert np.array_equal(order, np.lexsort((labels, rows)))


# ---------------------------------------------------------------------------
# expected occupancy
# ---------------------------------------------------------------------------

def test_expected_occupancy_single_draw():
    # one draw lands in one box, an odd one
    assert expected_occupancy(make_karlin_pmf(0.5), 1) == pytest.approx(1.0, abs=1e-9)


def test_expected_occupancy_two_point_pmf():
    phi, odd = expected_occupancy_oracle(FinitePmf((0.5, 0.5)), 2)
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
    phi, odd = expected_occupancy_oracle(FinitePmf(probs), n)
    assert phi == pytest.approx(phi_brute, abs=1e-12)
    assert odd == pytest.approx(odd_brute, abs=1e-12)


def test_expected_occupancy_asymptotics():
    pmf = make_karlin_pmf(0.6)
    odd = expected_occupancy(pmf, 10**4)
    scale = (10**4) ** 0.6 * pmf.sv_constant * gamma(0.4)
    assert 0.9 < odd / (scale * 2 ** (0.6 - 1)) < 1.1


def test_expected_occupancy_rejects_bad_n():
    with pytest.raises(ValueError):
        expected_occupancy(make_karlin_pmf(0.5), 0)
    for pmf in (FinitePmf((0.5, 0.5)), make_hs_pmf(0.25)):
        with pytest.raises(ValueError, match="KarlinZipf"):
            expected_occupancy(pmf, 2)


@pytest.mark.parametrize("alpha, n", [(0.01, 100), (0.1, 10**5), (0.3, 100), (0.5, 1), (0.6, 7), (0.6, 32), (0.6, 1024)])
def test_expected_occupancy_matches_box_by_box_oracle(alpha, n):
    # (0.3, 100) and (0.1, 10^5) put boxes with p >= 1/4 in the head; n = 1 gives (1, 1);
    # at alpha = 0.01, p_1 rounds to 1 and w = c L^-s underflows to 0
    pmf = make_karlin_pmf(alpha)
    got, want = expected_occupancy(pmf, n), expected_occupancy_oracle(pmf, n)[1]
    assert got == pytest.approx(want, rel=1e-11)


@pytest.mark.parametrize("alpha, n, odd", [
    (0.7, 10**4, 720.30044489349665564),
    (0.6, 10**6, 4259.132637229176556),
    (0.9, 10**6, 291604.60827180840316),
    (0.99, 10**8, 86364820.965781333827),
])
def test_expected_occupancy_where_the_box_sum_gives_up(alpha, n, odd):
    # the box-by-box sum needs more than 2^28 boxes here.  The recorded values
    # are mpmath at 40 digits (the head box by box, the incomplete-beta tail
    # and five Euler-Maclaurin terms) and agree with an 8-digit quadrature of
    # the tail; scipy.special.beta(1 - alpha, n) alone is off by about 1e-9
    # relative at n = 10^6
    assert expected_occupancy(make_karlin_pmf(alpha), n) == pytest.approx(odd, rel=1e-13)


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
    got, = roots_of([(alpha, keys, depth, n)])
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
    keys = [spin_key(replicate_generator("aa", r)) for r in (1, 2)]
    # a zero jump would never leave its site: the hashed law yields none, even
    # at the extreme uniforms, and no jump passes the 2**62 cap
    for alpha in (0.05, 0.25, 0.45):
        edge = invert_hs_tail(alpha, np.array([0.0, 0.5, 1.0 - 2.0**-53]))
        assert np.all((edge >= 1) & (edge <= 2**62))
        jumps = hashed_jumps(alpha, np.array(keys[0], dtype=np.uint64), np.arange(-5000, 5000))
        assert np.all(jumps >= 1)


def test_sample_forest_validation_and_determinism():
    keys = [spin_key(replicate_generator("aa", r)) for r in (1, 2)]
    first, = roots_of([(0.25, keys, 500, 600)])
    assert first.shape == (2, 600) and first.dtype == np.int64
    assert np.array_equal(first, roots_of([(0.25, keys, 500, 600)])[0])
    assert np.array_equal(first[1], roots_of([(0.25, keys[1:], 500, 600)])[0][0])  # a row reads its own key
    assert not np.array_equal(first[0], first[1])
    # a root is the lowest site of its line, above the floor
    assert np.all(first <= np.arange(1, 601)) and np.all(first > -500)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_roots_of_matches_every_line_walk(data):
    # the lines of 1..n join one another and exit below 1, floors near and far
    alpha = data.draw(st.floats(0.05, 0.49))
    rows = data.draw(st.integers(1, 4))
    depth = data.draw(st.integers(1, 10**4))
    n = data.draw(st.integers(1, 300))
    seed = data.draw(st.integers(0, 2**32))
    keys = [spin_key(replicate_generator(seed, r)) for r in range(rows)]
    got, = roots_of([(alpha, keys, depth, n)])
    assert got.shape == (rows, n)
    assert np.array_equal(got, walk_roots_oracle(alpha, keys, depth, np.arange(1, n + 1)))


@st.composite
def _walks(draw):
    """One to three walks of any alpha, depth, row count and n."""
    walks = []
    for _ in range(draw(st.integers(1, 3))):
        # near 0, x = (1 - u)^(-1/alpha) often passes the float range; at 0.49 lines are long
        alpha = draw(st.sampled_from([0.003, 0.03, 0.25, 0.49]) | st.floats(0.003, 0.49))
        # lines walk far to a floor of 10^7; at small alpha many jumps reach the 2^62 cap
        depth = draw(st.sampled_from([1, 10**7]) | st.integers(1, 60))
        n = draw(st.sampled_from([0, 1]) | st.integers(0, 80))
        seed = draw(st.integers(0, 2**32))
        keys = [spin_key(replicate_generator(seed, r)) for r in range(draw(st.integers(0, 3)))]
        walks.append((alpha, keys, depth, n))
    return walks


def _walk(alpha, seed, rows, depth, n):
    return alpha, [spin_key(replicate_generator(seed, r)) for r in range(rows)], depth, n


@given(_walks())
@settings(max_examples=60, deadline=None)
# long lines to a deep floor beside lines whose jumps reach the 2^62 cap; no site, one site, no row
@example([_walk(0.49, 1, 2, 10**7, 30), _walk(0.003, 2, 3, 10**7, 50)])
@example([_walk(0.25, 3, 2, 1, 0), _walk(0.25, 4, 1, 10**7, 1), _walk(0.45, 5, 0, 20, 7)])
def test_roots_of_many_walks_match_every_line_walk(walks):
    # one exit-line loop over lines of every walk, each with its own exponent and floor
    got = roots_of(walks)
    assert len(got) == len(walks)
    for roots, (alpha, keys, depth, n) in zip(got, walks):
        assert roots.shape == (len(keys), n) and roots.dtype == np.int64
        assert np.array_equal(roots, walk_roots_oracle(alpha, keys, depth, np.arange(1, n + 1)))
    # one call on the walks returns what one call per walk returns
    for roots, walk in zip(got, walks):
        assert np.array_equal(roots, roots_of([walk])[0])


def test_roots_of_the_deepest_floors_and_none():
    keys = [spin_key(replicate_generator("aa", r)) for r in (1, 2)]
    assert roots_of([]) == []
    # tiny alpha at the deepest floor the float64 walk holds exactly, beside a long line
    walks = [(0.02, keys, 1 << 53, 40), (0.45, keys[:1], 10**6, 3)]
    for roots, (alpha, k, depth, n) in zip(roots_of(walks), walks):
        assert np.array_equal(roots, walk_roots_oracle(alpha, k, depth, np.arange(1, n + 1)))
    with pytest.raises(ValueError, match="2\\^53"):
        roots_of([(0.25, keys, (1 << 53) + 1, 4)])


@given(st.floats(0.05, 0.49), st.integers(1, 3), st.integers(1, 10**4), st.integers(0, 120), st.integers(0, 2**32))
@settings(max_examples=50, deadline=None)
def test_roots_of_a_prefix_of_sites_are_their_roots_among_more(alpha, rows, depth, n, seed):
    # a site's root is the lowest site on its own line, whichever other sites are asked for
    keys = [spin_key(replicate_generator(seed, r)) for r in range(rows)]
    whole, = roots_of([(alpha, keys, depth, n)])
    for m in range(n + 1):
        assert np.array_equal(whole[:, :m], roots_of([(alpha, keys, depth, m)])[0])


def test_roots_of_edge_cases():
    keys = [spin_key(replicate_generator("aa", r)) for r in (1, 2, 3)]
    # no site: one empty row per key
    empty, = roots_of([(0.25, keys, 10, 0)])
    assert empty.shape == (3, 0) and empty.dtype == np.int64
    assert roots_on_jumps(np.ones(20, dtype=np.int64), -10, np.array([], dtype=np.int64)).shape == (0,)
    # a single site walks its line alone
    assert roots_on_jumps(np.ones(20, dtype=np.int64), -10, np.array([5])).tolist() == [-9]
    assert np.array_equal(roots_of([(0.45, keys, 1000, 1)])[0], walk_roots_oracle(0.45, keys, 1000, [1]))
    # a site one above the floor is its own root, whatever its jump
    assert roots_on_jumps(np.ones(20, dtype=np.int64), -10, np.array([-9, -9])).tolist() == [-9, -9]
    # at depth 1 an exit line stops at 0, the one site between 1..n and the floor
    shallow, = roots_of([(0.45, keys, 1, 200)])
    assert np.array_equal(shallow, walk_roots_oracle(0.45, keys, 1, np.arange(1, 201)))
    assert 0 in shallow and np.all(shallow >= 0)


def test_roots_of_hashes_each_query_site_once(monkeypatch):
    real_jumps, real_hash = partition1d.hashed_jumps, partition1d.hash1_into
    first, walked = [], []

    def recording(alpha, key, sites):
        jumps = real_jumps(alpha, key, sites)
        first.append((np.broadcast_to(key[0], jumps.shape), np.broadcast_to(sites, jumps.shape), jumps))
        return jumps

    def stepping(k0, k1, out, spare):
        walked.append(out.view(np.int64).copy())  # the sites a step hashes
        return real_hash(k0, k1, out, spare)

    keys = [spin_key(replicate_generator("aa", r)) for r in range(3)]
    row_of = {k0: r for r, (k0, _) in enumerate(keys)}
    n, depth = 400, 10**4
    monkeypatch.setattr(partition1d, "hashed_jumps", recording)
    monkeypatch.setattr(partition1d, "hash1_into", stepping)
    roots, = roots_of([(0.45, keys, depth, n)])
    monkeypatch.undo()
    assert np.array_equal(roots, walk_roots_oracle(0.45, keys, depth, np.arange(1, n + 1)))

    assert len(first) == 1
    words, sites, jumps = (a.ravel() for a in first[0])
    hashed = sorted(zip((row_of[int(w)] for w in words), sites.tolist()))
    assert hashed == [(r, s) for r in range(len(keys)) for s in range(1, n + 1)]  # each (row, site) once
    joined = sites - jumps >= 1  # the site's parent is another of the sites 1..n
    assert np.any(joined) and walked
    # the walk then reads only sites in (-depth, 1): no joined line, whose
    # parent is one of 1..n, is walked on, and no site at or below the floor
    walked = np.concatenate(walked)
    assert np.all((walked > -depth) & (walked < 1))


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
    # (1/2) c^2 D^(2 alpha - 1) / (1 - 2 alpha), c = sin(pi/4)/pi, at alpha = 1/4, D = 10^5
    bound = Axis(PmfKind.HS_TAIL, 0.25, 512, 10**5).truncation_bound
    assert bound == pytest.approx(1.0 / (2.0 * math.pi**2 * math.sqrt(1e5)), rel=1e-12)


def test_adjacent_coalescence_against_line_walk_oracle():
    """P(sites 1,2 share a root) two ways: the hashed forest walk vs direct line walks."""
    alpha = 0.3
    depth = 4000

    reps = 4000
    keys = [spin_key(replicate_generator("0b", r)) for r in range(reps)]
    roots, = roots_of([(alpha, keys, depth, 2)])
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
