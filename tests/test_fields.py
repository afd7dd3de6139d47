"""Model simulators: forced-stream algebra, invariants, determinism."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from partition_fields import (
    CornerGrid,
    MarginalLaw,
    ModelKind,
    ModelSpec,
    expected_occupancy,
    make_karlin_pmf,
    normalization,
    replicate_generator,
    simulate,
)
from partition_fields import fields, partition1d
from partition_fields.distributions import PmfKind, sample_zipf_rows
from partition_fields.fields import KIND_TABLE, Axis, _corner_index, batch_size, sample_axes
from partition_fields.partition1d import Patterns, hashed_jumps, urn_head_size
from partition_fields.seeding import spin_key
from partition_fields.stats import simulate_raw_matrix

from conftest import (
    corner_counts,
    corner_layout,
    group_by_column,
    pair_spin_sums,
    roots_on_jumps,
    running_parity_oracle,
    simulate_2d_oracle,
    urn_layout,
)

SEED = "f1e1d0000000000000000000000000aa"


# ---------------------------------------------------------------------------
# site-by-site reference paths for the corner-count products
# ---------------------------------------------------------------------------

def _site_signs(axis: Axis, inv: np.ndarray) -> np.ndarray:
    """Per-site signs: alternating +1, -1 within an urn box, all +1 on a forest axis."""
    if not axis.is_urn:
        return np.ones(inv.size, dtype=np.int64)
    return 2 * np.asarray(running_parity_oracle(inv.tolist()), dtype=np.int64) - 1


def _prefix_oracle_1d(x: np.ndarray, n: int, t1) -> np.ndarray:
    """Corner sums of the site values x by one running sum in site order."""
    c = np.cumsum(x, dtype=np.float64 if x.dtype.kind == "f" else np.int64)
    idx = _corner_index(n, t1)
    return np.where(idx >= 1, c[np.maximum(idx - 1, 0)], 0).astype(np.float64)


def _dense_oracle_2d(core, inv1, inv2, s1, s2, n: tuple[int, int], grid: CornerGrid) -> np.ndarray:
    """Corner sums of X[i,j] = core[inv1[i], inv2[j]] * s1[i] * s2[j], field built in full."""
    x = core[np.ix_(inv1, inv2)] * s1[:, None] * s2[None, :]
    c = np.pad(np.cumsum(np.cumsum(x, axis=0, dtype=np.int64), axis=1), ((1, 0), (1, 0)))
    return c[np.ix_(_corner_index(n[0], grid.t1), _corner_index(n[1], grid.t2))].astype(np.float64)


def _counts_of(axis: Axis, inv: np.ndarray, k: int, ts) -> np.ndarray:
    """The axis's int64 (corners, k) count matrix of the sites' classes inv.

    A forest axis samples with its roots forced to inv; an urn site's
    count goes through ``conftest.corner_counts``, keeping the parity.
    """
    idx = _corner_index(axis.n, ts)
    if axis.is_urn:
        order = np.argsort(inv, kind="stable")
        first = np.searchsorted(idx, order, side="right")  # first corner holding each site
        classes, counts, _ = corner_counts(np.zeros(inv.size, np.int64), inv[order], first, 1, idx.size + 1)
        counts = counts[:-1] & 1
    else:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fields, "roots_of", lambda walks: [inv[None, :n] for *_, n in walks])
            table, = sample_axes([axis], [ts], [replicate_generator(SEED, 0)])
        assert np.all(table.sizes == 1)
        classes, counts = table.ids, table.counts
    assert counts.dtype == np.int64
    full = np.zeros((idx.size, k), np.int64)  # the classes no site holds count 0
    full[:, classes] = counts
    return full


@st.composite
def _axis_case(draw):
    """An axis, a class assignment of its n sites and a grid with corners at 0."""
    n = draw(st.integers(1, 40))
    k = draw(st.integers(1, 6))
    inv = np.asarray(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)), dtype=np.int64)
    steps = draw(st.lists(st.integers(1, 4 * n), min_size=1, max_size=6, unique=True))
    ts = tuple(j / (4 * n) for j in sorted(steps))  # j < 4 puts a corner at 0
    axis = Axis(draw(st.sampled_from(PmfKind)), 0.25, n)
    return axis, inv, k, ts


@given(_axis_case(), _axis_case(), st.data())
@settings(max_examples=150, deadline=None)
def test_corner_count_product_matches_dense_field(case1, case2, data):
    (ax1, inv1, k1, t1), (ax2, inv2, k2, t2) = case1, case2
    core = np.asarray(
        data.draw(st.lists(st.sampled_from([-1, 1]), min_size=k1 * k2, max_size=k1 * k2)), dtype=np.int64
    ).reshape(k1, k2)
    a1, a2 = _counts_of(ax1, inv1, k1, t1), _counts_of(ax2, inv2, k2, t2)
    assert a1.dtype == np.int64 and a1.shape == (len(t1), k1)
    expected = _dense_oracle_2d(core, inv1, inv2, _site_signs(ax1, inv1), _site_signs(ax2, inv2),
                                (ax1.n, ax2.n), CornerGrid(t1, t2))
    assert np.array_equal((a1 @ core @ a2.T).astype(np.float64), expected)


@given(_axis_case(), st.data())
@settings(max_examples=150, deadline=None)
def test_corner_count_sum_matches_site_prefix_sum(case, data):
    axis, inv, k, ts = case
    a = _counts_of(axis, inv, k, ts)
    signs = _site_signs(axis, inv)
    ints = np.asarray(data.draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k)), dtype=np.float64)
    assert np.array_equal((a * ints).sum(axis=1), _prefix_oracle_1d(ints[inv] * signs, axis.n, ts))
    # non-dyadic values: each side rounds within (n/2)*eps*sum|x| (recursive summation bound)
    v = np.asarray(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=k, max_size=k)))
    tol = axis.n * np.finfo(np.float64).eps * np.abs(v[inv]).sum()
    np.testing.assert_allclose((a * v).sum(axis=1), _prefix_oracle_1d(v[inv] * signs, axis.n, ts),
                               rtol=0, atol=tol)


@given(st.integers(2, 4), st.integers(1, 30), st.data())
@settings(max_examples=100, deadline=None)
def test_forest_layout_matches_per_row_unique(rows, depth, data):
    # explicit-jump roots on a grid with a corner at 0, two equal corners and
    # sites past the last corner, against one np.unique and bincount per row
    n, ts = 20, (0.01, 0.3, 0.32, 0.75)
    idx = _corner_index(n, ts)
    assert idx[0] == 0 and idx[1] == idx[2] and idx[-1] < n
    jumps = data.draw(hnp.arrays(np.int64, (rows, depth + n), elements=st.integers(1, 40)))
    roots = roots_on_jumps(jumps, -depth, np.arange(1, n + 1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fields, "roots_of", lambda walks: [roots[:, :n] for *_, n in walks])
        got, = sample_axes([Axis(PmfKind.HS_TAIL, 0.25, n, depth)], [ts], [replicate_generator(SEED, r) for r in range(rows)])
    classes, counts, starts = corner_layout(roots, idx)
    keep = counts.any(axis=0)  # a class whose sites all lie past the last corner is left out
    kept_rows = np.repeat(np.arange(rows), np.diff(starts))[keep]
    want = Patterns(classes[keep], counts[:, keep], np.ones(keep.sum(), dtype=np.int64),
                    np.concatenate(([0], np.cumsum(np.bincount(kept_rows, minlength=rows)))))
    for part, w in zip(got, want):
        assert part.dtype == np.int64 and np.array_equal(part, w)
    for b in range(rows):  # increasing within a row: the 1D reduction sums the classes in this order
        assert np.all(np.diff(got.ids[got.starts[b]:got.starts[b + 1]]) > 0)


@given(st.sampled_from(ModelKind), st.integers(1, 12), st.integers(1, 12), st.integers(1, 40),
       st.lists(st.integers(1, 4), min_size=1, max_size=5))
@settings(max_examples=100, deadline=None)
def test_batches_match_one_whole_batch(kind, n1, n2, depth, sizes):
    row = KIND_TABLE[kind]
    # a non-dyadic marginal, so that a different summation order would show
    marginal = MarginalLaw.two_point(0.7, -0.3, 0.3) if row.generalized else MarginalLaw.rademacher()
    spec = ModelSpec(kind, tuple(0.6 if axis is PmfKind.KARLIN_ZIPF else 0.25 for axis in row.axes),
                     (n1, n2)[: len(row.axes)], marginal=marginal, forest_depth=depth)
    ts = (0.25, 0.5, 1.0)
    grid = CornerGrid(ts, ts if spec.is_2d else None)
    whole = simulate(spec, grid, [replicate_generator(SEED, r) for r in range(sum(sizes))])
    bounds = np.cumsum([0] + sizes)
    for r0, r1 in zip(bounds[:-1], bounds[1:]):
        part = simulate(spec, grid, [replicate_generator(SEED, r) for r in range(r0, r1)])
        assert part.shape == (r1 - r0, *grid.shape())
        assert part.tobytes() == whole[r0:r1].tobytes()


_TWO_D = [
    (ModelSpec(ModelKind.KARLIN_2D, (0.6, 0.6), (1024, 1024)), CornerGrid((0.25, 0.5, 0.75, 1.0), (0.25, 0.5, 0.75, 1.0))),
    (ModelSpec(ModelKind.HS_2D, (0.25, 0.45), (512, 300)), CornerGrid((0.25, 0.5, 0.75, 1.0), (0.3, 1.0))),
    (ModelSpec(ModelKind.COMBINED_2D, (0.25, 0.6), (512, 2048)), CornerGrid((0.5, 1.0), (0.25, 0.5, 0.75, 1.0))),
    # first corners at no site (floor(n t) = 0), and an urn axis whose rows hold no class at all
    (ModelSpec(ModelKind.KARLIN_2D, (0.3, 0.8), (300, 200)), CornerGrid((0.001, 0.5, 1.0), (0.002,))),
    (ModelSpec(ModelKind.COMBINED_2D, (0.45, 0.6), (300, 200), forest_depth=50),
     CornerGrid((0.001, 0.002, 1.0), (0.001, 0.7))),
]


@pytest.mark.parametrize("spec, grid", _TWO_D,
                         ids=["karlin2d", "hs2d", "combined2d", "karlin2d-rows-without-classes", "combined2d-empty-corners"])
def test_2d_simulate_matches_the_int64_core(spec, grid):
    want = simulate_2d_oracle(spec, grid, [replicate_generator(SEED, r) for r in range(40)])
    got = simulate(spec, grid, [replicate_generator(SEED, r) for r in range(40)])
    assert got.tobytes() == want.tobytes()


def _forced_counts(monkeypatch, counts: dict[int, list[int]], sizes: dict[int, list[int]] | None = None):
    """Urn axes whose one replicate holds one pattern per count (of size 1 unless given), at the one corner."""
    def urn(alpha, n, corners, rngs):
        c = np.asarray([counts[n]], dtype=np.int64)
        size = np.asarray(sizes[n] if sizes else [1] * c.size, dtype=np.int64)
        return Patterns(np.arange(c.size), c, size, np.array([0, c.size]))
    monkeypatch.setattr(fields, "urn_patterns", urn)


@pytest.mark.parametrize("counts", [
    {2: [1 << 27], 3: [1 << 26]},  # the bound is 2^53 exactly
    {2: [1 << 26, 1 << 26], 3: [1 << 26]},  # a sum of class counts reaches it, though the sum may cancel
    {2: [1 << 40], 3: [1 << 40]},
])
def test_2d_corner_sums_refuse_a_bound_at_2_53(monkeypatch, counts):
    _forced_counts(monkeypatch, counts)
    spec, grid = ModelSpec(ModelKind.KARLIN_2D, (0.6, 0.6), (2, 3)), CornerGrid((1.0,), (1.0,))
    with pytest.raises(ValueError, match="row-sum bound"):
        simulate(spec, grid, [replicate_generator(SEED, 0)])


def test_2d_corner_sums_refuse_a_bound_at_2_53_from_pattern_sizes(monkeypatch):
    # parities of 1, but 2^27 x 2^26 boxes: refused before any of the 2^47 words is hashed
    _forced_counts(monkeypatch, {2: [1], 3: [1]}, sizes={2: [1 << 27], 3: [1 << 26]})
    spec, grid = ModelSpec(ModelKind.KARLIN_2D, (0.6, 0.6), (2, 3)), CornerGrid((1.0,), (1.0,))
    with pytest.raises(ValueError, match="row-sum bound"):
        simulate(spec, grid, [replicate_generator(SEED, 0)])


def test_2d_pattern_pairs_past_2_16_words_match_the_int64_core(monkeypatch):
    # 2^12 x 2^12 boxes: 2^18 words, so j_hi reaches 3 in the first identifier
    spec, grid = ModelSpec(ModelKind.KARLIN_2D, (0.6, 0.6), (2, 3)), CornerGrid((1.0,), (1.0,))
    _forced_counts(monkeypatch, {2: [1, 1], 3: [1]}, sizes={2: [1 << 12, 5], 3: [1 << 12]})
    raw = simulate(spec, grid, [replicate_generator(SEED, 0)])
    spin = pair_spin_sums(spin_key(replicate_generator(SEED, 0)), [0, 1], [1 << 12, 5], [0], [1 << 12])
    assert raw.tolist() == [[[float(spin.sum())]]]


def test_karlin2d_on_the_unit_grid_runs_pairs_past_2_16_words():
    # a row's odd boxes are one pattern on the unit grid: about 2,450^2 spins per pair at alpha 0.9, n = 5000
    spec, grid = ModelSpec(ModelKind.KARLIN_2D, (0.9, 0.9), (5000, 5000)), CornerGrid((1.0,), (1.0,))
    t1, t2 = sample_axes(spec.axes, ((1.0,), (1.0,)), [replicate_generator(SEED, r) for r in range(2)])
    assert (t1.sizes * t2.sizes > 1 << 22).all()
    want = simulate_2d_oracle(spec, grid, [replicate_generator(SEED, r) for r in range(2)])
    assert simulate(spec, grid, [replicate_generator(SEED, r) for r in range(2)]).tobytes() == want.tobytes()


def test_2d_pattern_pairs_refuse_more_than_2_32_words(monkeypatch):
    # j_hi and j_lo take 16 bits each; refused before any word past the first is hashed
    spec, grid = ModelSpec(ModelKind.KARLIN_2D, (0.6, 0.6), (2, 3)), CornerGrid((1.0,), (1.0,))
    _forced_counts(monkeypatch, {2: [1], 3: [1]}, sizes={2: [1 << 19], 3: [(1 << 19) + 1]})
    with pytest.raises(ValueError, match="hash words"):
        simulate(spec, grid, [replicate_generator(SEED, 0)])


def test_2d_pattern_pairs_past_2_16_words_refuse_first_identifiers_past_2_47(monkeypatch):
    # a forest root at -2^50 would alias in id_p + (j_hi << 48); 2^23 spins reach j_hi = 1
    spec, grid = ModelSpec(ModelKind.COMBINED_2D, (0.25, 0.6), (1, 3)), CornerGrid((1.0,), (1.0,))
    monkeypatch.setattr(fields, "roots_of", lambda walks: [np.full((1, n), -(1 << 50)) for *_, n in walks])
    _forced_counts(monkeypatch, {3: [1]}, sizes={3: [1 << 23]})
    with pytest.raises(ValueError, match="2\\^47"):
        simulate(spec, grid, [replicate_generator(SEED, 0)])
    monkeypatch.setattr(fields, "roots_of", lambda walks: [np.full((1, n), -(1 << 40)) for *_, n in walks])
    raw = simulate(spec, grid, [replicate_generator(SEED, 0)])
    spin = pair_spin_sums(spin_key(replicate_generator(SEED, 0)), [-(1 << 40)], [1], [0], [1 << 23])
    assert raw.tolist() == [[[float(spin.sum())]]]


def test_2d_pattern_pairs_past_2_16_words_in_padded_rows_match_the_int64_core(monkeypatch):
    # the last replicate holds fewer forest classes than the other, so its padded column
    # pairs with an urn pattern of 2^23 boxes and reaches j_hi = 1 too (counts 0 there)
    spec, grid = ModelSpec(ModelKind.COMBINED_2D, (0.25, 0.6), (2, 3)), CornerGrid((1.0,), (1.0,))
    monkeypatch.setattr(fields, "roots_of", lambda walks: [np.array([[1, 2], [0, 0]])[:, :n] for *_, n in walks])
    monkeypatch.setattr(fields, "urn_patterns", lambda alpha, n, corners, rngs: Patterns(
        np.zeros(2, np.int64), np.ones((1, 2), np.int64), np.full(2, 1 << 23), np.arange(3)))
    want = simulate_2d_oracle(spec, grid, [replicate_generator(SEED, r) for r in range(2)])
    assert simulate(spec, grid, [replicate_generator(SEED, r) for r in range(2)]).tobytes() == want.tobytes()


def test_2d_corner_sums_are_exact_just_below_2_53(monkeypatch):
    # 2^53 - 1 = 6361 * 69431 * 20394401: every integer below 2^53 is a float64
    _forced_counts(monkeypatch, {2: [6361 * 69431], 3: [20394401]})
    spec, grid = ModelSpec(ModelKind.KARLIN_2D, (0.6, 0.6), (2, 3)), CornerGrid((1.0,), (1.0,))
    raw = simulate(spec, grid, [replicate_generator(SEED, 0)])
    spin = pair_spin_sums(spin_key(replicate_generator(SEED, 0)), [0], [1], [0], [1])[0, 0]
    assert raw.tolist() == [[[float(spin * (2**53 - 1))]]]


def test_batch_size_divides_the_element_budget():
    ts = tuple(m / 4096 for m in range(1, 4097))  # a corner at every site
    assert batch_size(ModelSpec(ModelKind.KARLIN_1D, (0.6,), (4096,)), CornerGrid(ts)) == 1
    spec = ModelSpec(ModelKind.HS_2D, (0.25, 0.25), (512, 512), forest_depth=10**5)
    grid = CornerGrid((0.5, 1.0), (0.5, 1.0))
    # per axis: n roots and a (corners + 1) x n count matrix
    assert batch_size(spec, grid) == fields._BATCH_ELEMENTS // (2 * (512 + 3 * 512))


@pytest.mark.parametrize("kind", [ModelKind.HS_1D, ModelKind.HS_2D, ModelKind.COMBINED_2D])
def test_batch_size_does_not_depend_on_forest_depth(kind):
    # a forest axis holds no window sites, so its depth costs no batch memory
    row = KIND_TABLE[kind]
    alphas = tuple(0.25 if axis is PmfKind.HS_TAIL else 0.6 for axis in row.axes)
    grid = CornerGrid((0.5, 1.0), (0.5, 1.0) if len(row.axes) == 2 else None)
    sizes = {batch_size(ModelSpec(kind, alphas, (512,) * len(row.axes), forest_depth=d), grid)
             for d in (10, 10**5, 10**9)}
    assert len(sizes) == 1


def test_renewal_horizon_does_not_depend_on_forest_depth(monkeypatch):
    # the truncation bound is a closed form, so a deep floor asks for no longer
    # q: the horizon is max(2^18, 16 n), and the bound reads no sequence
    asked = []
    monkeypatch.setattr(fields, "cached_renewal_sequence", lambda pmf, kmax: asked.append(kmax))
    for n in (512, 1 << 15):
        axis = Axis(PmfKind.HS_TAIL, 0.25, n, 10**7)
        axis.renewal
        assert axis.truncation_bound > 0
    assert asked == [1 << 18, 16 << 15]


def test_stream_layout_spin_key_then_jump_key_then_labels(monkeypatch):
    # combined2d: spin key (2 raw words), the forest axis's jump key (2 more), then the urn's draws
    spec = ModelSpec(ModelKind.COMBINED_2D, (0.25, 0.6), (16, 40), forest_depth=300)
    grid = CornerGrid((1.0,), (0.5, 1.0))
    seen = {}
    real_urn, real_roots = fields.urn_patterns, fields.roots_of

    def urn(alpha, n, corners, rngs):
        seen["boxes"] = real_urn(alpha, n, corners, rngs)
        return seen["boxes"]

    def roots(walks):
        seen["walks"] = walks
        return real_roots(walks)

    monkeypatch.setattr(fields, "urn_patterns", urn)
    monkeypatch.setattr(fields, "roots_of", roots)
    rng = replicate_generator(SEED, 4)
    simulate(spec, grid, [rng])
    ref = replicate_generator(SEED, 4)
    words = ref.bit_generator.random_raw(4)
    (_, keys, depth, n), = seen["walks"]  # one forest axis, one walk
    assert [tuple(k) for k in np.asarray(keys, dtype=np.uint64)] == [(words[2], words[3])]
    assert (depth, n) == (300, 16)
    want = real_urn(0.6, 40, _corner_index(40, grid.t2), [ref])
    assert all(np.array_equal(g, w) for g, w in zip(seen["boxes"], want))
    assert rng.random() == ref.random()


def test_stream_layout_spin_key_then_multinomial_then_tail_rounds(monkeypatch):
    # karlin1d, replayed on a fresh generator: the spin key, one multinomial call per
    # corner segment (drawn here by one call over the segments, which draws the same),
    # then the tail labels' rejection rounds, and nothing else
    alpha, n, ts = 0.6, 40, (0.25, 0.5, 1.0)
    seen = {}
    real = fields.urn_patterns

    def urn(*args):
        seen["boxes"] = real(*args)
        return seen["boxes"]

    monkeypatch.setattr(fields, "urn_patterns", urn)
    rng = replicate_generator(SEED, 9)
    simulate(ModelSpec(ModelKind.KARLIN_1D, (alpha,), (n,)), CornerGrid(ts), [rng])

    ref = replicate_generator(SEED, 9)
    ref.bit_generator.random_raw(2)
    head = urn_head_size(alpha, n)
    p = make_karlin_pmf(alpha).pmf_block(1, head + 1)
    corners = _corner_index(n, ts)
    drawn = ref.multinomial(np.diff(corners, prepend=0), np.append(p, 1.0 - p.sum()))
    tail = sample_zipf_rows(alpha, [ref], [drawn[:, -1].sum()], lo=head + 1)
    assert rng.random() == ref.random()
    assert tail.size > 0

    # each box's draws per segment, the tail draws filling the segments in draw order
    per_segment = {box: drawn[:, box - 1] for box in range(1, head + 1) if drawn[:, box - 1].any()}
    boxes = list(per_segment) + sorted(set(tail.tolist()))
    for label, m in zip(tail.tolist(), np.repeat(np.arange(corners.size), drawn[:, -1]).tolist()):
        per_segment.setdefault(label, np.zeros(corners.size, dtype=np.int64))[m] += 1
    parity = np.array([np.cumsum(per_segment[box]) % 2 for box in boxes]).T
    got, want = seen["boxes"], group_by_column(parity, [0, len(boxes)])
    assert all(g.dtype == np.int64 and g.tolist() == w.tolist() for g, w in zip(got, want))


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec(ModelKind.KARLIN_1D, (1.2,), (10,))
    with pytest.raises(ValueError):
        ModelSpec(ModelKind.HS_1D, (0.6,), (10,))  # forest direction needs (0,1/2)
    with pytest.raises(ValueError):
        ModelSpec(ModelKind.KARLIN_2D, (0.5,), (10, 10))  # one alpha for 2D
    with pytest.raises(ValueError):
        ModelSpec(ModelKind.COMBINED_2D, (0.6, 0.6), (10, 10))  # dir1 must be (0,1/2)
    with pytest.raises(ValueError):
        ModelSpec(ModelKind.KARLIN_1D, (0.5,), (0,))
    with pytest.raises(ValueError):
        ModelSpec(ModelKind.KARLIN_2D, (0.5, 0.5), (8, 8), marginal=MarginalLaw.scaled_sign(2))
    spec = ModelSpec(ModelKind.COMBINED_2D, (0.25, 0.6), (10, 20))
    assert spec.hurst() == (0.75, 0.3)
    assert spec.effective_forest_depth(10) == 10**5
    assert ModelSpec(ModelKind.HS_1D, (0.25,), (10,), forest_depth=777).effective_forest_depth(10) == 777
    # the exit walk steps in float64, exact above floors down to -2^53
    assert ModelSpec(ModelKind.HS_1D, (0.25,), (10,), forest_depth=2**53).forest_depth == 2**53
    with pytest.raises(ValueError, match="2\\^53"):
        ModelSpec(ModelKind.HS_1D, (0.25,), (10,), forest_depth=2**53 + 1)


@pytest.mark.parametrize("n, depth", [((10.5,), None), ((10.0,), None), ((True,), None),
                                      ((10,), 10.5), ((10,), True)])
def test_model_spec_rejects_non_integer_counts(n, depth):
    with pytest.raises(ValueError, match="must be an integer"):
        ModelSpec(ModelKind.HS_1D, (0.25,), n, forest_depth=depth)


def test_model_spec_accepts_numpy_integers():
    spec = ModelSpec(ModelKind.HS_1D, (0.25,), (np.int64(10),), forest_depth=np.int32(777))
    assert spec.n == (10,) and spec.forest_depth == 777
    assert type(spec.n[0]) is int and type(spec.forest_depth) is int


@pytest.mark.parametrize("alpha", ["0.25", True, np.bool_(True), None, 0.25j])
def test_model_spec_rejects_non_real_alphas(alpha):
    with pytest.raises(ValueError, match="must be a real number"):
        ModelSpec(ModelKind.HS_1D, (alpha,), (10,))


def test_model_spec_accepts_numpy_floats():
    spec = ModelSpec(ModelKind.COMBINED_2D, (np.float64(0.25), np.float32(0.5)), (10, 10))
    assert spec.alphas == (0.25, 0.5)
    assert all(type(a) is float for a in spec.alphas)


def test_kind_table_drives_hurst_and_alpha_domains():
    assert set(KIND_TABLE) == set(ModelKind)
    for kind, row in KIND_TABLE.items():
        alphas = tuple(0.4 * axis.alpha_max for axis in row.axes)
        spec = ModelSpec(kind, alphas, (8,) * len(row.axes))
        assert tuple(axis.kind for axis in spec.axes) == row.axes
        assert spec.is_2d == (len(row.axes) == 2)
        assert spec.hurst() == tuple(
            a / 2 if axis is PmfKind.KARLIN_ZIPF else a + 0.5 for a, axis in zip(alphas, row.axes)
        )
        for q, axis in enumerate(row.axes):
            edge = alphas[:q] + (axis.alpha_max,) + alphas[q + 1:]
            with pytest.raises(ValueError):
                ModelSpec(kind, edge, (8,) * len(row.axes))
            just_inside = alphas[:q] + (0.99 * axis.alpha_max,) + alphas[q + 1:]
            ModelSpec(kind, just_inside, (8,) * len(row.axes))


@example(10**8, 25686, 10**5)  # the float product is 25685999.999999996
@example(3, 1, 3)  # 3 * (1/3) reads 0.9999999999999999 as a decimal
@given(
    st.integers(1, 10**10),
    st.integers(1, 10**7),
    st.one_of(st.sampled_from([10**d for d in range(1, 8)]), st.integers(1, 10**7)),
)
def test_corner_index_is_exact_floor(n, i, m):
    # a grid time written as the decimal or quotient i/m, with m <= 10^7
    t = Fraction(min(i, m), m)
    assert _corner_index(n, (float(t),))[0] == math.floor(n * t)


def test_corner_index_is_cached_and_read_only():
    idx = _corner_index(1000, (0.25, 1.0))
    assert idx is _corner_index(1000, (0.25, 1.0))
    assert idx.tolist() == [250, 1000] and not idx.flags.writeable


def test_grid_dimension_must_match_model():
    with pytest.raises(ValueError):
        simulate(ModelSpec(ModelKind.KARLIN_1D, (0.6,), (8,)), CornerGrid((1.0,), (1.0,)),
                 [replicate_generator(SEED, 0)])[0]
    with pytest.raises(ValueError):
        simulate(ModelSpec(ModelKind.HS_2D, (0.25, 0.25), (8, 8)), CornerGrid((1.0,)),
                 [replicate_generator(SEED, 0)])[0]


@pytest.mark.parametrize("kind", list(KIND_TABLE), ids=lambda k: k.value)
def test_simulate_of_no_generators_is_empty(kind):
    spec = ModelSpec(kind, tuple(0.6 if axis is PmfKind.KARLIN_ZIPF else 0.25 for axis in KIND_TABLE[kind].axes),
                     (8,) * len(KIND_TABLE[kind].axes))
    grid = CornerGrid((0.5, 1.0), (0.25, 0.5, 1.0) if spec.is_2d else None)
    out = simulate(spec, grid, [])
    assert out.shape == (0, *grid.shape()) and out.dtype == np.float64


@pytest.mark.parametrize("spec, grid, seed", [
    (ModelSpec(ModelKind.KARLIN_1D, (0.3,), (2,)), CornerGrid((1.0,)), 5),  # both draws in one box
    (ModelSpec(ModelKind.HS_1D, (0.25,), (3,)), CornerGrid((0.1,)), SEED),  # the one corner holds no site
], ids=["karlin1d-no-odd-box", "hs1d-no-site"])
def test_1d_simulate_without_counted_patterns_is_float64(spec, grid, seed):
    out = simulate(spec, grid, [replicate_generator(seed, 0)])
    assert out.dtype == np.float64 and out.tolist() == [[0.0]]


@pytest.mark.parametrize("kind", list(KIND_TABLE), ids=lambda k: k.value)
def test_simulate_and_raw_matrix_are_c_ordered_float64(kind):
    # the reports read the raw matrix through BLAS, whose sums follow its memory layout
    spec = ModelSpec(kind, tuple(0.6 if axis is PmfKind.KARLIN_ZIPF else 0.25 for axis in KIND_TABLE[kind].axes),
                     (40,) * len(KIND_TABLE[kind].axes), forest_depth=100)
    grid = CornerGrid((0.01, 0.5, 0.9), (0.01, 0.75) if spec.is_2d else None)
    out = simulate(spec, grid, [replicate_generator(SEED, r) for r in range(3)])
    raw = simulate_raw_matrix(spec, grid, 3, SEED)
    assert out.shape == (3, *grid.shape()) and raw.shape == (3, math.prod(grid.shape()))
    for a in (out, raw):
        assert a.dtype == np.float64 and a.flags.c_contiguous


@pytest.mark.parametrize("ts, sites", [((0.25, 0.75), 96), ((0.001,), 0), ((0.5, 1.0), 128)])
def test_forest_axis_asks_roots_of_for_the_sites_up_to_its_last_corner(monkeypatch, ts, sites):
    asked, real = [], fields.roots_of

    def roots(walks):
        asked.append([n for *_, n in walks])
        return real(walks)

    monkeypatch.setattr(fields, "roots_of", roots)
    table, = sample_axes([Axis(PmfKind.HS_TAIL, 0.25, 128, 2000)], [ts], [replicate_generator(SEED, r) for r in range(3)])
    assert asked == [[sites]]
    assert table.counts.shape == (len(ts), table.ids.size) and np.all(table.counts[-1] > 0)


def _longest_exit_line(alpha, keys, depth, n) -> int:
    """The steps of a forest's longest exit line: the sites in (-depth, 1) it reaches, walked one jump at a time."""
    keys = np.asarray(keys, dtype=np.uint64).reshape(-1, 2)
    k0, k1 = np.repeat(keys, n, axis=0).T
    sites = np.tile(np.arange(1, n + 1), len(keys))
    pos = sites - hashed_jumps(alpha, (k0, k1), sites)
    steps = 0
    while True:
        live = pos > -depth if steps else (pos > -depth) & (pos < 1)
        pos, k0, k1 = pos[live], k0[live], k1[live]
        if not pos.size:
            return steps
        pos = pos - hashed_jumps(alpha, (k0, k1), pos)
        steps += 1


def test_hs2d_walks_both_axes_in_one_loop(monkeypatch):
    # the walk loop hashes once a step: as many steps as the longest exit line of
    # either axis, not one loop per axis; each axis's walk reads its own jump keys
    spec = ModelSpec(ModelKind.HS_2D, (0.45, 0.3), (64, 96), forest_depth=10**4)
    grid = CornerGrid((0.5, 1.0), (0.25, 1.0))
    rows = 2
    steps, walked, real_hash, real_roots = [0], [], partition1d.hash1_into, fields.roots_of

    def counting(*args):
        steps[0] += 1
        return real_hash(*args)

    def roots(walks):
        walked.extend(walks)
        return real_roots(walks)

    monkeypatch.setattr(partition1d, "hash1_into", counting)
    monkeypatch.setattr(fields, "roots_of", roots)
    simulate(spec, grid, [replicate_generator(SEED, r) for r in range(rows)])
    words = [replicate_generator(SEED, r).bit_generator.random_raw(6) for r in range(rows)]
    assert [(alpha, depth, n) for alpha, _, depth, n in walked] == [(0.45, 10**4, 64), (0.3, 10**4, 96)]
    for q, (_, keys, _, _) in enumerate(walked):  # spin key, then axis 1's jump key, then axis 2's
        assert [tuple(k) for k in np.asarray(keys, dtype=np.uint64)] == [tuple(w[2 + 2 * q: 4 + 2 * q]) for w in words]
    longest = [_longest_exit_line(*walk) for walk in walked]
    assert min(longest) > 0 and steps[0] == max(longest), (steps, longest)


def test_corner_grid_to_dict():
    assert CornerGrid((0.5, 1.0)).to_dict() == {"t1": [0.5, 1.0], "t2": None}
    assert CornerGrid((1.0,), (0.25, 1.0)).to_dict() == {"t1": [1.0], "t2": [0.25, 1.0]}


def test_corner_grid_validation():
    with pytest.raises(ValueError):
        CornerGrid((0.5, 0.5))
    with pytest.raises(ValueError):
        CornerGrid((0.0, 0.5))
    with pytest.raises(ValueError):
        CornerGrid((0.5, 1.2))
    for ts in ((0.5, math.nan), (math.nan, 1.0), (0.25, math.nan, 1.0)):
        with pytest.raises(ValueError, match="strictly increasing"):
            CornerGrid(ts)
    with pytest.raises(ValueError):
        CornerGrid((1.0,), (math.nan,))
    grid = CornerGrid((0.5, 1.0), (0.25, 1.0))
    assert grid.is_2d and grid.shape() == (2, 2)


def _force_partitions(monkeypatch, urn=None, roots=None):
    """Pin the sampled partitions: labels or roots by horizon n."""
    if urn is not None:
        monkeypatch.setattr(fields, "urn_patterns",
                            lambda alpha, n, corners, rngs: group_by_column(*urn_layout([urn[n]], corners)[1:]))
    if roots is not None:
        monkeypatch.setattr(fields, "roots_of",
                            lambda walks: [np.asarray([roots[n]], dtype=np.int64) for *_, n in walks])


def _spins(ids1, ids2) -> np.ndarray:
    """The one-spin pair sums of replicate 0 for the given pattern ids: the signs of its pair hashes."""
    key = spin_key(replicate_generator(SEED, 0))
    return pair_spin_sums(key, ids1, [1] * len(ids1), ids2, [1] * len(ids2))


def test_karlin1d_forced_labels(monkeypatch):
    _force_partitions(monkeypatch, urn={3: [3, 3, 5]})
    monkeypatch.setattr(Axis, "draw", lambda self, marginal, h: np.array([1.0, -1.0]))  # V(3)=1, V(5)=-1
    thirds = (1 / 3, 2 / 3, 1.0)
    boxes, = sample_axes([Axis(PmfKind.KARLIN_ZIPF, 0.6, 3)], [thirds], [None])
    assert boxes.ids.tolist() == [0, 1] and boxes.sizes.tolist() == [1, 1]  # box 3, then box 5, by code
    assert boxes.counts.tolist() == [[1, 0], [0, 0], [0, 1]]
    # the labels sorted into boxes, one draw per corner segment
    _, direct, _ = corner_counts(np.zeros(3, np.int64), np.array([3, 3, 5]), np.arange(3), 1, 3)
    assert (direct & 1).tolist() == boxes.counts.tolist()
    raw = simulate(ModelSpec(ModelKind.KARLIN_1D, (0.6,), (3,)), CornerGrid(thirds),
                   [replicate_generator(SEED, 0)])[0]
    x = np.diff(raw, prepend=0.0)
    assert x.tolist() == [1.0, -1.0, -1.0]
    assert x.sum() == -1.0


def test_karlin1d_single_draw_is_sign():
    spec = ModelSpec(ModelKind.KARLIN_1D, (0.6,), (1,))
    raw = simulate(spec, CornerGrid((1.0,)), [replicate_generator(SEED, 0)])[0]
    assert abs(raw[0]) == 1.0


def test_karlin2d_forced_alternation_cancels(monkeypatch):
    # labels dir1 = (3,3) share a box: signs +1,-1; dir2 = (7,) single draw
    _force_partitions(monkeypatch, urn={2: [3, 3], 1: [7]})
    grid = CornerGrid((0.5, 1.0), (1.0,))
    _, direct, _ = corner_counts(np.zeros(2, np.int64), np.array([3, 3]), np.arange(2), 1, 2)
    assert (direct & 1).tolist() == [[1], [0]]
    raw = simulate(ModelSpec(ModelKind.KARLIN_2D, (0.6, 0.6), (2, 1)), grid, [replicate_generator(SEED, 0)])[0]
    assert raw[0, 0] == _spins([0], [0])[0, 0] and raw[1, 0] == 0.0  # S(1,1)=eps(3,7), S(2,1)=0


def test_hs1d_forced_chain_and_isolates():
    spec = ModelSpec(ModelKind.HS_1D, (0.25,), (64,), forest_depth=2000)
    grid = CornerGrid((1.0,))
    # chain: every site joined downward => one root => |S_n| = n
    roots = roots_on_jumps(np.ones(2064, dtype=np.int64), -2000, np.arange(1, 65))
    assert len(np.unique(roots)) == 1
    roots2 = roots_on_jumps(np.full(2064, 10**7, dtype=np.int64), -2000, np.arange(1, 65))
    assert len(np.unique(roots2)) == 64

    raw = simulate(spec, grid, [replicate_generator(SEED, 1)])[0]
    assert float(raw[0]).is_integer() and abs(raw[0]) <= 64


def test_hs1d_independent_limit_variance():
    # all parents forced below the floor => spins are iid => Var = n
    from partition_fields._hashing import hash1, signs_from
    from partition_fields.seeding import spin_key

    n = 64
    roots = roots_on_jumps(np.full(n + 4, 10**9, dtype=np.int64), -4, np.arange(1, n + 1))
    assert len(np.unique(roots)) == n
    vals = []
    for r in range(4000):
        key = spin_key(replicate_generator(SEED, r))
        vals.append(signs_from(hash1(key, roots)).sum())
    mc = np.var(np.asarray(vals, dtype=float), ddof=1)
    assert abs(mc - n) < 3 * n * math.sqrt(2 / 3999)


def test_hs2d_forced_product_structure(monkeypatch):
    # roots (5,5,9) x (9,5): classes inv1 = (0,0,1), inv2 = (1,0)
    _force_partitions(monkeypatch, roots={3: [5, 5, 9], 2: [9, 5]})
    grid = CornerGrid((1 / 3, 2 / 3, 1.0), (0.5, 1.0))  # every site is a corner
    trees, = sample_axes([Axis(PmfKind.HS_TAIL, 0.25, 3, 10)], [grid.t1], [replicate_generator(SEED, 0)])
    assert trees.ids.tolist() == [5, 9] and trees.counts.tolist() == [[1, 0], [2, 0], [2, 1]]
    spec = ModelSpec(ModelKind.HS_2D, (0.25, 0.25), (3, 2), forest_depth=10)
    raw = simulate(spec, grid, [replicate_generator(SEED, 0)])[0]
    x = np.diff(np.diff(np.pad(raw, ((1, 0), (1, 0))), axis=0), axis=1)
    assert x.tolist() == _spins([5, 9], [5, 9])[np.ix_([0, 0, 1], [1, 0])].tolist()  # eps(root_i, root_j)


def test_combined_forced_single_components(monkeypatch):
    # one forest component x one urn box: S(n1, n2) = ±n1·(n2 mod 2)
    _force_partitions(monkeypatch, roots={4: [0, 0, 0, 0]}, urn={3: [9, 9, 9]})
    grid = CornerGrid((1.0,), (1.0 / 3.0, 2.0 / 3.0, 1.0))
    _, direct, _ = corner_counts(np.zeros(3, np.int64), np.array([9, 9, 9]), np.arange(3), 1, 3)
    assert (direct & 1).tolist() == [[1], [0], [1]]
    spec = ModelSpec(ModelKind.COMBINED_2D, (0.25, 0.6), (4, 3), forest_depth=10)
    raw = simulate(spec, grid, [replicate_generator(SEED, 0)])[0]
    assert raw[0].tolist() == (_spins([0], [0])[0, 0] * np.array([4.0, 0.0, 4.0])).tolist()


def test_combined_single_row_reduces_to_urn_statistics():
    # with n1 = 1 the field is one alternating urn row; Var S = E[odd boxes]
    spec = ModelSpec(ModelKind.COMBINED_2D, (0.25, 0.6), (1, 256), forest_depth=200)
    grid = CornerGrid((1.0,), (1.0,))
    vals = np.array([
        simulate(spec, grid, [replicate_generator(SEED, r) for r in range(4000)])[:, 0, 0]
    ])
    ek_odd = expected_occupancy(make_karlin_pmf(0.6), 256)
    mc = np.var(vals, ddof=1)
    se = mc * math.sqrt(2 / 3999)
    assert abs(mc - ek_odd) <= 3 * se


@pytest.mark.parametrize(
    "spec, grid",
    [
        (ModelSpec(ModelKind.KARLIN_1D, (0.6,), (300,)), CornerGrid((0.3, 1.0))),
        (ModelSpec(ModelKind.GENERALIZED_KARLIN_1D, (0.6,), (300,), marginal=MarginalLaw.scaled_sign(2.0)),
         CornerGrid((0.3, 1.0))),
        (ModelSpec(ModelKind.HS_1D, (0.25,), (128,), forest_depth=4000), CornerGrid((0.5, 1.0))),
        (ModelSpec(ModelKind.GENERALIZED_HS_1D, (0.25,), (128,), forest_depth=4000,
                   marginal=MarginalLaw.two_point(2.0, -1.0, 1.0 / 3.0)), CornerGrid((0.5, 1.0))),
        (ModelSpec(ModelKind.KARLIN_2D, (0.6, 0.7), (64, 64)), CornerGrid((0.5, 1.0), (0.5, 1.0))),
        (ModelSpec(ModelKind.HS_2D, (0.25, 0.3), (32, 32), forest_depth=2000),
         CornerGrid((0.5, 1.0), (0.5, 1.0))),
        (ModelSpec(ModelKind.COMBINED_2D, (0.25, 0.6), (32, 64), forest_depth=2000),
         CornerGrid((0.5, 1.0), (0.5, 1.0))),
    ],
)
def test_simulate_deterministic_per_seed(spec, grid):
    a = simulate(spec, grid, [replicate_generator(SEED, 5)])[0]
    b = simulate(spec, grid, [replicate_generator(SEED, 5)])[0]
    assert np.array_equal(a, b)
    c = simulate(spec, grid, [replicate_generator(SEED, 6)])[0]
    assert not np.array_equal(a, c)  # different replicate, different path


def test_generalized_marginal_changes_support_and_scale():
    spec = ModelSpec(
        ModelKind.GENERALIZED_KARLIN_1D, (0.6,), (200,), marginal=MarginalLaw.scaled_sign(2.0)
    )
    grid = CornerGrid((1.0,))
    raw = simulate(spec, grid, [replicate_generator(SEED, 7)])[0]
    assert float(raw[0]) % 2 == 0  # sums of ±2 are even
    base = ModelSpec(ModelKind.KARLIN_1D, (0.6,), (200,))
    z_base, _ = normalization(base)
    z_gen, _ = normalization(spec)
    assert z_gen == pytest.approx(2.0 * z_base, rel=1e-12)


def test_generalized_karlin_variance_identity():
    law = MarginalLaw.two_point(2.0, -1.0, 1.0 / 3.0)
    spec = ModelSpec(ModelKind.GENERALIZED_KARLIN_1D, (0.6,), (200,), marginal=law)
    grid = CornerGrid((1.0,))
    vals = np.array([
        simulate(spec, grid, [replicate_generator(SEED, r) for r in range(5000)])[:, 0]
    ])
    ek_odd = expected_occupancy(make_karlin_pmf(0.6), 200)
    target = ek_odd * law.second_moment
    mc = np.var(vals, ddof=1)
    se = mc * math.sqrt(2 / 4999)
    assert abs(mc - target) <= 3 * se, (mc, target, se)


def _rectangle_sum(full: np.ndarray, a, b) -> float:
    """Sum over the corner rectangle (a, b] of the origin-padded corner sums, by inclusion-exclusion."""
    (a1, a2), (b1, b2) = a, b
    return float(full[b1, b2] - full[a1, b2] - full[b1, a2] + full[a1, a2])


def test_rectangle_sum_matches_direct_summation():
    # dense grid => reconstruct X by double differencing, then cross-check
    n = 8
    ts = tuple((i + 1) / n for i in range(n))
    spec = ModelSpec(ModelKind.KARLIN_2D, (0.6, 0.6), (n, n))
    grid = CornerGrid(ts, ts)
    raw = simulate(spec, grid, [replicate_generator(SEED, 10)])[0]
    full = np.pad(raw, ((1, 0), (1, 0)))
    x = np.diff(np.diff(full, axis=0), axis=1)
    rng = np.random.default_rng(3)
    for _ in range(25):
        a1, b1 = sorted(rng.integers(0, n + 1, 2))
        a2, b2 = sorted(rng.integers(0, n + 1, 2))
        direct = x[a1:b1, a2:b2].sum()
        assert _rectangle_sum(full, (a1, a2), (b1, b2)) == pytest.approx(direct)


def test_normalization_formulas_spot_check():
    spec = ModelSpec(ModelKind.KARLIN_2D, (0.5, 0.5), (100, 400))
    z, sigma = normalization(spec)
    sv = make_karlin_pmf(0.5).sv_constant
    assert sigma**2 == pytest.approx(math.pi / 2, rel=1e-12)
    assert z == pytest.approx(math.sqrt(math.pi / 2 * sv * sv) * 100**0.25 * 400**0.25, rel=1e-12)


def test_karlin2d_rectangle_increments_are_stationary():
    # Var of rectangle sums depends on the rectangle shape, not its position
    n = 64
    ts = tuple((i + 1) / n for i in range(n))
    spec = ModelSpec(ModelKind.KARLIN_2D, (0.6, 0.6), (n, n))
    grid = CornerGrid(ts, ts)
    reps = 600
    h = 16
    positions = [(0, 0), (24, 8), (48, 48)]
    sums = {pos: [] for pos in positions}
    means = []
    for r in range(reps):
        raw = simulate(spec, grid, [replicate_generator(SEED, 200 + r)])[0]
        means.append(raw[-1, -1] / (n * n))
        full = np.pad(raw, ((1, 0), (1, 0)))
        for a1, a2 in positions:
            sums[(a1, a2)].append(_rectangle_sum(full, (a1, a2), (a1 + h, a2 + h)))
    variances = [np.var(sums[pos], ddof=1) for pos in positions]
    se = max(variances) * math.sqrt(2 / (reps - 1))
    assert max(variances) - min(variances) < 6 * se, variances
    # aggregate spin mean vanishes at the joint rate
    assert abs(np.mean(means)) < 4 / math.sqrt(reps * n * n)


def test_stats_identity_trivial_single_spin():
    from partition_fields import run_suite

    spec = ModelSpec(ModelKind.KARLIN_1D, (0.6,), (1,))
    (check,) = run_suite("variance", spec=spec, replicates=500, seed=SEED).checks
    assert check.target == pytest.approx(1.0, abs=1e-9)
    assert abs(check.value - 1.0) <= 3 * check.details["se"]


def test_marginal_values_appear_in_field():
    # raw increments of the generalized forest model live on the marginal
    law = MarginalLaw.two_point(2.0, -1.0, 1.0 / 3.0)
    spec = ModelSpec(ModelKind.GENERALIZED_HS_1D, (0.25,), (64,), forest_depth=500, marginal=law)
    ts = tuple((i + 1) / 64 for i in range(64))
    raw = simulate(spec, CornerGrid(ts), [replicate_generator(SEED, 11)])[0]
    increments = np.diff(np.concatenate(([0.0], raw)))
    assert set(np.round(np.unique(increments), 9)) <= {-1.0, 2.0}
