"""Model simulators: forced-stream algebra, invariants, determinism."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partition_fields import (
    CornerGrid,
    MarginalLaw,
    ModelKind,
    ModelSpec,
    UrnPath,
    expected_occupancy,
    make_karlin_pmf,
    normalization,
    replicate_generator,
    simulate,
)
from partition_fields import fields
from partition_fields.distributions import PmfKind
from partition_fields.fields import KIND_TABLE, Axis, _corner_index, batch_size

from conftest import running_parity_oracle

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
    a1, a2 = ax1.corner_counts(inv1, k1, t1), ax2.corner_counts(inv2, k2, t2)
    assert a1.dtype == np.int64 and a1.shape == (len(t1), k1)
    expected = _dense_oracle_2d(core, inv1, inv2, _site_signs(ax1, inv1), _site_signs(ax2, inv2),
                                (ax1.n, ax2.n), CornerGrid(t1, t2))
    assert np.array_equal((a1 @ core @ a2.T).astype(np.float64), expected)


@given(_axis_case(), st.data())
@settings(max_examples=150, deadline=None)
def test_corner_count_sum_matches_site_prefix_sum(case, data):
    axis, inv, k, ts = case
    a = axis.corner_counts(inv, k, ts)
    signs = _site_signs(axis, inv)
    ints = np.asarray(data.draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k)), dtype=np.float64)
    assert np.array_equal((a * ints).sum(axis=1), _prefix_oracle_1d(ints[inv] * signs, axis.n, ts))
    # non-dyadic values: each side rounds within (n/2)*eps*sum|x| (recursive summation bound)
    v = np.asarray(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=k, max_size=k)))
    tol = axis.n * np.finfo(np.float64).eps * np.abs(v[inv]).sum()
    np.testing.assert_allclose((a * v).sum(axis=1), _prefix_oracle_1d(v[inv] * signs, axis.n, ts),
                               rtol=0, atol=tol)


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


def test_batch_size_divides_the_element_budget():
    ts = tuple(m / 4096 for m in range(1, 4097))  # a corner at every site
    assert batch_size(ModelSpec(ModelKind.KARLIN_1D, (0.6,), (4096,)), CornerGrid(ts)) == 1
    spec = ModelSpec(ModelKind.HS_2D, (0.25, 0.25), (512, 512), forest_depth=10**5)
    grid = CornerGrid((0.5, 1.0), (0.5, 1.0))
    assert batch_size(spec, grid) == fields._BATCH_ELEMENTS // (2 * (512 + 10**5 + 3 * 512))


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


def _force_partitions(monkeypatch, urn=None, roots=None, core=None):
    """Pin the sampled partitions (labels / roots by horizon n) and the 2D spin core."""
    if urn is not None:
        monkeypatch.setattr(fields, "sample_urn", lambda pmf, n, rngs: UrnPath.from_labels([urn[n]]))
    if roots is not None:
        monkeypatch.setattr(fields, "sample_forest", lambda pmf, lo, hi, rngs: hi)
        monkeypatch.setattr(fields, "roots_of", lambda hi, idx: np.asarray([roots[hi]], dtype=np.int64))
    if core is not None:
        monkeypatch.setattr(fields, "signs_from", lambda h: np.asarray(core, dtype=np.int8))


def test_karlin1d_forced_labels(monkeypatch):
    _force_partitions(monkeypatch, urn={3: [3, 3, 5]})
    monkeypatch.setattr(Axis, "draw", lambda self, marginal, h: np.array([1.0, -1.0]))  # V(3)=1, V(5)=-1
    uniq, inv, _ = Axis(PmfKind.KARLIN_ZIPF, 0.6, 3).sample([None])
    assert uniq.tolist() == [3, 5]
    thirds = (1 / 3, 2 / 3, 1.0)
    assert Axis(PmfKind.KARLIN_ZIPF, 0.6, 3).corner_counts(inv, 2, thirds).tolist() == [[1, 0], [0, 0], [0, 1]]
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
    _force_partitions(monkeypatch, urn={2: [3, 3], 1: [7]}, core=[[1]])  # eps(3,7) = +1
    grid = CornerGrid((0.5, 1.0), (1.0,))
    assert Axis(PmfKind.KARLIN_ZIPF, 0.6, 2).corner_counts(np.zeros(2, np.int64), 1, grid.t1).tolist() == [[1], [0]]
    raw = simulate(ModelSpec(ModelKind.KARLIN_2D, (0.6, 0.6), (2, 1)), grid, [replicate_generator(SEED, 0)])[0]
    assert raw[0, 0] == 1.0 and raw[1, 0] == 0.0  # S(1,1)=eps, S(2,1)=0


def test_hs1d_forced_chain_and_isolates():
    spec = ModelSpec(ModelKind.HS_1D, (0.25,), (64,), forest_depth=2000)
    grid = CornerGrid((1.0,))
    # chain: every site joined downward => one root => |S_n| = n
    from partition_fields.partition1d import ForestWindow, roots_of

    window = ForestWindow(-2000, 64, np.ones(2064, dtype=np.int64))
    roots = roots_of(window, np.arange(1, 65))
    assert len(np.unique(roots)) == 1
    window2 = ForestWindow(-2000, 64, np.full(2064, 10**7, dtype=np.int64))
    roots2 = roots_of(window2, np.arange(1, 65))
    assert len(np.unique(roots2)) == 64

    raw = simulate(spec, grid, [replicate_generator(SEED, 1)])[0]
    assert float(raw[0]).is_integer() and abs(raw[0]) <= 64


def test_hs1d_independent_limit_variance():
    # all parents forced below the window floor => spins are iid => Var = n
    from partition_fields._hashing import hash1, signs_from
    from partition_fields.partition1d import ForestWindow, roots_of
    from partition_fields.seeding import spin_key

    n = 64
    window = ForestWindow(-4, n, np.full(n + 4, 10**9, dtype=np.int64))
    roots = roots_of(window, np.arange(1, n + 1))
    assert len(np.unique(roots)) == n
    vals = []
    for r in range(4000):
        key = spin_key(replicate_generator(SEED, r))
        vals.append(signs_from(hash1(key, roots)).sum())
    mc = np.var(np.asarray(vals, dtype=float), ddof=1)
    assert abs(mc - n) < 3 * n * math.sqrt(2 / 3999)


def test_hs2d_forced_product_structure(monkeypatch):
    # roots (5,5,9) x (9,5): classes inv1 = (0,0,1), inv2 = (1,0)
    _force_partitions(monkeypatch, roots={3: [5, 5, 9], 2: [9, 5]}, core=[[1, -1], [-1, 1]])
    grid = CornerGrid((1 / 3, 2 / 3, 1.0), (0.5, 1.0))  # every site is a corner
    counts = Axis(PmfKind.HS_TAIL, 0.25, 3).corner_counts(np.array([0, 0, 1]), 2, grid.t1)
    assert counts.tolist() == [[1, 0], [2, 0], [2, 1]]
    spec = ModelSpec(ModelKind.HS_2D, (0.25, 0.25), (3, 2), forest_depth=10)
    raw = simulate(spec, grid, [replicate_generator(SEED, 0)])[0]
    x = np.diff(np.diff(np.pad(raw, ((1, 0), (1, 0))), axis=0), axis=1)
    assert x.tolist() == [[-1, 1], [-1, 1], [1, -1]]


def test_combined_forced_single_components(monkeypatch):
    # one forest component x one urn box: S(n1, n2) = ±n1·(n2 mod 2)
    _force_partitions(monkeypatch, roots={4: [0, 0, 0, 0]}, urn={3: [9, 9, 9]}, core=[[1]])
    grid = CornerGrid((1.0,), (1.0 / 3.0, 2.0 / 3.0, 1.0))
    assert Axis(PmfKind.KARLIN_ZIPF, 0.6, 3).corner_counts(np.zeros(3, np.int64), 1, grid.t2).tolist() == [[1], [0], [1]]
    spec = ModelSpec(ModelKind.COMBINED_2D, (0.25, 0.6), (4, 3), forest_depth=10)
    raw = simulate(spec, grid, [replicate_generator(SEED, 0)])[0]
    assert raw[0].tolist() == [4.0, 0.0, 4.0]


def test_combined_single_row_reduces_to_urn_statistics():
    # with n1 = 1 the field is one alternating urn row; Var S = E[odd boxes]
    spec = ModelSpec(ModelKind.COMBINED_2D, (0.25, 0.6), (1, 256), forest_depth=200)
    grid = CornerGrid((1.0,), (1.0,))
    vals = np.array([
        simulate(spec, grid, [replicate_generator(SEED, r) for r in range(4000)])[:, 0, 0]
    ])
    _, ek_odd = expected_occupancy(make_karlin_pmf(0.6), 256)
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
    _, ek_odd = expected_occupancy(make_karlin_pmf(0.6), 200)
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
