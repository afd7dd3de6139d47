"""Model simulators: forced-stream algebra, invariants, determinism."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
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
    rectangle_sum,
    replicate_generator,
    simulate,
)
from partition_fields import fields
from partition_fields.fields import (
    KIND_TABLE,
    Axis,
    AxisKind,
    _alternating_signs,
    _corner_index,
    _dense_corners_2d,
)

SEED = "f1e1d0000000000000000000000000aa"


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


def test_kind_table_drives_hurst_and_alpha_domains():
    assert set(KIND_TABLE) == set(ModelKind)
    for kind, row in KIND_TABLE.items():
        alphas = tuple(0.4 * axis.alpha_max for axis in row.axes)
        spec = ModelSpec(kind, alphas, (8,) * len(row.axes))
        assert tuple(axis.kind for axis in spec.axes) == row.axes
        assert spec.is_2d == (len(row.axes) == 2)
        assert spec.hurst() == tuple(
            a / 2 if axis is AxisKind.URN else a + 0.5 for a, axis in zip(alphas, row.axes)
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
                 replicate_generator(SEED, 0))
    with pytest.raises(ValueError):
        simulate(ModelSpec(ModelKind.HS_2D, (0.25, 0.25), (8, 8)), CornerGrid((1.0,)),
                 replicate_generator(SEED, 0))


def test_corner_grid_validation():
    with pytest.raises(ValueError):
        CornerGrid((0.5, 0.5))
    with pytest.raises(ValueError):
        CornerGrid((0.0, 0.5))
    with pytest.raises(ValueError):
        CornerGrid((0.5, 1.2))
    grid = CornerGrid((0.5, 1.0), (0.25, 1.0))
    assert grid.is_2d and grid.shape() == (2, 2)


def test_karlin1d_forced_labels(monkeypatch):
    monkeypatch.setattr(fields, "sample_urn", lambda pmf, n, rng: UrnPath.from_labels([3, 3, 5]))
    uniq, inv, signs = Axis(AxisKind.URN, 0.6, 3).sample(None)
    assert uniq.tolist() == [3, 5]
    box_values = np.array([1.0, -1.0])  # V(3) = 1, V(5) = -1
    x = box_values[inv] * signs
    assert x.tolist() == [1.0, -1.0, -1.0]
    assert x.sum() == -1.0


def test_karlin1d_single_draw_is_sign():
    spec = ModelSpec(ModelKind.KARLIN_1D, (0.6,), (1,))
    s = simulate(spec, CornerGrid((1.0,)), replicate_generator(SEED, 0))
    assert abs(s.raw[0]) == 1.0


def test_karlin2d_forced_alternation_cancels():
    # labels dir1 = (3,3) share a box: signs +1,-1; dir2 = (7,) single draw
    p1 = UrnPath.from_labels([3, 3])
    p2 = UrnPath.from_labels([7])
    core = np.array([[1]], dtype=np.int8)  # eps(3,7) = +1
    grid = CornerGrid((0.5, 1.0), (1.0,))
    raw = _dense_corners_2d(core, np.zeros(2, np.int64), np.zeros(1, np.int64),
                            _alternating_signs(p1), _alternating_signs(p2), (2, 1), grid)
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

    s = simulate(spec, grid, replicate_generator(SEED, 1))
    assert float(s.raw[0]).is_integer() and abs(s.raw[0]) <= 64


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


def test_hs2d_forced_product_structure():
    core = np.array([[1, -1], [-1, 1]], dtype=np.int8)
    inv1 = np.array([0, 0, 1], dtype=np.int64)
    inv2 = np.array([1, 0], dtype=np.int64)
    grid = CornerGrid((1 / 3, 2 / 3, 1.0), (0.5, 1.0))  # every site is a corner
    raw = _dense_corners_2d(core, inv1, inv2, None, None, (3, 2), grid)
    x = np.diff(np.diff(np.pad(raw, ((1, 0), (1, 0))), axis=0), axis=1)
    assert x.tolist() == [[-1, 1], [-1, 1], [1, -1]]


def test_combined_forced_single_components():
    # one forest component x one urn box: S(n1, n2) = ±n1·(n2 mod 2)
    p2 = UrnPath.from_labels([9, 9, 9])
    core = np.array([[1]], dtype=np.int8)
    grid = CornerGrid((1.0,), (1.0 / 3.0, 2.0 / 3.0, 1.0))
    raw = _dense_corners_2d(core, np.zeros(4, np.int64), np.zeros(3, np.int64),
                            None, _alternating_signs(p2), (4, 3), grid)
    assert raw[0].tolist() == [4.0, 0.0, 4.0]


def test_combined_single_row_reduces_to_urn_statistics():
    # with n1 = 1 the field is one alternating urn row; Var S = E[odd boxes]
    spec = ModelSpec(ModelKind.COMBINED_2D, (0.25, 0.6), (1, 256), forest_depth=200)
    grid = CornerGrid((1.0,), (1.0,))
    vals = np.array([
        float(simulate(spec, grid, replicate_generator(SEED, r)).raw[0, 0])
        for r in range(4000)
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
    a = simulate(spec, grid, replicate_generator(SEED, 5))
    b = simulate(spec, grid, replicate_generator(SEED, 5))
    assert np.array_equal(a.raw, b.raw)
    assert np.array_equal(a.normalized, b.normalized)
    c = simulate(spec, grid, replicate_generator(SEED, 6))
    assert not np.array_equal(a.raw, c.raw)  # different replicate, different path


def test_generalized_marginal_changes_support_and_scale():
    spec = ModelSpec(
        ModelKind.GENERALIZED_KARLIN_1D, (0.6,), (200,), marginal=MarginalLaw.scaled_sign(2.0)
    )
    grid = CornerGrid((1.0,))
    s = simulate(spec, grid, replicate_generator(SEED, 7))
    assert float(s.raw[0]) % 2 == 0  # sums of ±2 are even
    base = ModelSpec(ModelKind.KARLIN_1D, (0.6,), (200,))
    z_base, _ = normalization(base)
    z_gen, _ = normalization(spec)
    assert z_gen == pytest.approx(2.0 * z_base, rel=1e-12)


def test_generalized_karlin_variance_identity():
    law = MarginalLaw.two_point(2.0, -1.0, 1.0 / 3.0)
    spec = ModelSpec(ModelKind.GENERALIZED_KARLIN_1D, (0.6,), (200,), marginal=law)
    grid = CornerGrid((1.0,))
    vals = np.array([
        float(simulate(spec, grid, replicate_generator(SEED, r)).raw[0]) for r in range(5000)
    ])
    _, ek_odd = expected_occupancy(make_karlin_pmf(0.6), 200)
    target = ek_odd * law.second_moment
    mc = np.var(vals, ddof=1)
    se = mc * math.sqrt(2 / 4999)
    assert abs(mc - target) <= 3 * se, (mc, target, se)


def test_rectangle_sum_1d_and_2d_edges():
    spec = ModelSpec(ModelKind.KARLIN_1D, (0.6,), (100,))
    s = simulate(spec, CornerGrid((0.5, 1.0)), replicate_generator(SEED, 8))
    assert rectangle_sum(s, 0, 2) == s.raw[1]
    assert rectangle_sum(s, 1, 1) == 0.0
    with pytest.raises(IndexError):
        rectangle_sum(s, 0, 3)

    spec2 = ModelSpec(ModelKind.KARLIN_2D, (0.6, 0.6), (16, 16))
    g2 = CornerGrid((0.5, 1.0), (0.5, 1.0))
    s2 = simulate(spec2, g2, replicate_generator(SEED, 9))
    assert rectangle_sum(s2, (0, 0), (2, 2)) == s2.raw[1, 1]
    assert rectangle_sum(s2, (1, 1), (1, 1)) == 0.0


def test_rectangle_sum_matches_direct_summation():
    # dense grid => reconstruct X by double differencing, then cross-check
    n = 8
    ts = tuple((i + 1) / n for i in range(n))
    spec = ModelSpec(ModelKind.KARLIN_2D, (0.6, 0.6), (n, n))
    grid = CornerGrid(ts, ts)
    s = simulate(spec, grid, replicate_generator(SEED, 10))
    full = np.zeros((n + 1, n + 1))
    full[1:, 1:] = s.raw
    x = np.diff(np.diff(full, axis=0), axis=1)
    rng = np.random.default_rng(3)
    for _ in range(25):
        a1, b1 = sorted(rng.integers(0, n + 1, 2))
        a2, b2 = sorted(rng.integers(0, n + 1, 2))
        direct = x[a1:b1, a2:b2].sum()
        assert rectangle_sum(s, (a1, a2), (b1, b2)) == pytest.approx(direct)


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
        s = simulate(spec, grid, replicate_generator(SEED, 200 + r))
        means.append(s.raw[-1, -1] / (n * n))
        for a1, a2 in positions:
            sums[(a1, a2)].append(rectangle_sum(s, (a1, a2), (a1 + h, a2 + h)))
    variances = [np.var(sums[pos], ddof=1) for pos in positions]
    se = max(variances) * math.sqrt(2 / (reps - 1))
    assert max(variances) - min(variances) < 6 * se, variances
    # aggregate spin mean vanishes at the joint rate
    assert abs(np.mean(means)) < 4 / math.sqrt(reps * n * n)


def test_stats_identity_trivial_single_spin():
    from partition_fields import check_identity

    spec = ModelSpec(ModelKind.KARLIN_1D, (0.6,), (1,))
    rec = check_identity("karlin_var", spec, 500, SEED)
    assert rec.analytic == pytest.approx(1.0, abs=1e-9)
    assert abs(rec.mc - 1.0) <= 3 * rec.se


def test_marginal_values_appear_in_field():
    # raw increments of the generalized forest model live on the marginal
    law = MarginalLaw.two_point(2.0, -1.0, 1.0 / 3.0)
    spec = ModelSpec(ModelKind.GENERALIZED_HS_1D, (0.25,), (64,), forest_depth=500, marginal=law)
    ts = tuple((i + 1) / 64 for i in range(64))
    s = simulate(spec, CornerGrid(ts), replicate_generator(SEED, 11))
    increments = np.diff(np.concatenate(([0.0], s.raw)))
    assert set(np.round(np.unique(increments), 9)) <= {-1.0, 2.0}
