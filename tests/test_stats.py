"""Estimators, KS machinery, replicate driver determinism."""

import json
import math

import numpy as np
import pytest
from scipy import stats as sps

from partition_fields import (
    CornerGrid,
    HurstPair,
    ModelKind,
    ModelSpec,
    empirical_cov,
    fbs_cov_matrix,
    ks_normal,
    replicate_generator,
    run_replicates,
    sample_fbs,
    simulate,
)
from partition_fields.stats import DegenerateSampleError, _kolmogorov_sf

SEED = "57a7000000000000000000000000000b"


# ---------------------------------------------------------------------------
# empirical covariance
# ---------------------------------------------------------------------------

def test_empirical_cov_identical_vectors():
    _, cov, _ = empirical_cov(np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]]))
    assert np.allclose(cov, 0.0)


def test_empirical_cov_hand_example():
    mean, cov, se = empirical_cov(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    assert np.allclose(mean, [0.0, 0.0])
    assert np.allclose(cov, [[2.0, 0.0], [0.0, 0.0]])
    assert np.all(np.isnan(se))  # jackknife needs R >= 3


def test_empirical_cov_against_two_pass_oracle(rng):
    x = rng.standard_normal((200, 4))
    mean, cov, _ = empirical_cov(x)
    m2 = x.mean(axis=0)
    brute = np.zeros((4, 4))
    for row in x:
        brute += np.outer(row - m2, row - m2)
    brute /= 199
    assert np.max(np.abs(cov - brute)) < 1e-12
    assert np.max(np.abs(mean - m2)) < 1e-14


def test_jackknife_se_against_direct_recomputation(rng):
    x = rng.standard_normal((40, 3))
    _, cov, se = empirical_cov(x)
    thetas = []
    for i in range(40):
        sub = np.delete(x, i, axis=0)
        m = sub.mean(axis=0)
        thetas.append((sub - m).T @ (sub - m) / (sub.shape[0] - 1))
    thetas = np.array(thetas)
    direct = np.sqrt(39 / 40 * np.sum((thetas - thetas.mean(axis=0)) ** 2, axis=0))
    assert np.max(np.abs(se - direct)) < 1e-10


def test_empirical_cov_shape_errors():
    with pytest.raises(ValueError):
        empirical_cov(np.zeros((1, 3)))
    with pytest.raises(ValueError):
        empirical_cov(np.zeros(5))


# ---------------------------------------------------------------------------
# KS test
# ---------------------------------------------------------------------------

def test_ks_statistic_hand_example():
    # F-hat steps 0,.25,.5,.75,1 against Phi: largest gap at ±0.5
    samples = np.array([-1.0, -0.5, 0.5, 1.0] * 25)  # padding to n >= 100
    # use exactly the 4-point variant through the internal pieces
    x = np.sort(np.array([-1.0, -0.5, 0.5, 1.0]))
    cdf = sps.norm.cdf(x)
    d = max(max((i + 1) / 4 - c, c - i / 4) for i, c in enumerate(cdf))
    assert d == pytest.approx(0.191462, abs=1e-6)
    stat, _ = ks_normal(samples, 1.0)
    assert stat == pytest.approx(d, abs=1e-12)


def test_ks_pvalue_matches_reference_series():
    for lam in (0.3, 0.6, 1.0, 1.5, 2.2):
        assert _kolmogorov_sf(lam) == pytest.approx(sps.kstwobign.sf(lam), abs=1e-10)


def test_ks_null_behavior_and_errors():
    rng = replicate_generator(SEED, 0)
    samples = rng.standard_normal(10_000) * 2.5
    stat, p = ks_normal(samples, 2.5)
    assert p > 0.01
    with pytest.raises(ValueError):
        ks_normal(np.zeros(10), 1.0)  # too few
    with pytest.raises(DegenerateSampleError):
        ks_normal(np.zeros(200), 1.0)
    with pytest.raises(ValueError):
        ks_normal(samples, 0.0)


def test_ks_calibration_under_null():
    rng = replicate_generator(SEED, 1)
    rejections = 0
    trials = 500
    for _ in range(trials):
        stat, p = ks_normal(rng.standard_normal(200), 1.0)
        rejections += int(p < 0.05)
    rate = rejections / trials
    assert 0.03 <= rate <= 0.07, rate


# ---------------------------------------------------------------------------
# replicate driver
# ---------------------------------------------------------------------------

def test_run_replicates_two_sample_hand_check():
    spec = ModelSpec(ModelKind.KARLIN_1D, (0.6,), (50,))
    grid = CornerGrid((0.5, 1.0))
    rep = run_replicates(spec, grid, 2, SEED)
    rows = simulate(spec, grid, [replicate_generator(SEED, i) for i in range(2)])
    z = rep.z_norm
    assert np.allclose(rep.mean_vec, rows.mean(axis=0) / z)
    assert np.allclose(rep.cov_mat, np.cov(rows.T / z, ddof=1))


def test_run_replicates_parallel_bit_identical():
    spec = ModelSpec(ModelKind.KARLIN_2D, (0.6, 0.6), (64, 64))
    grid = CornerGrid((0.5, 1.0), (0.5, 1.0))
    a = run_replicates(spec, grid, 120, SEED, parallelism=1)
    b = run_replicates(spec, grid, 120, SEED, parallelism=4)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


def test_run_replicates_validates_r():
    spec = ModelSpec(ModelKind.KARLIN_1D, (0.6,), (10,))
    with pytest.raises(ValueError):
        run_replicates(spec, CornerGrid((1.0,)), 1, SEED)


def test_identity_target_fails_before_any_simulation(monkeypatch):
    # expected_occupancy gives up (RuntimeError) for urn axes with large
    # alpha; that must surface before R replicates are simulated
    from partition_fields import run_suite, stats

    def unreachable(*args, **kwargs):
        raise AssertionError("simulated before the identity target was known")

    def give_up(pmf, n):
        raise RuntimeError("expected_occupancy gave up")

    monkeypatch.setattr(stats, "simulate_raw_matrix", unreachable)
    monkeypatch.setattr(stats, "expected_occupancy", give_up)
    spec = ModelSpec(ModelKind.KARLIN_1D, (0.8,), (1024,))
    with pytest.raises(RuntimeError, match="gave up"):
        run_replicates(spec, CornerGrid((0.5, 1.0)), 10, SEED)
    with pytest.raises(RuntimeError, match="gave up"):
        run_suite("variance", spec=spec, replicates=10, seed=SEED)


@pytest.mark.parametrize("kind, alphas, calls", [
    (ModelKind.KARLIN_2D, (0.6, 0.6), {"expected_occupancy": 1, "weights": 0}),
    (ModelKind.HS_2D, (0.25, 0.25), {"expected_occupancy": 0, "weights": 1}),
    (ModelKind.COMBINED_2D, (0.25, 0.6), {"expected_occupancy": 1, "weights": 1}),
])
def test_identity_target_evaluates_each_distinct_axis_once(monkeypatch, kind, alphas, calls):
    from partition_fields import stats

    counts = dict.fromkeys(calls, 0)

    def counting(name):
        inner = getattr(stats, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(stats, name, counting(name))
    spec = ModelSpec(kind, alphas, (64, 64))
    analytic, _, _ = stats._identity_target(spec)
    assert counts == calls
    assert analytic == math.prod(stats._axis_variance(axis) for axis in spec.axes)


def test_covariance_estimator_consistency_rate():
    # against the exactly known law of the reference sheet sampler, the
    # entrywise error must shrink roughly like 1/sqrt(R); averaging over
    # independent batches keeps the slope estimate out of the noise
    pair = HurstPair(0.35, 0.7)
    t = (0.5, 1.0)
    target = fbs_cov_matrix(pair, t, t)
    errs = []
    stream = 100
    for big_r in (500, 2000, 8000):
        batch = []
        for _ in range(10):
            rng = replicate_generator(SEED, stream)
            stream += 1
            vals = sample_fbs(pair, t, t, rng, size=big_r).reshape(big_r, -1)
            _, cov, _ = empirical_cov(vals)
            batch.append(np.mean(np.abs(cov - target)))
        errs.append(np.mean(batch))
    assert errs[0] > errs[2]  # monotone within noise
    slope = np.polyfit(np.log([500, 2000, 8000]), np.log(errs), 1)[0]
    assert -0.7 <= slope <= -0.3, (errs, slope)
