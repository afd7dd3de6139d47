"""Monte Carlo replicate driver and the estimators that turn fields into verdicts.

Replicate r always draws from its own stream,
``seeding.replicate_generators(base_seed, r, r + 1)``, and the estimators
run in the parent over the replicate-indexed value matrix, so the report is
a pure function of (base seed, spec, grid, R): worker count and
scheduling cannot change a single output bit.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import lru_cache, partial

import numpy as np

from ._special import kolmogorov_sf, ndtr
from .fields import KIND_TABLE, Axis, CornerGrid, ModelSpec, batch_size, normalization, simulate, truncation_summary
from .partition1d import expected_occupancy
from .renewal import q_sq_tail_bound, var_xstar, weights
from .seeding import SCHEME_ID, normalize_seed, replicate_generators, seed_to_hex

__all__ = [
    "ReplicateReport",
    "IdentityRecord",
    "DegenerateSampleError",
    "run_replicates",
    "ks_normal",
    "empirical_cov",
]


class DegenerateSampleError(ValueError):
    """A sample with zero spread was handed to a distributional test."""


@dataclass(frozen=True)
class IdentityRecord:
    """One finite-n variance identity: analytic target vs Monte Carlo."""

    name: str
    analytic: float
    mc: float
    se: float
    kind: str  # "exact" or "exact-mod-truncation"
    truncation_allowance: float = 0.0

    def gap(self) -> float:
        return abs(self.mc - self.analytic)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ReplicateReport:
    """Aggregates of R independent replicates of one model/grid."""

    spec: ModelSpec
    grid: CornerGrid
    replicates: int
    base_seed_hex: str
    z_norm: float
    sigma: float
    mean_vec: np.ndarray
    cov_mat: np.ndarray
    cov_se: np.ndarray
    ks: list[dict]
    identities: dict[str, IdentityRecord]
    truncation: dict[str, float]

    def to_dict(self) -> dict:
        return {
            "model": self.spec.to_dict(),
            "grid": self.grid.to_dict(),
            "replicates": self.replicates,
            "seed": self.base_seed_hex,
            "scheme": SCHEME_ID,
            "z_norm": self.z_norm,
            "sigma": self.sigma,
            "mean_vec": self.mean_vec.tolist(),
            "cov_mat": self.cov_mat.tolist(),
            "cov_se": self.cov_se.tolist(),
            "ks": self.ks,
            "identities": {k: v.to_dict() for k, v in self.identities.items()},
            "truncation": self.truncation,
        }


def _replicate_batch(spec: ModelSpec, grid: CornerGrid, base_seed: int, r0: int, r1: int) -> np.ndarray:
    return simulate(spec, grid, replicate_generators(base_seed, r0, r1)).reshape(r1 - r0, math.prod(grid.shape()))


def simulate_raw_matrix(
    spec: ModelSpec, grid: CornerGrid, replicates: int, base_seed: int | str, parallelism: int = 1
) -> np.ndarray:
    """Raw corner sums, one row per replicate, assembled in replicate order.

    A task is one simulate batch of ``batch_size`` replicates, and in a pool
    of at most a chunk, a quarter of a worker's share.  No replicates give
    an empty (0, corners) matrix.
    """
    if replicates < 0:
        raise ValueError(f"replicates must be >= 0, got {replicates}")
    base_seed = normalize_seed(base_seed)
    if replicates == 0:
        return _replicate_batch(spec, grid, base_seed, 0, 0)
    workers = max(1, int(parallelism))
    chunk = max(16, math.ceil(replicates / (4 * workers)))
    pooled = workers > 1 and replicates > chunk
    step = min(batch_size(spec, grid), chunk) if pooled else batch_size(spec, grid)
    starts = range(0, replicates, step)
    ends = [min(r0 + step, replicates) for r0 in starts]
    run = partial(_replicate_batch, spec, grid, base_seed)
    if not pooled:
        return np.concatenate(list(map(run, starts, ends)))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return np.concatenate(list(pool.map(run, starts, ends)))


def run_replicates(
    spec: ModelSpec,
    grid: CornerGrid,
    replicates: int,
    base_seed: int | str,
    parallelism: int = 1,
) -> ReplicateReport:
    """Simulate R replicates and estimate moments, normality and identities.

    The result is bit-identical for any ``parallelism``: replicates own
    disjoint streams and all reductions happen here in replicate order.
    """
    if replicates < 2:
        raise ValueError("need at least 2 replicates")
    base_seed = normalize_seed(base_seed)
    target = _identity_target(spec) if _grid_ends_at_one(grid) else None
    raw = simulate_raw_matrix(spec, grid, replicates, base_seed, parallelism)
    z, sigma = normalization(spec)
    normalized = raw / z
    mean_vec, cov_mat, cov_se = empirical_cov(normalized)

    ks = [{"t": label, "statistic": None, "p_value": None, "degenerate": True} for label in _corner_labels(grid)]
    # one KS pass over every corner with 100 samples and some spread
    testable = ((np.ptp(normalized, axis=0) > 0) & (replicates >= 100)).nonzero()[0]
    if testable.size:
        statistics, pvalues = ks_normal(normalized[:, testable], 1.0)
        for j, stat, pvalue in zip(testable.tolist(), statistics.tolist(), pvalues.tolist()):
            ks[j] = {"t": ks[j]["t"], "statistic": stat, "p_value": pvalue}

    identities = {}
    if target is not None:
        rec = _identity_record(spec, raw[:, -1], target)
        identities[rec.name] = rec

    return ReplicateReport(
        spec=spec,
        grid=grid,
        replicates=replicates,
        base_seed_hex=seed_to_hex(base_seed),
        z_norm=z,
        sigma=sigma,
        mean_vec=mean_vec,
        cov_mat=cov_mat,
        cov_se=cov_se,
        ks=ks,
        identities=identities,
        truncation=truncation_summary(spec),
    )


def _corner_labels(grid: CornerGrid) -> list:
    if grid.is_2d:
        return [[t1, t2] for t1 in grid.t1 for t2 in grid.t2]
    return [[t] for t in grid.t1]


def _grid_ends_at_one(grid: CornerGrid) -> bool:
    ends = grid.t1[-1] == 1.0 and (grid.t2 is None or grid.t2[-1] == 1.0)
    return ends


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def empirical_cov(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mean, unbiased covariance, delete-one jackknife SE of each entry).

    The jackknife deviations have the closed form
    (S - R u_i u_i') / ((R-1)(R-2)) with u_i the centered rows, so the SE
    needs only elementwise second and fourth moments.  SE is NaN for R < 3.
    The matrix is taken in C order: the mean's and BLAS's summation orders
    follow the memory layout, so a Fortran-ordered copy would move the
    last bits.
    """
    x = np.ascontiguousarray(vectors, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("need a (R >= 2) x m matrix of replicate vectors")
    big_r, m = x.shape
    mean = x.mean(axis=0)
    u = x - mean
    s = u.T @ u
    cov = s / (big_r - 1)
    if big_r < 3:
        se = np.full((m, m), np.nan)
    else:
        m4 = (u**2).T @ (u**2)
        ss = np.maximum(big_r**2 * m4 - big_r * s**2, 0.0)
        se = np.sqrt((big_r - 1) / big_r * ss) / ((big_r - 1) * (big_r - 2))
    return mean, cov, se


def ks_normal(samples, sigma: float) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """One-sample Kolmogorov-Smirnov test against Normal(0, sigma^2).

    Returns (statistic, asymptotic p-value), the p-value from the Kolmogorov
    distribution's survival function at sqrt(n) * statistic.  A matrix is
    tested column by column and gives one array of each, with the normal
    CDF and the Kolmogorov tail each evaluated once over all columns; every
    column's values equal, bit for bit, those of the column tested alone.
    """
    x = np.sort(np.asarray(samples, dtype=np.float64), axis=0)
    n = x.shape[0]
    if n < 100:
        raise ValueError("need at least 100 samples")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if np.any(x[0] == x[-1]):
        raise DegenerateSampleError("sample has zero spread")
    cdf = ndtr(x / sigma)
    grid = (np.arange(0, n + 1) / n).reshape(-1, *(1,) * (x.ndim - 1))
    stat = np.maximum(np.max(grid[1:] - cdf, axis=0), np.max(cdf - grid[:-1], axis=0))
    pvalue = kolmogorov_sf(math.sqrt(n) * stat)
    return (float(stat), float(pvalue)) if x.ndim == 1 else (stat, pvalue)


def _identity_record(spec: ModelSpec, s_final: np.ndarray, target: tuple[float, str, float]) -> IdentityRecord:
    """Monte Carlo Var(S_n) at t = 1 against the finite-n analytic value.

    The urn identity Var(S_n) = E[#odd boxes] is exact; the forest-backed
    identities are exact for the untruncated partition, so the record carries
    the window truncation allowance of ``_identity_target``.  SE assumes
    approximate normality of S_n: Var_hat * sqrt(2/(R-1)).
    """
    analytic, kind, allowance = target
    mc = float(np.var(s_final, ddof=1))
    se = mc * math.sqrt(2.0 / (s_final.size - 1))
    return IdentityRecord(KIND_TABLE[spec.kind].identity, analytic, mc, se, kind, allowance)


@lru_cache(maxsize=64)
def _axis_variance(axis: Axis) -> float:
    """Exact Var of one axis's ±1 partial sum S_n (untruncated forest), kept across calls."""
    if axis.is_urn:
        return expected_occupancy(axis.pmf, axis.n)  # E[#odd boxes]
    # b_n^2 Var(X*), one horizon K for both.  weights() drops b_{n,j} for j <= n - K,
    # where b_{n,j} ~ n q_{-j}: n^2 times the q^2 tail past K that Var(X*) adds too
    rs = axis.renewal
    b_sq = weights(rs, axis.n).b_sq + axis.n**2 * q_sq_tail_bound(axis.alpha, rs.kmax)
    return b_sq * var_xstar(rs)


def _identity_target(spec: ModelSpec) -> tuple[float, str, float]:
    """(analytic Var(S_n) at t = 1, identity kind, truncation allowance).

    The variance is the product of the axes' variances times E[X^2].  A pair
    lost to truncation on one forest axis decorrelates terms weighted by the
    other axes' full pair-correlation mass (their variances), so each forest
    axis contributes 2 * bound * n^2 * (product of the other variances) * E[X^2].
    """
    m2 = spec.marginal.second_moment
    variances = [_axis_variance(axis) for axis in spec.axes]
    allowance = 0.0
    for q, axis in enumerate(spec.axes):
        if not axis.is_urn:
            others = math.prod(v for p, v in enumerate(variances) if p != q) * m2
            allowance += 2.0 * axis.truncation_bound * axis.n * axis.n * others
    kind = "exact" if all(axis.is_urn for axis in spec.axes) else "exact-mod-truncation"
    return math.prod(variances) * m2, kind, allowance
