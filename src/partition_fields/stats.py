"""Monte Carlo replicate driver and the estimators that turn fields into verdicts.

Replicate r always draws from the stream ``split(base_seed, r)`` and the
estimators run in the parent over the replicate-indexed value matrix, so the
report is a pure function of (base seed, spec, grid, R): worker count and
scheduling cannot change a single output bit.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import ndtr

from .fields import KIND_TABLE, Axis, CornerGrid, ModelSpec, batch_size, normalization, simulate
from .partition1d import expected_occupancy
from .renewal import cached_renewal_sequence, var_xstar, weights
from .seeding import SCHEME_ID, normalize_seed, replicate_generator, seed_to_hex

__all__ = [
    "ReplicateReport",
    "IdentityRecord",
    "DegenerateSampleError",
    "run_replicates",
    "ks_normal",
    "empirical_cov",
]

_IDENTITY_KMAX = 1 << 21
_KOLMOGOROV_TOL = 1e-12  # the Kolmogorov series stops at its first term below this


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
            "model": {
                "kind": self.spec.kind.value,
                "alphas": list(self.spec.alphas),
                "n": list(self.spec.n),
                "forest_depth": self.spec.forest_depth,
            },
            "grid": {"t1": list(self.grid.t1), "t2": list(self.grid.t2) if self.grid.t2 else None},
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


def _replicate_chunk(spec: ModelSpec, grid: CornerGrid, base_seed: int, r0: int, r1: int) -> np.ndarray:
    out = np.empty((r1 - r0, math.prod(grid.shape())))
    step = batch_size(spec, grid)
    for b0 in range(r0, r1, step):
        rngs = [replicate_generator(base_seed, r) for r in range(b0, min(b0 + step, r1))]
        out[b0 - r0 : b0 - r0 + len(rngs)] = simulate(spec, grid, rngs).reshape(len(rngs), -1)
    return out


def simulate_raw_matrix(
    spec: ModelSpec, grid: CornerGrid, replicates: int, base_seed: int | str, parallelism: int = 1
) -> np.ndarray:
    """Raw corner sums, one row per replicate, assembled in replicate order."""
    base_seed = normalize_seed(base_seed)
    workers = max(1, int(parallelism))
    if workers == 1 or replicates < 2:
        return _replicate_chunk(spec, grid, base_seed, 0, replicates)
    # replicate 0 runs here first, warming shared caches (renewal constants,
    # zeta) before forking workers; its row is kept
    first = _replicate_chunk(spec, grid, base_seed, 0, 1)
    chunk = max(16, math.ceil(replicates / (4 * workers)))
    bounds = list(range(1, replicates, chunk)) + [replicates]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_replicate_chunk, spec, grid, base_seed, r0, r1)
            for r0, r1 in zip(bounds[:-1], bounds[1:])
        ]
        return np.concatenate([first] + [fut.result() for fut in futures], axis=0)


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
    # the identity target can fail (see expected_occupancy); fail before simulating
    target = _identity_target(spec) if _grid_ends_at_one(grid) else None
    raw = simulate_raw_matrix(spec, grid, replicates, base_seed, parallelism)
    z, sigma = normalization(spec)
    normalized = raw / z
    mean_vec, cov_mat, cov_se = empirical_cov(normalized)

    ks = []
    corners = _corner_labels(grid)
    for j, label in enumerate(corners):
        col = normalized[:, j]
        entry: dict = {"t": label}
        if col.size >= 100 and np.ptp(col) > 0:
            stat, pvalue = ks_normal(col, 1.0)
            entry.update(statistic=stat, p_value=pvalue)
        else:
            entry.update(statistic=None, p_value=None, degenerate=True)
        ks.append(entry)

    identities = {}
    if target is not None:
        rec = _identity_record(spec, raw[:, -1], target)
        identities[rec.name] = rec

    truncation = {
        f"direction_{q + 1}": axis.truncation_bound
        for q, axis in enumerate(spec.axes)
        if not axis.is_urn
    }
    if truncation:
        truncation["max"] = max(truncation.values())
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
        truncation=truncation,
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
    """
    x = np.asarray(vectors, dtype=np.float64)
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


def ks_normal(samples, sigma: float) -> tuple[float, float]:
    """One-sample Kolmogorov-Smirnov test against Normal(0, sigma^2).

    Returns (statistic, asymptotic p-value); the Kolmogorov series is
    truncated once terms drop below 1e-12.
    """
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = x.size
    if n < 100:
        raise ValueError("need at least 100 samples")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if x[0] == x[-1]:
        raise DegenerateSampleError("sample has zero spread")
    cdf = ndtr(x / sigma)
    grid_hi = np.arange(1, n + 1) / n
    grid_lo = np.arange(0, n) / n
    stat = float(max(np.max(grid_hi - cdf), np.max(cdf - grid_lo)))
    return stat, _kolmogorov_sf(math.sqrt(n) * stat)


def _kolmogorov_sf(lam: float) -> float:
    if lam <= 0:
        return 1.0
    total = 0.0
    for j in range(1, 100001):
        term = math.exp(-2.0 * j * j * lam * lam)
        total += (term if j % 2 else -term)
        if term < _KOLMOGOROV_TOL:
            break
    return float(min(1.0, max(0.0, 2.0 * total)))


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


def _axis_variance(axis: Axis) -> float:
    """Exact Var of one axis's ±1 partial sum S_n (untruncated forest)."""
    if axis.is_urn:
        return expected_occupancy(axis.pmf, axis.n)[1]  # E[#odd boxes]
    kmax = max(_IDENTITY_KMAX, 16 * axis.n)
    b_sq = weights(cached_renewal_sequence(axis.pmf, kmax), axis.n).b_sq
    sum_q_sq = 1.0 / var_xstar(cached_renewal_sequence(axis.pmf, _IDENTITY_KMAX))
    return b_sq / sum_q_sq


def _identity_target(spec: ModelSpec) -> tuple[float, str, float]:
    """(analytic Var(S_n) at t = 1, identity kind, truncation allowance).

    The variance is the product of the axes' variances times E[X^2].  A pair
    lost to truncation on one forest axis decorrelates terms weighted by the
    other axes' full pair-correlation mass (their variances), so each forest
    axis contributes 2 * bound * n^2 * (product of the other variances) * E[X^2].
    """
    m2 = spec.marginal.second_moment
    # equal axes (karlin2d or hs2d with one alpha and n) share one evaluation
    by_axis = {axis: _axis_variance(axis) for axis in dict.fromkeys(spec.axes)}
    variances = [by_axis[axis] for axis in spec.axes]
    allowance = 0.0
    for q, axis in enumerate(spec.axes):
        if not axis.is_urn:
            others = math.prod(v for p, v in enumerate(variances) if p != q) * m2
            allowance += 2.0 * axis.truncation_bound * axis.n * axis.n * others
    kind = "exact" if all(axis.is_urn for axis in spec.axes) else "exact-mod-truncation"
    return math.prod(variances) * m2, kind, allowance
