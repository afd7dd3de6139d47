"""One-dimensional random-partition engines.

Two partitions of the index line are provided:

* the infinite urn scheme: i ~ j iff the i-th and j-th draws landed in the
  same box, with exact occupancy statistics (distinct boxes, per-multiplicity
  counts, odd-occupancy count);
* the ancestral forest: each site i is joined to i - J_i for heavy-tailed
  jumps J_i, and i ~ j iff their ancestral lines meet.  Lines are infinite,
  so the forest is sampled on a window (lo, hi] with a quantified truncation
  diagnostic; sites whose line exits the window become their own roots,
  which errs toward independence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .distributions import PmfKind, PowerLawPmf
from .renewal import cached_renewal_sequence

__all__ = [
    "UrnPath",
    "OccupancySummary",
    "ForestWindow",
    "sample_urn",
    "occupancy",
    "occupancy_increment",
    "expected_occupancy",
    "sample_forest",
    "build_forest",
    "roots_of",
    "truncation_pair_bound",
]


@dataclass(frozen=True)
class UrnPath:
    """Label draws Y_1..Y_n with running per-label count parities.

    running_parity[i] is 1 when the number of j <= i with Y_j = Y_i is odd.
    """

    labels: np.ndarray
    running_parity: np.ndarray

    @classmethod
    def from_labels(cls, labels) -> "UrnPath":
        labels = np.asarray(labels, dtype=np.int64)
        if labels.size == 0:
            raise ValueError("label sequence must be nonempty")
        return cls(labels=labels, running_parity=_running_parity(labels))

    def __len__(self) -> int:
        return self.labels.size


def _running_parity(labels: np.ndarray) -> np.ndarray:
    # occurrence rank of each draw within its own label, via one stable sort
    n = labels.size
    _, inv = np.unique(labels, return_inverse=True)
    order = np.argsort(inv, kind="stable")
    sorted_inv = inv[order]
    boundaries = np.empty(n, dtype=bool)
    boundaries[0] = True
    np.not_equal(sorted_inv[1:], sorted_inv[:-1], out=boundaries[1:])
    starts = np.flatnonzero(boundaries)
    offsets = np.zeros(n, dtype=np.int64)
    offsets[starts] = np.arange(n, dtype=np.int64)[starts]
    np.maximum.accumulate(offsets, out=offsets)
    rank_sorted = np.arange(n, dtype=np.int64) - offsets  # 0-based within label
    parity = np.empty(n, dtype=np.uint8)
    parity[order] = ((rank_sorted + 1) & 1).astype(np.uint8)
    return parity


@dataclass(frozen=True)
class OccupancySummary:
    """Counts of occupied boxes after n draws."""

    n: int
    k_n: int
    k_n_r: dict[int, int]
    k_odd: int

    def __post_init__(self):
        if sum(self.k_n_r.values()) != self.k_n:
            raise ValueError("multiplicity histogram inconsistent with box count")
        if sum(r * c for r, c in self.k_n_r.items()) != self.n:
            raise ValueError("multiplicity histogram inconsistent with draw count")


def sample_urn(pmf, n: int, rng: np.random.Generator) -> UrnPath:
    """Draw n labels i.i.d. from the pmf and compute running parities."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return UrnPath.from_labels(pmf.sample(rng, size=n))


def occupancy(path: UrnPath) -> OccupancySummary:
    """Exact occupancy counts of the whole path."""
    return _occupancy_of(path.labels)


def occupancy_increment(path: UrnPath, m: int, n: int) -> OccupancySummary:
    """Occupancy of the sub-sample Y_{m+1}..Y_n alone."""
    if not 0 <= m < n <= len(path):
        raise IndexError(f"need 0 <= m < n <= {len(path)}, got ({m}, {n})")
    return _occupancy_of(path.labels[m:n])


def _occupancy_of(labels: np.ndarray) -> OccupancySummary:
    _, counts = np.unique(labels, return_counts=True)
    mult, mult_counts = np.unique(counts, return_counts=True)
    return OccupancySummary(
        n=int(labels.size),
        k_n=int(counts.size),
        k_n_r={int(r): int(c) for r, c in zip(mult, mult_counts)},
        k_odd=int(np.count_nonzero(counts & 1)),
    )


def expected_occupancy(pmf, n: int, tol: float = 1e-10, max_terms: int = 1 << 28) -> tuple[float, float]:
    """(E[#occupied boxes], E[#odd-occupied boxes]) after n draws, exactly.

    Sums 1-(1-p_l)^n and (1-(1-2 p_l)^n)/2 over boxes in blocks.  Both
    summands are n*p_l + O((n p_l)^2), so once the squared-mass tail bound
    n^2 * sum_{l>=m} p_l^2 drops below ``tol`` the remaining boxes are
    replaced by the analytic first-order tail n * tail(m); the discarded
    second-order part is below ``tol`` by construction.  (Float rounding adds
    about eps per explicitly summed box on top of the certificate.)
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    block = 1 << 16
    phi = 0.0
    odd = 0.0
    lo = 1
    while True:
        cert = n * n * pmf.tail_sq_at(lo)
        if cert < tol:
            t = float(pmf.tail_at(lo))
            return phi + n * t, odd + n * t
        if lo > max_terms:
            raise RuntimeError(
                f"expected_occupancy needs more than {max_terms} explicit boxes "
                f"for n={n} at tol={tol}; loosen tol"
            )
        p = pmf.pmf_block(lo, lo + block)
        live = p > 0.0
        pv = p[live]
        phi += float(np.sum(-np.expm1(n * np.log1p(-pv)), dtype=np.longdouble))
        small = pv < 0.25
        odd_terms = np.empty_like(pv)
        odd_terms[small] = -0.5 * np.expm1(n * np.log1p(-2.0 * pv[small]))
        odd_terms[~small] = 0.5 * (1.0 - np.power(1.0 - 2.0 * pv[~small], n))
        odd += float(np.sum(odd_terms, dtype=np.longdouble))
        if not np.all(live) and float(pmf.tail_at(lo + block)) == 0.0:
            return phi, odd  # finite support exhausted
        lo += block
        block = min(2 * block, 1 << 22)


@dataclass(frozen=True)
class ForestWindow:
    """Ancestral forest restricted to the index window (lo, hi].

    ``roots[i - lo - 1]`` is the canonical component representative of site
    i: the smallest index on its ancestral path inside the window.  Sites
    whose parent i - J_i falls at or below lo are their own roots.
    ``truncation_error_bound`` bounds, per ordered site pair of [1, hi], the
    probability that the pair shares a component in the untruncated model
    but not in the window (see :func:`truncation_pair_bound`).
    """

    lo: int
    hi: int
    jumps: np.ndarray
    roots: np.ndarray
    truncation_error_bound: float

    def __post_init__(self):
        w = self.hi - self.lo
        if self.jumps.shape != (w,) or self.roots.shape != (w,):
            raise ValueError("jumps/roots must cover the window")


def build_forest(jumps, lo: int, hi: int, truncation_error_bound: float = float("nan")) -> ForestWindow:
    """Resolve components for given jumps on (lo, hi] by pointer doubling.

    Every site has exactly one parent below it, so the parent map is already
    a forest; iterating parent <- parent[parent] reaches the fixed point in
    O(log depth) vectorized passes.  Roots are automatically the smallest
    window index of their component, hence stable and idempotent.
    """
    jumps = np.asarray(jumps, dtype=np.int64)
    w = hi - lo
    if jumps.shape != (w,):
        raise ValueError(f"need {w} jumps for window ({lo}, {hi}]")
    if np.any(jumps < 1):
        raise ValueError("jumps must be >= 1")
    offsets = np.arange(w, dtype=np.int64)
    parent = offsets - jumps
    np.copyto(parent, offsets, where=parent < 0)
    while True:
        nxt = parent[parent]
        if np.array_equal(nxt, parent):
            break
        parent = nxt
    roots = parent + (lo + 1)
    return ForestWindow(
        lo=lo, hi=hi, jumps=jumps, roots=roots, truncation_error_bound=truncation_error_bound
    )


def sample_forest(pmf: PowerLawPmf, lo: int, hi: int, rng: np.random.Generator) -> ForestWindow:
    """Sample jumps on (lo, hi] and resolve window components."""
    if getattr(pmf, "kind", None) is not PmfKind.HS_TAIL:
        raise ValueError("forest jumps must follow an HsTail pmf")
    if not lo < 0 <= hi:
        raise ValueError(f"window must satisfy lo < 0 <= hi, got ({lo}, {hi})")
    jumps = pmf.sample(rng, size=hi - lo)
    bound = truncation_pair_bound(pmf, lo)
    return build_forest(jumps, lo, hi, truncation_error_bound=bound)


@lru_cache(maxsize=64)
def truncation_pair_bound(pmf: PowerLawPmf, lo: int) -> float:
    """Per-pair bound on losing a coalescence below the window floor.

    For sites 1 <= i < j <= hi, the chance that their lines meet only at or
    below lo is at most sum_{m <= lo} q_{i-m} q_{j-m}.  Summing over all
    pairs and applying Cauchy-Schwarz blockwise gives

        sum_{i<j<=hi} P(pair lost) <= hi^2 * (1/2) * sum_{k > -lo} q_k^2,

    so ``(1/2) sum_{k > -lo} q_k^2`` bounds the average per ordered pair and
    ``2 * bound * hi^2`` bounds the variance deficit of the window model.
    The q-tail beyond the computed horizon uses the power-decay estimate of
    :meth:`RenewalSequence.tail_sum_sq_from`.
    """
    depth = -lo
    kmax = max(1 << 18, 4 * depth)
    rs = cached_renewal_sequence(pmf, kmax)
    return 0.5 * rs.tail_sum_sq_from(depth)


def roots_of(window: ForestWindow, indices) -> np.ndarray:
    """Canonical component representative for each requested index."""
    idx = np.asarray(indices, dtype=np.int64)
    if np.any(idx <= window.lo) or np.any(idx > window.hi):
        raise IndexError(f"indices must lie in ({window.lo}, {window.hi}]")
    return window.roots[idx - window.lo - 1]
