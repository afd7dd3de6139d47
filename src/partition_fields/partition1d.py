"""One-dimensional random-partition engines.

Two partitions of the index line are provided:

* the infinite urn scheme: i ~ j iff the i-th and j-th draws landed in the
  same box, with exact occupancy statistics (distinct boxes, per-multiplicity
  counts, odd-occupancy count);
* the ancestral forest: each site i is joined to i - J_i for heavy-tailed
  jumps J_i, and i ~ j iff their ancestral lines meet.  Lines are infinite,
  so the jumps are sampled on a window (lo, hi] with a quantified truncation
  bound; a line is cut where it would leave the window, which errs toward
  independence.  Roots are found only for the query sites, by walking
  their lines down the window.

Each engine resolves its partition once, in the form the fields read: the
urn's box of each draw, the forest's root of each query site.
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
    "roots_of",
    "truncation_pair_bound",
]


@dataclass(frozen=True)
class UrnPath:
    """Label draws Y_1..Y_n, their boxes, and running per-box count parities.

    ``classes`` are the distinct labels in increasing order and
    ``classes[inverse[i]] == labels[i]``; running_parity[i] is 1 when the
    number of j <= i with Y_j = Y_i is odd.
    """

    labels: np.ndarray
    classes: np.ndarray
    inverse: np.ndarray
    running_parity: np.ndarray

    @classmethod
    def from_labels(cls, labels) -> "UrnPath":
        labels = np.asarray(labels, dtype=np.int64)
        if labels.size == 0:
            raise ValueError("label sequence must be nonempty")
        classes, inverse = np.unique(labels, return_inverse=True)
        return cls(labels, classes, inverse, _running_parity(inverse))

    def __len__(self) -> int:
        return self.labels.size


def _running_parity(inverse: np.ndarray) -> np.ndarray:
    # occurrence rank of each draw within its own box, via one stable sort
    n = inverse.size
    order = np.argsort(inverse, kind="stable")
    counts = np.bincount(inverse)
    rank_sorted = np.arange(n, dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)
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
    return _occupancy_of(np.bincount(path.inverse))


def occupancy_increment(path: UrnPath, m: int, n: int) -> OccupancySummary:
    """Occupancy of the sub-sample Y_{m+1}..Y_n alone."""
    if not 0 <= m < n <= len(path):
        raise IndexError(f"need 0 <= m < n <= {len(path)}, got ({m}, {n})")
    return _occupancy_of(np.bincount(path.inverse[m:n]))


def _occupancy_of(box_counts: np.ndarray) -> OccupancySummary:
    counts = box_counts[box_counts > 0]
    mult, mult_counts = np.unique(counts, return_counts=True)
    return OccupancySummary(
        n=int(counts.sum()),
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
    """Ancestral-forest jumps on the index window (lo, hi].

    ``jumps[i - lo - 1]`` is J_i: site i is joined to its parent i - J_i.
    Components are resolved on demand by :func:`roots_of`.
    """

    lo: int
    hi: int
    jumps: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "jumps", np.asarray(self.jumps, dtype=np.int64))
        w = self.hi - self.lo
        if self.jumps.shape != (w,):
            raise ValueError(f"need {w} jumps for window ({self.lo}, {self.hi}]")
        if np.any(self.jumps < 1):
            raise ValueError("jumps must be >= 1")  # a zero jump never leaves its site


def sample_forest(pmf: PowerLawPmf, lo: int, hi: int, rng: np.random.Generator) -> ForestWindow:
    """Sample the jumps of the window (lo, hi]."""
    if getattr(pmf, "kind", None) is not PmfKind.HS_TAIL:
        raise ValueError("forest jumps must follow an HsTail pmf")
    if not lo < 0 <= hi:
        raise ValueError(f"window must satisfy lo < 0 <= hi, got ({lo}, {hi})")
    return ForestWindow(lo, hi, pmf.sample(rng, size=hi - lo))


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
    """Canonical component representative for each requested index.

    The representative of site i is the smallest index on its ancestral line
    inside the window: the line is walked down, all requested lines at once,
    until its next parent i - J_i falls at or below lo.  The walk takes as
    many vectorized steps as the longest requested line has in-window sites.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if np.any(idx <= window.lo) or np.any(idx > window.hi):
        raise IndexError(f"indices must lie in ({window.lo}, {window.hi}]")
    first = window.lo + 1
    roots = idx.reshape(-1) - first  # window offsets; a line leaves at offset < 0
    live, offsets = np.arange(roots.size), roots
    while live.size:
        parents = offsets - window.jumps[offsets]
        inside = parents >= 0
        live, offsets = live[inside], parents[inside]
        roots[live] = offsets
    return roots.reshape(idx.shape) + first
