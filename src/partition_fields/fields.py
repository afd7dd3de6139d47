"""Partition-driven spin fields and their partial sums at grid corners.

Every model is a product of independent per-direction axes.  An axis is a
random partition of the sites 1..n of one direction: urn boxes with
alternating signs, or forest trees with identical signs.  A partial sum
depends on the partition only through how many sites of each class lie
below the corner: the count of class c among 1..floor(n*t_m), or for an
urn box its parity, which is the running sum of its alternating signs.
Given the partitions the spins are iid, so a sum reads a class only
through that column of counts, and classes with equal columns can share
one sum of their spins.  A replicate samples each axis as a pattern table
(``partition1d.Patterns``): its classes grouped by column, each pattern
with its size.  An urn axis draws its boxes' counts per corner segment and
groups them by parity code, so a row holds at most 2^corners - 1 patterns;
a forest axis resolves the roots of only the sites up to its last corner,
counts each root's sites per corner and keeps each root as a pattern of
size 1.
The spins of a pattern (1D) or pattern pair (2D) are summed from the
keyed hash of (pattern id, word index) under the replicate's spin key:
values drawn from each word in 1D, and in 2D the number of set bits among
the top N bits of the pair's words for its N spins.  The corner sums are
then one product per replicate, A X in 1D and A1 X A2^T in 2D.
Replicates are simulated in batches: each axis samples and groups the
partitions of a whole batch in one pass, the hash words of every pattern
are taken once per batch, and the 2D sums run over blocks of replicates.
They are float64 BLAS products of integer counts and integer pattern
sums, which are exact because every partial sum stays an integer below
2^53 (checked per batch).  The limit variance, the Hurst index and the
normalization factor also factor by direction, so each axis owns its
share of them.

Normalizations divide by Z so that the normalized field converges to the
*standard* fractional Brownian sheet; the plain power-law normalization is
recoverable by multiplying sigma back (both are reported).
"""

from __future__ import annotations

import enum
import math
import numbers
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
from scipy.special import gamma

from ._hashing import hash1, left_words, next_words, pair_heads, right_words
from .distributions import MarginalLaw, PmfKind, PowerLawPmf, make_hs_pmf, make_karlin_pmf
from .partition1d import Patterns, roots_of, urn_patterns
from .renewal import RenewalSequence, bn_sq_growth_constant, cached_renewal_sequence, q_sq_tail_bound, var_xstar
from .seeding import spin_key

__all__ = [
    "Axis",
    "KIND_TABLE",
    "ModelKind",
    "ModelSpec",
    "CornerGrid",
    "simulate",
    "batch_size",
    "normalization",
    "truncation_summary",
]

DEFAULT_FOREST_FLOOR = 10**5
_RENEWAL_KMAX = 1 << 18  # least renewal horizon of a forest axis; see Axis.renewal
# array elements one simulate batch may hold; see batch_size
_BATCH_ELEMENTS = 1 << 21
# pattern pairs one block of the 2D spin core holds, about; see _blocks
_CORE_ELEMENTS = 1 << 15
# a pattern pair's word j = j_hi * 2^16 + j_lo adds j_hi << 48 to its first identifier
# and j_lo << 48 to its second; see _sums_2d
_LOW_WORD_BITS = 16
_MAX_PAIR_WORDS = 1 << 32


class ModelKind(enum.Enum):
    KARLIN_1D = "karlin1d"
    GENERALIZED_KARLIN_1D = "generalized-karlin1d"
    HS_1D = "hs1d"
    GENERALIZED_HS_1D = "generalized-hs1d"
    KARLIN_2D = "karlin2d"
    HS_2D = "hs2d"
    COMBINED_2D = "combined2d"


class KindRow(NamedTuple):
    axes: tuple[PmfKind, ...]  # each direction's law, in direction order
    identity: str  # name of the finite-n variance identity in reports
    generalized: bool  # accepts a non-Rademacher marginal law


# a Zipf-type label law partitions by urn boxes, an exact-tail jump law by forest trees
_URN, _FOREST = PmfKind.KARLIN_ZIPF, PmfKind.HS_TAIL
KIND_TABLE = {
    ModelKind.KARLIN_1D: KindRow((_URN,), "karlin_var", False),
    ModelKind.GENERALIZED_KARLIN_1D: KindRow((_URN,), "karlin_var", True),
    ModelKind.HS_1D: KindRow((_FOREST,), "hs_var", False),
    ModelKind.GENERALIZED_HS_1D: KindRow((_FOREST,), "hs_var", True),
    ModelKind.KARLIN_2D: KindRow((_URN, _URN), "karlin2d_var", False),
    ModelKind.HS_2D: KindRow((_FOREST, _FOREST), "hs2d_var", False),
    ModelKind.COMBINED_2D: KindRow((_FOREST, _URN), "combined_var", False),
}


@dataclass(frozen=True)
class Axis:
    """One direction of a model: a random partition of the sites 1..n.

    ``depth`` puts a forest axis's floor at -depth: a line is cut where its
    next parent falls at or below it (forest axes only).
    """

    kind: PmfKind
    alpha: float
    n: int
    depth: int = 0

    @property
    def is_urn(self) -> bool:
        return self.kind is _URN

    @property
    def pmf(self) -> PowerLawPmf:
        """Label law (urn) or jump law (forest)."""
        return make_karlin_pmf(self.alpha) if self.is_urn else make_hs_pmf(self.alpha)

    @property
    def hurst(self) -> float:
        """Limit Hurst index: alpha/2 (urn), alpha + 1/2 (forest)."""
        return self.alpha / 2.0 if self.is_urn else self.alpha + 0.5

    @property
    def renewal(self) -> RenewalSequence:
        """q_0..q_K of a forest axis's jump law, K = max(2^18, 16 n).

        The one sequence a forest axis reads: Var(X*) = 1 / sum q_k^2 and the
        window weights of b_n^2 (which need K >= 16 n).  The q^2 tail past K
        that both add, and the truncation bound's tail past the depth, are
        one closed form (:func:`~partition_fields.renewal.q_sq_tail_bound`),
        so the depth does not set K.
        """
        return cached_renewal_sequence(self.pmf, max(_RENEWAL_KMAX, 16 * self.n))

    @property
    def variance_factors(self) -> tuple[float, float]:
        """Factors of this direction's limit variance at t = 1."""
        if self.is_urn:
            return gamma(1 - self.alpha), 2 ** (self.alpha - 1)
        return bn_sq_growth_constant(self.alpha), var_xstar(self.renewal)

    @property
    def truncation_bound(self) -> float | None:
        """Per-pair bound on losing a coalescence below the floor; None for an urn axis.

        For sites 1 <= i < j <= n, the chance that their lines meet only at or
        below -depth is at most sum_{m <= -depth} q_{i-m} q_{j-m}.  Summing
        over all pairs and applying Cauchy-Schwarz blockwise gives

            sum_{i<j<=n} P(pair lost) <= n^2 * (1/2) * sum_{k > depth} q_k^2,

        so ``(1/2) sum_{k > depth} q_k^2`` bounds the average per ordered pair
        and ``2 * bound * n^2`` bounds the variance deficit of the truncated
        model.  The q-tail sum is bounded in closed form by
        :func:`~partition_fields.renewal.q_sq_tail_bound`.
        """
        if self.is_urn:
            return None
        return 0.5 * q_sq_tail_bound(self.alpha, self.depth)

    def sample(self, rngs, ts: tuple[float, ...]) -> Patterns:
        """The pattern table of one row per generator, without patterns that no corner counts.

        An urn axis draws its boxes' counts per corner segment and groups
        the boxes by parity column
        (:func:`~partition_fields.partition1d.urn_patterns`); a forest axis
        takes a jump key per generator and resolves the roots of only the
        sites up to its last corner, the sites that a corner counts, so
        each root it finds is counted at the last corner.  It sorts each
        row by root, counts every root's sites per corner with one
        ``bincount`` and ``cumsum``, and makes each root a pattern of size 1.
        """
        idx = _corner_index(self.n, ts)
        if self.is_urn:
            return urn_patterns(self.alpha, self.n, idx, rngs)
        keys = [spin_key(rng) for rng in rngs]  # each row's jump key
        sites = int(idx[-1])
        roots = roots_of(self.alpha, keys, self.depth, sites)
        order = np.argsort(roots, axis=1)  # each row's sites, by root
        ids = np.take_along_axis(roots, order, axis=1)
        new = np.ones(ids.shape, dtype=bool)  # a row's first site of each root
        np.not_equal(ids[:, 1:], ids[:, :-1], out=new[:, 1:])
        k = int(np.count_nonzero(new))
        root = new.cumsum().reshape(new.shape) - 1  # each site's root, numbered across the batch
        first = np.searchsorted(idx, np.arange(sites), side="right")  # first corner counting each site
        counts = np.bincount((first[order] * k + root).ravel(), minlength=idx.size * k)
        starts = np.concatenate(([0], new.sum(axis=1).cumsum()))
        return Patterns(ids[new], counts.reshape(idx.size, k).cumsum(axis=0), np.ones(k, dtype=np.int64), starts)

    def draw(self, marginal: MarginalLaw, h: np.ndarray) -> np.ndarray:
        """One class's value per hash word; urn boxes add an independent sign."""
        if self.is_urn:
            return marginal.draw_symmetrized_from_hash(h)
        return marginal.draw_from_hash(h)


def _whole(value, what: str) -> int:
    """An integer (Python or numpy); floats and booleans are not counts."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _real(value, what: str) -> float:
    """A real number (Python or numpy); strings and booleans are not alphas."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"{what} must be a real number, got {value!r}")


@dataclass(frozen=True)
class ModelSpec:
    """Which model to simulate, at which horizons."""

    kind: ModelKind
    alphas: tuple[float, ...]
    n: tuple[int, ...]
    marginal: MarginalLaw = field(default_factory=MarginalLaw.rademacher)
    forest_depth: int | None = None

    def __post_init__(self):
        row = KIND_TABLE[self.kind]
        object.__setattr__(self, "alphas", tuple(_real(a, "each alpha") for a in self.alphas))
        object.__setattr__(self, "n", tuple(_whole(v, "each horizon") for v in self.n))
        if self.forest_depth is not None:
            object.__setattr__(self, "forest_depth", _whole(self.forest_depth, "forest_depth"))
        if len(self.alphas) != len(row.axes) or len(self.n) != len(row.axes):
            raise ValueError(
                f"{self.kind.value} needs {len(row.axes)} alpha(s) and horizon(s)"
            )
        for a, kind in zip(self.alphas, row.axes):
            if not 0.0 < a < kind.alpha_max:
                raise ValueError(f"alpha={a} outside (0,{kind.alpha_max}) for {self.kind.value}")
        if any(v < 1 for v in self.n):
            raise ValueError("horizons must be >= 1")
        if self.forest_depth is not None and self.forest_depth < 1:
            raise ValueError("forest_depth must be positive")
        if not row.generalized and not self.marginal.is_rademacher:
            raise ValueError(f"{self.kind.value} uses ±1 spins; marginal laws apply to generalized variants")

    @cached_property
    def axes(self) -> tuple[Axis, ...]:
        """The model's per-direction axes, in direction order."""
        return tuple(
            Axis(kind, a, n, self.effective_forest_depth(n) if kind is _FOREST else 0)
            for kind, a, n in zip(KIND_TABLE[self.kind].axes, self.alphas, self.n)
        )

    @property
    def is_2d(self) -> bool:
        return len(KIND_TABLE[self.kind].axes) == 2

    def hurst(self) -> tuple[float, ...]:
        """Limit Hurst index per direction: alpha/2 (urn), alpha + 1/2 (forest)."""
        return tuple(axis.hurst for axis in self.axes)

    def effective_forest_depth(self, hi: int) -> int:
        if self.forest_depth is not None:
            return self.forest_depth
        return max(DEFAULT_FOREST_FLOOR, 64 * hi)

    def to_dict(self) -> dict:
        """The spec as a config's ``model`` section names it; reports carry the same."""
        return {
            "kind": self.kind.value,
            "alphas": list(self.alphas),
            "n": list(self.n),
            "marginal": self.marginal.to_dict(),
            "forest_depth": self.forest_depth,
        }


@dataclass(frozen=True)
class CornerGrid:
    """Evaluation times in (0,1], strictly increasing; t2 is None for 1D."""

    t1: tuple[float, ...]
    t2: tuple[float, ...] | None = None

    def __post_init__(self):
        for name in ("t1", "t2"):
            if getattr(self, name) is None:
                continue
            ts = tuple(_real(t, "each grid time") for t in getattr(self, name))
            # stated as what must hold, so NaN fails every comparison
            if not (ts and ts[0] > 0.0 and ts[-1] <= 1.0 and all(a < b for a, b in zip(ts, ts[1:]))):
                raise ValueError("grid times must be strictly increasing within (0, 1]")
            object.__setattr__(self, name, ts)

    @property
    def is_2d(self) -> bool:
        return self.t2 is not None

    def shape(self) -> tuple[int, ...]:
        return (len(self.t1),) if self.t2 is None else (len(self.t1), len(self.t2))

    def to_dict(self) -> dict:
        """The grid as a config's ``grid`` section names it; reports carry the same."""
        return {"t1": list(self.t1), "t2": list(self.t2) if self.t2 is not None else None}


def _simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The fraction with the smallest denominator in the open interval (lo, hi), 0 < lo."""
    whole = math.floor(lo)
    if whole + 1 < hi:
        return Fraction(whole + 1)
    return whole + 1 / _simplest_between(1 / (hi - whole), 1 / (lo - whole))


def _grid_time(t: float) -> Fraction:
    """The fraction with the smallest denominator that rounds to the float t.

    A time written as a fraction with denominator at most 10^7 (a decimal
    with up to 7 places, or i/m) is recovered exactly: no other such
    fraction rounds to the same float.  Reading t as a float or as the
    decimal repr(t) instead is off by one: 0.25686 * 10^8 is
    25685999.999999996 in floats, and 3 * 0.3333333333333333 < 1.
    """
    below, above = math.nextafter(t, 0.0), math.nextafter(t, 2.0)
    return _simplest_between((Fraction(below) + Fraction(t)) / 2, (Fraction(t) + Fraction(above)) / 2)


@lru_cache(maxsize=256)
def _corner_index(n: int, ts: tuple[float, ...]) -> np.ndarray:
    """floor(n*t) per grid time, in exact integer arithmetic (read-only)."""
    idx = np.array([math.floor(n * _grid_time(t)) for t in ts], dtype=np.int64)
    idx.flags.writeable = False
    return idx


@lru_cache(maxsize=64)
def normalization(spec: ModelSpec) -> tuple[float, float]:
    """(Z, sigma) such that S/Z converges to the standard limit sheet.

    sigma^2 is the product of the axes' limit-variance factors times E[X^2],
    and Z = sqrt(sigma^2 * prod_q sv_q) * prod_q n_q^{H_q}, with sv_q the
    axes' slowly-varying constants, multiplied in direction order.
    """
    axes = spec.axes
    limit_var = math.prod(f for axis in axes for f in axis.variance_factors)
    limit_var *= spec.marginal.second_moment
    z = math.sqrt(limit_var * math.prod(axis.pmf.sv_constant for axis in axes))
    for axis in axes:
        z *= axis.n ** axis.hurst
    return z, math.sqrt(limit_var)


def truncation_summary(spec: ModelSpec) -> dict[str, float]:
    """Each forest axis's truncation bound as ``direction_q``, and their ``max``; {} without one."""
    summary = {
        f"direction_{q + 1}": axis.truncation_bound
        for q, axis in enumerate(spec.axes)
        if not axis.is_urn
    }
    if summary:
        summary["max"] = max(summary.values())
    return summary


def batch_size(spec: ModelSpec, grid: CornerGrid) -> int:
    """Replicates per simulate call: an element budget over one replicate's footprint.

    Per axis, a replicate is budgeted n roots and a (corners + 1) x n count
    matrix.  That is a bound, not a size: a forest axis counts the classes
    of its sites up to the last corner in a corners x classes matrix, an
    urn axis its boxes in a dense (corners x head boxes) array, and a row
    has at most n classes (an urn row far fewer, and far fewer patterns
    still).  A forest axis draws no sites, so its depth costs nothing here.
    """
    footprint = sum((len(ts) + 2) * axis.n for axis, ts in zip(spec.axes, (grid.t1, grid.t2)))
    return max(1, _BATCH_ELEMENTS // footprint)


def _class_rows(starts: np.ndarray) -> np.ndarray:
    """The row of each class of a batch whose row b holds the classes starts[b]:starts[b + 1]."""
    return np.repeat(np.arange(starts.size - 1), starts[1:] - starts[:-1])


def _padded(table: Patterns, words: np.ndarray, slot: np.ndarray) -> tuple[np.ndarray, ...]:
    """(words, ids, sizes, counts) with row b of the table in row slot[b], padded with empty patterns.

    Shapes (B, P), (B, P), (B, P) and (corners, B, P) for the row maxima P;
    the sizes and counts are float64, and a pad's word, id, size and counts
    are 0.
    """
    n_rows, n_classes = table.starts.size - 1, table.ids.size
    per_row = table.starts[1:] - table.starts[:-1]
    width = int(per_row.max(initial=0))
    classes = np.arange(n_classes)
    src = np.full(n_rows * width, n_classes)  # pads read the appended empty pattern
    src[(slot * width - table.starts[:-1]).repeat(per_row) + classes] = classes
    counts = np.zeros((table.counts.shape[0] + 1, n_classes + 1))
    counts[:-1, :-1] = table.counts
    counts[-1, :-1] = table.sizes
    counts = counts.take(src, axis=1).reshape(counts.shape[0], n_rows, width)
    padded, ids = np.zeros(n_classes + 1, dtype=np.uint64), np.zeros(n_classes + 1, dtype=np.int64)
    padded[:-1], ids[:-1] = words, table.ids
    return padded[src].reshape(n_rows, width), ids[src].reshape(n_rows, width), counts[-1], counts[:-1]


def _row_sums(counts: np.ndarray, x: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """sum_p counts[m, p] x[p] over each row's patterns, in pattern order: (B, len(counts)) float64."""
    n_rows, n_sums = starts.size - 1, counts.shape[0]
    # a sum per row and count row, not float @: BLAS may sum in a CPU-dependent order
    cells = (_class_rows(starts) * n_sums + np.arange(n_sums)[:, None]).ravel()
    # bincount gives int64 when it has no cells, whatever its weights
    sums = np.bincount(cells, (counts * x).ravel(), n_rows * n_sums).astype(np.float64, copy=False)
    return sums.reshape(n_rows, n_sums)


def _wide_heads(heads: np.ndarray, spins: np.ndarray, left: np.ndarray, right: np.ndarray, ids: np.ndarray,
                k0: np.ndarray) -> None:
    """Add to ``heads`` the set bits of the words j >= 1 of every pair with more than 64 spins.

    Word j of a pair reads its top min(64, N - 64 j) bits; ``left``
    (rows, P, 1) and ``right`` (rows, 1, Q) hold the sides of the pairs'
    first words, ``ids`` (rows, P, 1) their first identifiers, ``k0`` the
    rows' key words and ``spins`` their N, which broadcasts to ``heads``.
    A word's right side is the first word's moved by j_lo
    (``next_words``); its left side, from j = 2^16 on, is
    left_words(k0, id_p + (j_hi << 48)).  The first identifiers of
    distinct (id_p, j_hi) stay distinct while the ids lie in
    [-2^47, 2^47), so others are refused: an urn pattern's number always
    does, and a forest root, in (-depth, n], unless depth or n reaches 2^47.
    """
    if spins.shape != heads.shape:
        spins = np.broadcast_to(spins, heads.shape)
    wide = b, p, q = (spins > 64).nonzero()
    n = spins[wide]
    if n.max() > 64 * _MAX_PAIR_WORDS:
        raise ValueError(f"a pattern pair needs more than {_MAX_PAIR_WORDS} hash words")
    extra = ((n - np.uint64(1)) >> np.uint64(6)).astype(np.int64)  # words past the first
    first = extra.cumsum() - extra  # each pair's first such word
    j = (np.arange(1, first[-1] + extra[-1] + 1) - first.repeat(extra)).astype(np.uint64)
    lw = left[b, p, 0].repeat(extra)
    hi = j >> np.uint64(_LOW_WORD_BITS)
    far = hi.nonzero()[0]
    if far.size:
        far_ids = ids[b, p, 0].repeat(extra)[far]
        if far_ids.min() < -(1 << 47) or far_ids.max() >= 1 << 47:
            raise ValueError("a pattern pair of more than 2^22 spins needs its first identifiers within ±2^47")
        lw[far] = left_words(k0[b].repeat(extra)[far], far_ids.astype(np.uint64) + (hi[far] << np.uint64(48)))
    right = next_words(right[b, 0, q].repeat(extra), j & np.uint64((1 << _LOW_WORD_BITS) - 1))
    bits = np.minimum(n.repeat(extra) - (j << np.uint64(6)), 64)
    more = pair_heads(lw, right, bits, right, np.empty_like(right))
    heads[wide] += np.add.reduceat(more, first)


def _check_exact(bound1: np.ndarray, bound2: np.ndarray) -> None:
    """Refuse a 2D batch whose corner sums might round in float64.

    A replicate's corner sum is sum_{p,q} a1[m, p] X[p, q] a2[m', q], with
    nonnegative integer counts and |X[p, q]| <= sizes1[p] * sizes2[q], the
    number of spins it sums.  So every partial sum of it, in any order, is
    an integer of magnitude at most B1 * B2, where B_q, the row's sum over
    its patterns of size times largest count, bounds its count sum at
    every corner of axis q.  While B1 * B2 is below 2^53 every such integer
    is a float64, so the float64 products are exact whatever the BLAS
    build, summation order or thread count, and so is (A1 s1)(A2 s2)^T
    - 2 A1 H A2^T: both terms are integers below 2^53 in magnitude, twice
    one is still a float64, and their difference is.  B1, B2 and their
    product are formed in float64 too, which is exact below 2^53 and,
    rounding being monotone, reaches 2^53 when the exact value does.
    """
    bound = (bound1 * bound2).max(initial=0.0)
    if bound >= 2.0**53:
        raise ValueError(f"row-sum bound {bound:.0f} reaches 2^53: the float64 corner sums would not be exact")


def _blocks(pairs: np.ndarray) -> np.ndarray:
    """The first row and the end of each block of the 2D core, given each row's pattern pairs.

    A block holds about _CORE_ELEMENTS pattern pairs; rows in order of
    their pairs pad little to their block's largest P and Q.
    """
    block = pairs.cumsum() // _CORE_ELEMENTS
    bounds = np.empty(block.size + 1, dtype=bool)
    bounds[0] = bounds[-1] = True
    np.not_equal(block[1:], block[:-1], out=bounds[1:-1])
    return bounds.nonzero()[0]


def _sums_2d(keys: np.ndarray, t1: Patterns, t2: Patterns) -> np.ndarray:
    """Corner sums sum_{p,q} a1[m, p] X[p, q] a2[m', q] of each replicate, exact in float64.

    X[p, q] = N - 2 H is the sum of the N = sizes1[p] * sizes2[q] spins of
    a pattern pair, H the set bits among the top N bits of its words
    finalize(left_words(k0, id_p + (j_hi << 48)) ^ right_words(k1, id_q + (j_lo << 48)))
    for j = j_hi * 2^16 + j_lo < ceil(N / 64), so word 0 is the pair hash
    of (id_p, id_q) and a pair holds up to 2^32 words.  So the sums are
    (A1 s1)(A2 s2)^T - 2 A1 H A2^T.  The rows go in order of their number
    of pattern pairs, and the first words of every pair of a block of rows
    are one padded (rows, P, Q) array (``_blocks``); the further words of
    pairs with N > 64 follow as one flat array (``_wide_heads``).
    """
    p1, p2 = t1.starts[1:] - t1.starts[:-1], t2.starts[1:] - t2.starts[:-1]
    order = (p1 * p2).argsort(kind="stable")  # row i of the padded arrays is replicate order[i]
    slot = np.empty_like(order)
    slot[order] = np.arange(order.size)
    k0 = keys[:, 0]
    left, ids, f1, a1 = _padded(t1, left_words(k0[_class_rows(t1.starts)], t1.ids), slot)
    right, _, f2, a2 = _padded(t2, right_words(keys[_class_rows(t2.starts), 1], t2.ids), slot)
    _check_exact(np.einsum("bp,bp->b", a1.max(axis=0), f1), np.einsum("bp,bp->b", a2.max(axis=0), f2))
    # (A1 s1)(A2 s2)^T, then less 2 A1 H A2^T block by block
    sums = np.einsum("mbp,bp->bm", a1, f1)[:, :, None] * np.einsum("mbp,bp->bm", a2, f2)[:, None, :]
    # sizes that are all 1 (a forest axis) broadcast as (B, 1): a pad then reads as one spin with counts 0
    s1, s2 = (np.ones((f.shape[0], 1), dtype=np.uint64) if (t.sizes == 1).all() else f.astype(np.uint64)
              for f, t in ((f1, t1), (f2, t2)))
    bounds = _blocks(p1[order] * p2[order])
    p, q = (np.maximum.reduceat(v[order], bounds[:-1]).tolist() for v in (p1, p2))
    words = spare = np.empty(0, dtype=np.uint64)  # the uint64 temporaries of pair_heads
    for b0, b1, p, q in zip(bounds[:-1].tolist(), bounds[1:].tolist(), p, q):
        shape, size = (b1 - b0, p, q), (b1 - b0) * p * q
        if size > words.size:
            words, spare = np.empty(size, dtype=np.uint64), np.empty(size, dtype=np.uint64)
        spins = s1[b0:b1, :p, None] * s2[b0:b1, None, :q]  # N per pair (broadcast where sizes are 1)
        lw, rw = left[b0:b1, :p, None], right[b0:b1, None, :q]
        h = pair_heads(lw, rw, np.minimum(spins, 64), words[:size].reshape(shape), spare[:size].reshape(shape))
        if spins.max(initial=0) > 64:
            _wide_heads(h, spins, lw, rw, ids[b0:b1, :p, None], k0[order[b0:b1]])
        sums[b0:b1] -= 2.0 * (a1[:, b0:b1, :p].transpose(1, 0, 2) @ h @ a2[:, b0:b1, :q].transpose(1, 2, 0))
    out = np.empty(sums.shape)
    out[order] = sums
    return out


def _sums_1d(keys: np.ndarray, table: Patterns, draw) -> np.ndarray:
    """Corner sums sum_p a[m, p] X[p] of each replicate.

    X[p] sums the values ``draw`` gives the words hash1((k0, right_words(k1, j)), id_p),
    j < sizes[p], which are the pair hashes of (id_p, j).
    """
    rows = _class_rows(table.starts)
    first = np.cumsum(table.sizes) - table.sizes
    owner = np.repeat(np.arange(table.sizes.size), table.sizes)  # the pattern of each word
    j = np.arange(owner.size) - first[owner]
    words = hash1((keys[rows[owner], 0], right_words(keys[rows[owner], 1], j)), table.ids[owner])
    return _row_sums(table.counts, np.add.reduceat(draw(words), first) if owner.size else np.zeros(0), table.starts)


def simulate(spec: ModelSpec, grid: CornerGrid, rngs) -> np.ndarray:
    """Raw corner sums of one replicate per generator, shape (len(rngs), *grid.shape()).

    Row b is a pure function of (spec, grid, rngs[b] state): each generator
    gives its spin key first and then the axes' draws in direction order (a
    forest axis's two-word jump key; an urn axis's multinomial draws, one
    per corner segment, then its tail draws), which fixes the stream's
    layout.  An urn axis draws only up to its last corner and per corner
    segment, so a replicate's realization depends on the grid's segments as
    well.  Given the partitions the spins are iid, so each axis groups its
    classes by count column (``Axis.sample``) and a sum reads only how many
    spins each pattern (1D) or pattern pair (2D) holds: in 1D the values of
    the words (id_p, j < N_p), in 2D the set bits of the top N bits of the
    words (id_p + (j_hi << 48), id_q + (j_lo << 48)), all under the spin key (``_sums_1d``,
    ``_sums_2d``).  The 2D sums are float64 products, refused with a
    ValueError when their row-sum bound reaches 2^53 (``_check_exact``).
    Divide by Z to normalize.  No generators give an empty array.
    """
    if grid.is_2d != spec.is_2d:
        raise ValueError(f"{spec.kind.value} needs a {'2D' if spec.is_2d else '1D'} grid")
    if len(rngs) == 0:
        return np.empty((0, *grid.shape()))
    keys = np.array([spin_key(rng) for rng in rngs], dtype=np.uint64)
    tables = [axis.sample(rngs, ts) for axis, ts in zip(spec.axes, (grid.t1, grid.t2))]
    if spec.is_2d:
        return _sums_2d(keys, *tables)
    return _sums_1d(keys, tables[0], lambda h: spec.axes[0].draw(spec.marginal, h))
