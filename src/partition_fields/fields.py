"""Partition-driven spin fields and their partial sums at grid corners.

Every model is a product of independent per-direction axes.  An axis is a
random partition of the sites 1..n of one direction: urn boxes with
alternating signs, or forest trees with identical signs.  A partial sum
depends on the partition only through how many sites of each class lie
below the corner, so a replicate samples each axis as a corner-count
matrix A[m, c] (sites of class c among 1..floor(n*t_m); for an urn box,
the parity of that count, which is the running sum of its alternating
signs).  A forest axis resolves its sites' roots and counts them; an urn
axis draws its boxes' counts per corner segment and never labels single
draws.  Both lay out their classes and counts through one routine,
``partition1d.corner_counts``.  A replicate then attaches replayable spin
values to the (product) classes through the keyed hash, and evaluates
every corner with one product: A v in 1D, A1 eps A2^T in 2D.  Replicates
are simulated in batches: each axis samples and resolves the partitions of
a whole batch in one pass, the keyed hash takes each class's words for
the whole batch at once, and only the final products run per replicate.
In 2D those are float64 BLAS products of integer counts and ±1 spins,
which are exact because every partial sum stays an integer below 2^53
(checked per batch).
The limit variance, the Hurst index and the normalization factor also
factor by direction, so each axis owns its share of them.

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

from ._hashing import hash1, left_words, pair_signs, right_words
from .distributions import MarginalLaw, PmfKind, PowerLawPmf, make_hs_pmf, make_karlin_pmf
from .partition1d import corner_counts, roots_of, urn_counts
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

    def sample(self, rngs, ts: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One row per generator: (class ids, int64 corner counts, row starts).

        Row b's classes are ``classes[starts[b]:starts[b + 1]]``, and the
        count matrix has one row per grid time and one column per class of
        every row, laid out by :func:`~partition_fields.partition1d.corner_counts`.
        An urn axis draws its boxes' counts per corner segment and keeps
        their parities (:func:`~partition_fields.partition1d.urn_counts`); a
        forest axis takes a jump key per generator, resolves the roots of
        its n sites and counts each root's sites below each corner.
        """
        idx = _corner_index(self.n, ts)
        if self.is_urn:
            return urn_counts(self.alpha, self.n, idx, rngs)
        keys = [spin_key(rng) for rng in rngs]  # each row's jump key
        roots = roots_of(self.alpha, keys, self.depth, self.n)
        order = np.argsort(roots, axis=1)  # each row's sites, by root
        first = np.searchsorted(idx, np.arange(self.n), side="right")  # first corner holding each site
        classes, counts, starts = corner_counts(
            np.repeat(np.arange(len(roots)), self.n), np.take_along_axis(roots, order, axis=1).ravel(),
            first[order].ravel(), len(roots), idx.size + 1,
        )
        return classes, counts[:-1], starts  # a site past the last corner counts at none

    def draw(self, marginal: MarginalLaw, h: np.ndarray) -> np.ndarray:
        """One class value per hash word; urn boxes add an independent sign."""
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
    matrix.  That is a bound, not a size: both axes build their counts with
    ``partition1d.corner_counts``, (corners + 1) x classes for a forest axis
    and corners x classes for an urn axis, and a row has at most n classes
    (an urn row far fewer).  A forest axis draws no sites, so its depth
    costs nothing here.
    """
    footprint = sum((len(ts) + 2) * axis.n for axis, ts in zip(spec.axes, (grid.t1, grid.t2)))
    return max(1, _BATCH_ELEMENTS // footprint)


def _class_rows(starts: np.ndarray) -> np.ndarray:
    """The row of each class of a batch whose row b holds the classes starts[b]:starts[b + 1]."""
    return np.repeat(np.arange(starts.size - 1), starts[1:] - starts[:-1])


def _check_exact(a1: np.ndarray, rows1: np.ndarray, a2: np.ndarray, rows2: np.ndarray, n_rows: int) -> None:
    """Refuse a 2D batch whose corner sums might round in float64.

    A replicate's corner sum is sum_{c,d} a1[m, c] eps[c, d] a2[m', d],
    with nonnegative integer counts and eps = ±1.  So every partial sum of
    it, in any order, is an integer of magnitude at most B1 * B2, where
    B_q, the sum over the row's classes of each class's largest count,
    bounds the row's count sum at every corner of axis q.  While B1 * B2 is
    below 2^53 every such integer is a float64, so the float64 products
    are exact whatever the BLAS build, summation order or thread count.
    The counts come as float64 and B1, B2 and their product are formed in
    float64 too, which is exact below 2^53 and, rounding being monotone,
    reaches 2^53 when the exact value does.
    """
    bound = (np.bincount(rows1, a1.max(axis=0), n_rows) * np.bincount(rows2, a2.max(axis=0), n_rows)).max()
    if bound >= 2.0**53:
        raise ValueError(f"row-sum bound {bound:.0f} reaches 2^53: the float64 corner sums would not be exact")


def simulate(spec: ModelSpec, grid: CornerGrid, rngs) -> np.ndarray:
    """Raw corner sums of one replicate per generator, shape (len(rngs), *grid.shape()).

    Row b is a pure function of (spec, grid, rngs[b] state): each generator
    gives its spin key first and then the axes' draws in direction order (a
    forest axis's two-word jump key; an urn axis's multinomial draws, one
    per corner segment, then its tail draws), which fixes the stream's
    layout.  An urn axis draws only up to its last corner and per corner
    segment, so a replicate's realization depends on the grid's segments as
    well.  In 2D, eps[c, d] is the sign of the keyed hash
    finalize(left_words ^ right_words) of (c, d): each class's side of that
    hash is computed once per batch (``left_words``, ``right_words``), the
    ±1 core per replicate (``pair_signs``), and the corner sums are float64
    products, refused with a ValueError when their row-sum bound reaches
    2^53 (``_check_exact``).  Divide by Z to normalize.  No generators give
    an empty array.
    """
    if grid.is_2d != spec.is_2d:
        raise ValueError(f"{spec.kind.value} needs a {'2D' if spec.is_2d else '1D'} grid")
    if len(rngs) == 0:
        return np.empty((0, *grid.shape()))
    keys = np.array([spin_key(rng) for rng in rngs], dtype=np.uint64)
    sampled = [axis.sample(rngs, ts) for axis, ts in zip(spec.axes, (grid.t1, grid.t2))]
    out = np.empty((len(rngs), *grid.shape()))
    if spec.is_2d:
        (u1, a1, s1), (u2, a2, s2) = sampled
        rows1, rows2 = _class_rows(s1), _class_rows(s2)
        left, right = left_words(keys[rows1, 0], u1), right_words(keys[rows2, 1], u2)
        # C order: a class's largest count is then one pass per corner, where an
        # urn axis's column-major parities would take one short reduction per class
        a1, a2 = a1.astype(np.float64, order="C"), a2.astype(np.float64, order="C")
        _check_exact(a1, rows1, a2, rows2, len(rngs))
        for b in range(len(rngs)):
            c1, c2 = slice(s1[b], s1[b + 1]), slice(s2[b], s2[b + 1])
            out[b] = a1[:, c1] @ pair_signs(left[c1], right[c2]) @ a2[:, c2].T  # exact in float64: _check_exact
        return out
    (axis,), ((uniq, a, starts),) = spec.axes, sampled
    v = axis.draw(spec.marginal, hash1(keys[_class_rows(starts)].T, uniq))
    for b in range(len(rngs)):
        c = slice(starts[b], starts[b + 1])
        # per replicate, and a reduction, not float @: BLAS may sum in a CPU-dependent order
        out[b] = (a[:, c] * v[c]).sum(axis=1)
    return out
