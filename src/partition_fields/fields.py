"""Partition-driven spin fields and their partial sums at grid corners.

Every model is a product of independent per-direction axes.  An axis is a
random partition of the sites 1..n of one direction: urn boxes with
alternating signs, or forest trees with identical signs.  A partial sum
depends on the partition only through how many sites of each class lie
below the corner, so a replicate samples each axis, turns it into a
corner-count matrix A[m, c] (sites of class c among 1..floor(n*t_m); for an
urn box, the parity of that count, which is the running sum of its
alternating signs), attaches replayable spin values to the (product)
classes through the keyed hash, and evaluates every corner with one
product: A v in 1D, A1 eps A2^T in 2D.  Replicates are simulated in
batches: each axis samples and resolves the partitions of a whole batch in
one pass, and only the final products run per replicate.  The limit
variance, the Hurst index and the normalization factor by direction as
well, so each axis owns its share of them.

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

from ._hashing import hash1, hash2, signs_from
from .distributions import MarginalLaw, PmfKind, PowerLawPmf, make_hs_pmf, make_karlin_pmf
from .partition1d import classes_by_row, roots_of, sample_forest, sample_urn, truncation_pair_bound
from .renewal import bn_sq_growth_constant, cached_renewal_sequence, var_xstar
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
]

DEFAULT_FOREST_FLOOR = 10**5
_RENEWAL_KMAX_NORM = 1 << 18
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


@lru_cache(maxsize=64)
def _forest_var_xstar(alpha: float) -> float:
    """Var(X*) = 1 / sum of q_k^2 for the exact-tail jump law at ``alpha``."""
    rs = cached_renewal_sequence(make_hs_pmf(alpha), _RENEWAL_KMAX_NORM)
    return var_xstar(rs)


@dataclass(frozen=True)
class Axis:
    """One direction of a model: a random partition of the sites 1..n.

    ``depth`` is the forest window depth below site 1 (forest axes only).
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
    def variance_factors(self) -> tuple[float, float]:
        """Factors of this direction's limit variance at t = 1."""
        if self.is_urn:
            return gamma(1 - self.alpha), 2 ** (self.alpha - 1)
        return bn_sq_growth_constant(self.alpha), _forest_var_xstar(self.alpha)

    @property
    def truncation_bound(self) -> float | None:
        """Forest window per-pair truncation bound; None for an urn axis."""
        if self.is_urn:
            return None
        return truncation_pair_bound(self.pmf, -self.depth)

    def sample(self, rngs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One row per generator: (class ids, each site's index into them, row starts).

        See :func:`~partition_fields.partition1d.classes_by_row` for the layout.
        """
        if self.is_urn:
            path = sample_urn(self.pmf, self.n, rngs)
            return path.classes, path.inverse, path.starts
        window = sample_forest(self.pmf, -self.depth, self.n, rngs)
        return classes_by_row(roots_of(window, np.arange(1, self.n + 1)))

    def corner_counts(self, inv: np.ndarray, k: int, ts: tuple[float, ...]) -> np.ndarray:
        """int64 (corners, k): row m counts the sites of class c among 1..floor(n*t_m).

        ``inv`` holds each site's class, one row of n sites per replicate (a
        1D array is one replicate); the classes of all rows share the k columns.

        An urn axis keeps only each count's parity: its signs alternate +1, -1
        within a box, so their running sum is 1 after an odd count, else 0.
        """
        idx = _corner_index(self.n, ts)
        first = np.searchsorted(idx, np.arange(self.n), side="right")  # first corner holding each site
        counts = np.bincount((first * k + inv).ravel(), minlength=(idx.size + 1) * k)
        counts = np.cumsum(counts.reshape(idx.size + 1, k)[:-1], axis=0)
        return counts & 1 if self.is_urn else counts

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


def _metadata(spec: ModelSpec) -> dict:
    bounds = tuple(axis.truncation_bound for axis in spec.axes if not axis.is_urn)
    if not bounds:
        return {}
    meta = {"truncation_error_bound": max(bounds)}
    if len(bounds) > 1:
        meta["truncation_error_bounds"] = bounds
    return meta


def batch_size(spec: ModelSpec, grid: CornerGrid) -> int:
    """Replicates per simulate call: an element budget over one replicate's footprint.

    A replicate holds, per axis, its n + depth window sites (labels, or the
    forest's jump uniforms) and a (corners + 1) x n count matrix.
    """
    footprint = sum(
        axis.n + axis.depth + (len(ts) + 1) * axis.n for axis, ts in zip(spec.axes, (grid.t1, grid.t2))
    )
    return max(1, _BATCH_ELEMENTS // footprint)


def simulate(spec: ModelSpec, grid: CornerGrid, rngs) -> np.ndarray:
    """Raw corner sums of one replicate per generator, shape (len(rngs), *grid.shape()).

    Row b is a pure function of (spec, grid, rngs[b] state): each generator
    gives its spin key first and then the axes' draws in direction order,
    which fixes the stream's layout.  Divide by Z to normalize.
    """
    if grid.is_2d != spec.is_2d:
        raise ValueError(f"{spec.kind.value} needs a {'2D' if spec.is_2d else '1D'} grid")
    keys = np.array([spin_key(rng) for rng in rngs], dtype=np.uint64)
    sampled = [axis.sample(rngs) for axis in spec.axes]
    counts = [
        axis.corner_counts(inv, uniq.size, ts)
        for axis, (uniq, inv, _), ts in zip(spec.axes, sampled, (grid.t1, grid.t2))
    ]
    out = np.empty((len(rngs), *grid.shape()))
    if spec.is_2d:
        (u1, _, s1), (u2, _, s2) = sampled
        for b, key in enumerate(keys):
            c1, c2 = slice(s1[b], s1[b + 1]), slice(s2[b], s2[b + 1])
            core = signs_from(hash2(key, u1[c1, None], u2[None, c2]))
            out[b] = counts[0][:, c1] @ core @ counts[1][:, c2].T  # exact: int64 matmul
        return out
    (axis,), ((uniq, _, starts),), (a,) = spec.axes, sampled, counts
    class_keys = keys[np.repeat(np.arange(len(rngs)), np.diff(starts))]
    v = axis.draw(spec.marginal, hash1(class_keys.T, uniq))
    for b in range(len(rngs)):
        c = slice(starts[b], starts[b + 1])
        # per replicate, and a reduction, not float @: BLAS may sum in a CPU-dependent order
        out[b] = (a[:, c] * v[c]).sum(axis=1)
    return out
