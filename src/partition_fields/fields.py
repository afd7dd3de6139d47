"""Partition-driven spin fields and their partial sums at grid corners.

Every model is a product of independent per-direction axes.  An axis is a
random partition of the sites 1..n of one direction: urn boxes with
alternating signs, or forest trees with identical signs.  A replicate
samples each axis, attaches replayable spin values to the (product) classes
through the keyed hash, and sums the field up to the corners floor(n*t).
The limit variance, the Hurst index and the normalization factor by
direction as well, so each axis owns its share of them.

Normalizations divide by Z so that the normalized field converges to the
*standard* fractional Brownian sheet; the plain power-law normalization is
recoverable by multiplying sigma back (both are reported).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
from scipy.special import gamma

from ._hashing import hash1, hash2, signs_from
from .distributions import MarginalLaw, PowerLawPmf, make_hs_pmf, make_karlin_pmf
from .partition1d import UrnPath, roots_of, sample_forest, sample_urn, truncation_pair_bound
from .renewal import bn_sq_growth_constant, cached_renewal_sequence, var_xstar
from .seeding import spin_key

__all__ = [
    "AxisKind",
    "Axis",
    "KIND_TABLE",
    "ModelKind",
    "ModelSpec",
    "CornerGrid",
    "FieldSample",
    "simulate",
    "rectangle_sum",
    "normalization",
]

DEFAULT_FOREST_FLOOR = 10**5
_RENEWAL_KMAX_NORM = 1 << 18


class ModelKind(enum.Enum):
    KARLIN_1D = "karlin1d"
    GENERALIZED_KARLIN_1D = "generalized-karlin1d"
    HS_1D = "hs1d"
    GENERALIZED_HS_1D = "generalized-hs1d"
    KARLIN_2D = "karlin2d"
    HS_2D = "hs2d"
    COMBINED_2D = "combined2d"


class AxisKind(enum.Enum):
    """The partition of one direction: urn boxes or ancestral-forest trees."""

    URN = "urn"
    FOREST = "forest"

    @property
    def alpha_max(self) -> float:
        """Admissible alphas are (0, alpha_max)."""
        return 1.0 if self is AxisKind.URN else 0.5


class KindRow(NamedTuple):
    axes: tuple[AxisKind, ...]  # in direction order
    identity: str  # name of the finite-n variance identity in reports
    generalized: bool  # accepts a non-Rademacher marginal law


_URN, _FOREST = AxisKind.URN, AxisKind.FOREST
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


def _alternating_signs(path: UrnPath) -> np.ndarray:
    # (-1)**(count+1): +1 when the running count of the draw's box is odd
    return (2 * path.running_parity.astype(np.int8) - 1).astype(np.int8)


@dataclass(frozen=True)
class Axis:
    """One direction of a model: a random partition of the sites 1..n.

    ``depth`` is the forest window depth below site 1 (forest axes only).
    """

    kind: AxisKind
    alpha: float
    n: int
    depth: int = 0

    @property
    def is_urn(self) -> bool:
        return self.kind is AxisKind.URN

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

    def sample(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """(class ids, each site's index into them, site signs or None for all +1)."""
        if self.is_urn:
            path = sample_urn(self.pmf, self.n, rng)
            return path.classes, path.inverse, _alternating_signs(path)
        window = sample_forest(self.pmf, -self.depth, self.n, rng)
        uniq, inv = np.unique(roots_of(window, np.arange(1, self.n + 1)), return_inverse=True)
        return uniq, inv, None

    def draw(self, marginal: MarginalLaw, h: np.ndarray) -> np.ndarray:
        """One class value per hash word; urn boxes add an independent sign."""
        if self.is_urn:
            return marginal.draw_symmetrized_from_hash(h)
        return marginal.draw_from_hash(h)


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
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        object.__setattr__(self, "n", tuple(int(v) for v in self.n))
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
            Axis(kind, a, n, self.effective_forest_depth(n) if kind is AxisKind.FOREST else 0)
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
        for ts in (self.t1, self.t2):
            if ts is None:
                continue
            arr = np.asarray(ts, dtype=np.float64)
            if arr.size == 0 or np.any(arr <= 0.0) or arr[-1] > 1.0 or np.any(np.diff(arr) <= 0):
                raise ValueError("grid times must be strictly increasing within (0, 1]")
        object.__setattr__(self, "t1", tuple(float(t) for t in self.t1))
        if self.t2 is not None:
            object.__setattr__(self, "t2", tuple(float(t) for t in self.t2))

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


@dataclass(frozen=True)
class FieldSample:
    """Partial sums of one replicate at the grid corners."""

    spec: ModelSpec
    grid: CornerGrid
    raw: np.ndarray
    normalized: np.ndarray
    z_norm: float
    sigma: float
    seed: object = None
    metadata: dict = field(default_factory=dict)


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


def _prefix_at_corners_1d(x: np.ndarray, n: int, t1) -> np.ndarray:
    c = np.cumsum(x, dtype=np.float64 if x.dtype.kind == "f" else np.int64)
    idx = _corner_index(n, t1)
    out = np.where(idx >= 1, c[np.maximum(idx - 1, 0)], 0)
    return out.astype(np.float64)


def _dense_corners_2d(core: np.ndarray, inv1, inv2, s1, s2, n: tuple[int, int], grid: CornerGrid) -> np.ndarray:
    """Corner sums of X[i,j] = core[inv1[i], inv2[j]] * s1[i] * s2[j].

    A sign array of None (forest axis) stands for all +1.  The full n1 x n2
    field is materialized and swept by prefix sums once.
    """
    x = core[np.ix_(inv1, inv2)]
    if s1 is not None:
        x = x * s1[:, None]
    if s2 is not None:
        x = x * s2[None, :]
    c = np.cumsum(np.cumsum(x, axis=0, dtype=np.int64), axis=1)
    i1 = _corner_index(n[0], grid.t1)
    i2 = _corner_index(n[1], grid.t2)
    out = np.zeros((i1.size, i2.size), dtype=np.float64)
    live1 = i1 >= 1
    live2 = i2 >= 1
    if np.any(live1) and np.any(live2):
        sub = c[np.ix_(i1[live1] - 1, i2[live2] - 1)]
        out[np.ix_(live1, live2)] = sub
    return out


def _metadata(spec: ModelSpec) -> dict:
    bounds = tuple(axis.truncation_bound for axis in spec.axes if not axis.is_urn)
    if not bounds:
        return {}
    meta = {"truncation_error_bound": max(bounds)}
    if len(bounds) > 1:
        meta["truncation_error_bounds"] = bounds
    return meta


def simulate(spec: ModelSpec, grid: CornerGrid, rng: np.random.Generator, seed=None) -> FieldSample:
    """One replicate; a pure function of (spec, grid, rng state).

    The spin key is drawn first and the axes then sample in direction order,
    which fixes the layout of the replicate's stream.
    """
    if grid.is_2d != spec.is_2d:
        raise ValueError(f"{spec.kind.value} needs a {'2D' if spec.is_2d else '1D'} grid")
    key = spin_key(rng)
    sampled = [axis.sample(rng) for axis in spec.axes]
    if spec.is_2d:
        (u1, inv1, s1), (u2, inv2, s2) = sampled
        core = signs_from(hash2(key, u1[:, None], u2[None, :]))
        raw = _dense_corners_2d(core, inv1, inv2, s1, s2, spec.n, grid)
    else:
        (axis,), ((uniq, inv, signs),) = spec.axes, sampled
        x = axis.draw(spec.marginal, hash1(key, uniq))[inv]
        if signs is not None:
            x = x * signs
        raw = _prefix_at_corners_1d(x, axis.n, grid.t1)
    z, sigma = normalization(spec)
    return FieldSample(spec, grid, raw, raw / z, z, sigma, seed, _metadata(spec))


def rectangle_sum(sample: FieldSample, a, b) -> float:
    """Sum of X over the rectangle (a, b] of grid corners, by inclusion-exclusion.

    Corners are given as grid indices where 0 denotes the origin (time 0) and
    i >= 1 denotes the i-th grid time; ``a <= b`` componentwise.
    """
    if sample.grid.is_2d:
        a1, a2 = a
        b1, b2 = b
        _check_corner(a1, len(sample.grid.t1)), _check_corner(a2, len(sample.grid.t2))
        _check_corner(b1, len(sample.grid.t1)), _check_corner(b2, len(sample.grid.t2))
        if a1 > b1 or a2 > b2:
            raise ValueError("need a <= b componentwise")

        def s(i, j):
            return 0.0 if (i == 0 or j == 0) else float(sample.raw[i - 1, j - 1])

        return s(b1, b2) - s(a1, b2) - s(b1, a2) + s(a1, a2)
    ai, bi = int(a), int(b)
    _check_corner(ai, len(sample.grid.t1)), _check_corner(bi, len(sample.grid.t1))
    if ai > bi:
        raise ValueError("need a <= b")

    def s1(i):
        return 0.0 if i == 0 else float(sample.raw[i - 1])

    return s1(bi) - s1(ai)


def _check_corner(i: int, m: int) -> None:
    if not 0 <= i <= m:
        raise IndexError(f"corner index {i} outside [0, {m}]")
