"""Heavy-tailed laws on the positive integers and bounded centered marginals.

Two families are provided:

* ``KarlinZipf``: p_k = k**(-1/alpha) / zeta(1/alpha), alpha in (0, 1).  The
  counting function nu(x) = #{k : p_k >= 1/x} then equals
  floor((x/Z)**alpha), i.e. the regular-variation index is alpha with the
  slowly varying part frozen to the constant Z**(-alpha).
* ``HsTail``: p_n = n**(-alpha) - (n+1)**(-alpha), alpha in (0, 1/2), so the
  tail sum from n equals n**(-alpha) exactly and the slowly varying part is
  the constant 1.

Slowly varying functions are deliberately realized as constants: finite-n
normalizations become exact and verification bands do not have to absorb an
uncontrolled bias term.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ._hashing import low_uniforms_from, signs_from, uniforms_from
from ._special import hurwitz_zeta

__all__ = [
    "PmfKind",
    "PowerLawPmf",
    "FinitePmf",
    "MarginalLaw",
    "make_karlin_pmf",
    "make_hs_pmf",
    "invert_hs_tail",
    "sample_zipf_rows",
]

# Largest label/jump magnitude we materialize.  Mass above is handled by
# resampling (KarlinZipf) or clamping (HsTail, where a jump this large from
# any site above the floor -depth lands below it anyway); both choices are
# deterministic.
_MAX_VALUE = 1 << 62
_SELF_CHECK_TERMS = 1024
_SELF_CHECK_TOL = 1e-12


class PmfKind(enum.Enum):
    """A direction's law; it fixes the partition (Zipf labels: urn, exact-tail jumps: forest)."""

    KARLIN_ZIPF = "karlin_zipf"
    HS_TAIL = "hs_tail"

    @property
    def alpha_max(self) -> float:
        """Admissible alphas are (0, alpha_max)."""
        return 1.0 if self is PmfKind.KARLIN_ZIPF else 0.5


@dataclass(frozen=True)
class PowerLawPmf:
    """A regularly varying pmf on {1, 2, ...} with exact analytic accessors."""

    kind: PmfKind
    alpha: float

    def __post_init__(self):
        # compared before float(): a string raises TypeError, a boolean is out of range
        if not 0.0 < self.alpha < self.kind.alpha_max:
            raise ValueError(f"{self.kind.value} requires alpha in (0,{self.kind.alpha_max}), got {self.alpha!r}")
        object.__setattr__(self, "alpha", float(self.alpha))
        self._self_check()

    # -- cached constants -------------------------------------------------
    @cached_property
    def _s(self) -> float:
        # Zipf exponent 1/alpha (KarlinZipf only)
        return 1.0 / self.alpha

    @cached_property
    def _zeta_s(self) -> float:
        return hurwitz_zeta(self._s, 1.0)

    @cached_property
    def sv_constant(self) -> float:
        """Slowly varying constant: Z**(-alpha), Z = zeta(1/alpha) (KarlinZipf); 1 (HsTail)."""
        if self.kind is PmfKind.KARLIN_ZIPF:
            return self._zeta_s ** (-self.alpha)
        return 1.0

    # -- analytic accessors ------------------------------------------------
    def pmf_at(self, k) -> np.ndarray | float:
        """Exact probability of the label/jump value k (vectorized)."""
        k = np.asarray(k, dtype=np.float64)
        if np.any(k < 1):
            raise ValueError("pmf is supported on k >= 1")
        if self.kind is PmfKind.KARLIN_ZIPF:
            out = k ** (-self._s) / self._zeta_s
        else:
            out = k ** (-self.alpha) - (k + 1.0) ** (-self.alpha)
        return out if out.ndim else float(out)

    def tail_at(self, n) -> np.ndarray | float:
        """Exact upper tail sum over {n, n+1, ...} (vectorized)."""
        n = np.asarray(n, dtype=np.float64)
        if np.any(n < 1):
            raise ValueError("tail is defined for n >= 1")
        if self.kind is PmfKind.KARLIN_ZIPF:
            out = np.asarray(hurwitz_zeta(self._s, n)) / self._zeta_s
        else:
            out = n ** (-self.alpha)
        return out if out.ndim else float(out)

    def pmf_block(self, lo: int, hi: int) -> np.ndarray:
        """p_k for k in [lo, hi) as an array."""
        return np.asarray(self.pmf_at(np.arange(lo, hi, dtype=np.float64)))

    def _self_check(self) -> None:
        # mass conservation: explicit head plus analytic tail
        head = float(np.sum(self.pmf_block(1, _SELF_CHECK_TERMS + 1), dtype=np.longdouble))
        total = head + float(self.tail_at(_SELF_CHECK_TERMS + 1))
        if abs(total - 1.0) > _SELF_CHECK_TOL:
            raise AssertionError(f"pmf mass check failed: {total}")


@lru_cache(maxsize=128)
def make_karlin_pmf(alpha: float) -> PowerLawPmf:
    """Zipf-type law p_k = k**(-1/alpha)/Z, alpha in (0, 1)."""
    return PowerLawPmf(PmfKind.KARLIN_ZIPF, alpha)


@lru_cache(maxsize=128)
def make_hs_pmf(alpha: float) -> PowerLawPmf:
    """Exact-tail law with tail(n) = n**(-alpha), alpha in (0, 1/2)."""
    return PowerLawPmf(PmfKind.HS_TAIL, alpha)


def invert_hs_tail(alpha: float, u: np.ndarray) -> np.ndarray:
    """The jumps whose uniforms are u, by exact inversion of P(k >= n) = n**(-alpha).

    The base is floored where x would pass 2**64, so x stays finite without
    an ``np.errstate`` (a per-call cost in the forest walk's step loop) and
    the cap at 2**62 gives the same jumps.
    """
    x = np.maximum(1.0 - u, 2.0 ** (-64.0 * alpha)) ** (-1.0 / alpha)
    x = np.minimum(x, float(_MAX_VALUE))
    k = np.ceil(x).astype(np.int64) - 1
    np.maximum(k, 1, out=k)
    return k


def sample_zipf_rows(alpha: float, rngs, counts, lo: int = 1) -> np.ndarray:
    """Rejection sampler for p_k proportional to k**(-s) on k >= lo, s = 1/alpha > 1 (Devroye).

    ``counts`` holds one draw count per generator; every row's draws come
    one after another in a flat array.  Proposal: X continuous with density
    proportional to x**(-s) on [lo, inf) by inversion, discretized as
    k = floor(X).  The acceptance ratio T/(k(T-1)) with T = (1+1/k)**(s-1)
    decreases in k, so its maximum is at k = lo, and accepting with the
    ratio divided by that maximum draws the law conditioned on k >= lo
    exactly; expected proposals per draw are bounded on compact alpha sets
    and tend to 1 as lo grows.  expm1/log1p keep T-1 exact for huge k.
    Proposals above 2**62 are rejected (resampled), i.e. draws follow the
    law conditioned on k < 2**62; the neglected mass is tail(2**62).

    Each round, every row still short of draws takes its ``todo`` u's and
    then its ``todo`` v's from its own generator in one ``random`` call, so
    a row depends on its generator alone; the acceptance test runs once on
    all rows' proposals.
    """
    x = 1.0 / alpha - 1.0
    inv_b1 = 1.0 / (lo * np.expm1(x * np.log1p(1.0 / lo)))  # 1/(lo(T_lo - 1))
    inv_b = (1.0 + 1.0 / lo) ** -x  # 1/T_lo
    counts = np.asarray(counts, dtype=np.int64)
    offsets = counts.cumsum() - counts
    out = np.empty(int(counts.sum()), dtype=np.int64)
    filled = np.zeros(len(rngs), dtype=np.int64)
    short = (filled < counts).nonzero()[0]
    while short.size:
        todo = counts[short] - filled[short]
        ends = todo.cumsum()
        # row r's block of drawn[2 (ends - todo)[r]:2 ends[r]] holds its u's, then its v's
        drawn = np.empty(2 * int(ends[-1]))
        for row, a, b in zip(short.tolist(), (2 * (ends - todo)).tolist(), (2 * ends).tolist()):
            rngs[row].random(out=drawn[a:b])
        u_at = np.arange(ends[-1]) + (ends - todo).repeat(todo)
        u, v = drawn[u_at], drawn[u_at + todo.repeat(todo)]
        with np.errstate(over="ignore"):
            xf = lo * u ** (-1.0 / x)  # exact at lo = 1
        ok = xf < float(_MAX_VALUE)
        kf = np.floor(xf, where=ok, out=np.ones(xf.shape))
        tm1 = np.expm1(x * np.log1p(1.0 / kf))
        accept = (ok & (v * kf * tm1 * inv_b1 <= (tm1 + 1.0) * inv_b)).nonzero()[0]
        # accepted draws keep their order within each row
        seg = ends.searchsorted(accept, side="right")
        n_acc = np.bincount(seg, minlength=short.size)
        rank = np.arange(accept.size) - (n_acc.cumsum() - n_acc)[seg]
        rows = short[seg]
        out[offsets[rows] + filled[rows] + rank] = kf[accept].astype(np.int64)
        filled[short] += n_acc
        short = short[filled[short] < counts[short]]
    return out


@dataclass(frozen=True)
class FinitePmf:
    """Finitely supported pmf on {1..m}: a hand-computable jump law for the renewal recursion.

    It has the one accessor ``renewal_sequence`` reads, ``pmf_block``, so
    that q can be checked against exact enumeration (acceptance criterion
    4); the simulated fields and the variance targets take only the
    power-law pmfs.
    """

    probs: tuple[float, ...]

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must be nonnegative and sum to 1")

    @cached_property
    def _p(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=np.float64)

    def pmf_block(self, lo: int, hi: int) -> np.ndarray:
        """p_k for k in [lo, hi) as an array, 0 off the support."""
        out = np.zeros(hi - lo)
        ks = np.arange(lo, hi)
        inside = (ks >= 1) & (ks <= len(self.probs))
        out[inside] = self._p[ks[inside] - 1]
        return out


class MarginalKind(enum.Enum):
    RADEMACHER = "rademacher"
    SCALED_SIGN = "scaled_sign"
    TWO_POINT = "two_point"


@dataclass(frozen=True)
class MarginalLaw:
    """Bounded, exactly centered two-point law for spin values.

    All three kinds reduce to a two-point law taking ``value_a`` with
    probability ``prob_a`` and ``value_b`` otherwise, with
    prob_a*value_a + (1-prob_a)*value_b == 0.  The kind names the law:
    RADEMACHER is exactly (1, -1, 1/2) and SCALED_SIGN is (c, -c, 1/2), c > 0.
    """

    kind: MarginalKind = MarginalKind.RADEMACHER
    value_a: float = 1.0
    value_b: float = -1.0
    prob_a: float = 0.5

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.value_a, self.value_b, self.prob_a)):
            raise ValueError("marginal values and prob_a must be finite")
        scale = max(abs(self.value_a), abs(self.value_b), 1e-300)
        if not 0.0 < self.prob_a < 1.0:
            raise ValueError("prob_a must lie in (0,1)")
        mean = self.prob_a * self.value_a + (1.0 - self.prob_a) * self.value_b
        # stated as what must hold, so NaN fails it
        if not abs(mean) <= 1e-12 * scale:
            raise ValueError(f"marginal law must be centered, mean={mean}")
        if self.kind is MarginalKind.RADEMACHER and (self.value_a, self.value_b, self.prob_a) != (1.0, -1.0, 0.5):
            raise ValueError("a Rademacher law takes the values 1 and -1 with probability 1/2")
        if self.kind is MarginalKind.SCALED_SIGN and not (
            self.value_a > 0.0 and self.value_b == -self.value_a and self.prob_a == 0.5
        ):
            raise ValueError("a scaled-sign law takes the values c > 0 and -c with probability 1/2")
        # a law without spread gives Z = 0; values near 1e-200 square to 0 as well,
        # and values past about 1.3e154 square past the float range
        try:
            second_moment = self.second_moment
        except OverflowError:
            second_moment = math.inf
        if not 0.0 < second_moment < math.inf:
            raise ValueError(f"marginal law must have a positive second moment, finite in float64, got {second_moment}")

    @classmethod
    def rademacher(cls) -> "MarginalLaw":
        return cls()

    @classmethod
    def scaled_sign(cls, c: float) -> "MarginalLaw":
        return cls(MarginalKind.SCALED_SIGN, float(c), -float(c), 0.5)

    @classmethod
    def two_point(cls, a: float, b: float, p: float) -> "MarginalLaw":
        return cls(MarginalKind.TWO_POINT, float(a), float(b), float(p))

    @property
    def second_moment(self) -> float:
        return self.prob_a * self.value_a**2 + (1.0 - self.prob_a) * self.value_b**2

    @property
    def is_rademacher(self) -> bool:
        return self.kind is MarginalKind.RADEMACHER

    def to_dict(self) -> dict:
        """The law as a config's ``marginal`` section names it."""
        if self.kind is MarginalKind.RADEMACHER:
            return {"kind": "rademacher"}
        if self.kind is MarginalKind.SCALED_SIGN:
            return {"kind": "scaled_sign", "c": self.value_a}
        return {"kind": "two_point", "a": self.value_a, "b": self.value_b, "p": self.prob_a}

    def draw_from_hash(self, h: np.ndarray) -> np.ndarray:
        """One value per hash word, distributed as the law itself.

        ``value_a`` where the word's top 53 bits, as a uniform, fall below
        ``prob_a``.  At prob_a = 1/2 that is where the top bit is clear, so
        the Rademacher law gives ``signs_from(h)`` as float64, bit for bit.
        """
        return np.where(uniforms_from(h) < self.prob_a, self.value_a, self.value_b)

    def draw_symmetrized_from_hash(self, h: np.ndarray) -> np.ndarray:
        """One value of (independent sign) * (law draw) per hash word.

        Sign and magnitude come from disjoint bit ranges of the same word.
        """
        if self.is_rademacher:
            return signs_from(h).astype(np.float64)
        z = np.where(low_uniforms_from(h) < self.prob_a, self.value_a, self.value_b)
        return signs_from(h) * z
