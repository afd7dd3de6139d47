"""Verification suites: named checks with explicit pass bands.

Each suite returns a :class:`SuiteReport` whose checks carry the measured
value, the target, the tolerance actually applied, and the verdict.  The
CLI ``verify`` command and the acceptance tests both run these, so there is
a single definition of every pass/fail band.

Two checks are expected to fail and are kept failing on purpose; see the
README's verification notes.  Partial sums of the odd-index occupancy
weights converge at rate R**(-alpha), which is orders of magnitude away
from the 1e-6 band at R = 2000, and the closed form c_alpha understates the
realized growth of the squared window weights by the factor
(Gamma(1-2a)/Gamma(1-a))**2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import FinitePmf, PmfKind, make_hs_pmf, make_karlin_pmf
from .fbs import HurstPair, fbs_cov_matrix
from .fields import KIND_TABLE, Axis, CornerGrid, ModelSpec
from .partition1d import urn_boxes
from .renewal import (
    bn_sq_growth_constant,
    c_alpha,
    cached_renewal_sequence,
    p_alpha_tail,
    p_alpha_weights,
    q_sq_tail_bound,
    renewal_sequence,
    weights,
)
from .seeding import replicate_generator
from .stats import run_replicates

__all__ = [
    "CheckResult",
    "SuiteReport",
    "SUITES",
    "run_suite",
    "suite_occupancy",
    "suite_variance",
    "suite_covariance",
    "suite_normality",
    "suite_renewal_asymptotics",
    "enumerate_renewal_probability",
]

_COV_SLACK = 0.05  # entrywise allowance for finite-n bias against the limit sheet
_KS_P_FLOOR = 1e-3
_ODD_SUM_TERMS = 2000
_ORACLE_KMAX = 15


def _plain(obj):
    """Recursively coerce numpy scalars so the payload is JSON-clean."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    target: float
    tolerance: float
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "value": float(self.value),
            "target": float(self.target),
            "tolerance": float(self.tolerance),
            "details": _plain(self.details),
        }


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }


def _band_check(name: str, value: float, target: float, rel_lo: float, rel_hi: float, **details) -> CheckResult:
    passed = target * rel_lo <= value <= target * rel_hi
    return CheckResult(
        name, bool(passed), float(value), float(target),
        float(target * (rel_hi - rel_lo) / 2.0),
        {"band": [target * rel_lo, target * rel_hi], **details},
    )


def suite_occupancy(alpha: float = 0.6, n: int = 10**6, seed=0xC0FFEE) -> SuiteReport:
    """Single-path occupancy ratios against the urn limits: n draws as one segment."""
    rng = replicate_generator(seed, 0)
    pmf = make_karlin_pmf(alpha)
    _, codes = urn_boxes(alpha, n, [n], [rng])  # one corner: a code's bit 0 marks an odd box
    k_n, k_odd = codes.shape[1], int((codes[0] & np.uint64(1)).sum())
    scale = n**alpha * pmf.sv_constant
    checks = (
        _band_check(
            "distinct-boxes-ratio", k_n / scale, math.gamma(1 - alpha), 0.9, 1.1,
            alpha=alpha, n=n, k_n=k_n,
        ),
        _band_check(
            "odd-fraction", k_odd / k_n, 2 ** (alpha - 1), 0.95, 1.05,
            alpha=alpha, n=n, k_odd=k_odd,
        ),
    )
    return SuiteReport("occupancy", checks)


def _unit_grid(spec: ModelSpec) -> CornerGrid:
    """The single corner (1, .., 1): S_n itself."""
    return CornerGrid(t1=(1.0,), t2=(1.0,) if spec.is_2d else None)


def suite_variance(spec: ModelSpec, replicates: int, seed, parallelism: int = 1) -> SuiteReport:
    """Finite-n variance identity |MC - analytic| <= 3 SE (+ truncation allowance)."""
    name = KIND_TABLE[spec.kind].identity
    rec = run_replicates(spec, _unit_grid(spec), replicates, seed, parallelism).identities[name]
    tol = 3.0 * rec.se + rec.truncation_allowance
    check = CheckResult(
        name, rec.gap() <= tol, rec.mc, rec.analytic, tol,
        {"se": rec.se, "kind": rec.kind, "truncation_allowance": rec.truncation_allowance,
         "replicates": replicates},
    )
    return SuiteReport("variance", (check,))


def suite_covariance(spec: ModelSpec, grid: CornerGrid, replicates: int, seed, parallelism: int = 1) -> SuiteReport:
    """Entrywise |empirical cov - limit sheet cov| <= 0.05 + 3 SE on the grid."""
    if replicates < 100:
        raise ValueError("covariance suite needs at least 100 replicates")
    if not spec.is_2d or not grid.is_2d:
        raise ValueError("covariance suite compares 2D models against the limit sheet")
    report = run_replicates(spec, grid, replicates, seed, parallelism)
    h1, h2 = spec.hurst()
    target = fbs_cov_matrix(HurstPair(h1, h2), grid.t1, grid.t2)
    excess = np.abs(report.cov_mat - target) - (_COV_SLACK + 3.0 * report.cov_se)
    worst = int(np.argmax(excess))
    i, j = np.unravel_index(worst, excess.shape)
    check = CheckResult(
        "covariance-vs-limit-sheet",
        bool(np.all(excess <= 0)),
        float(report.cov_mat[i, j]),
        float(target[i, j]),
        float(_COV_SLACK + 3.0 * report.cov_se[i, j]),
        {
            "max_excess": float(excess[i, j]),
            "worst_entry": [int(i), int(j)],
            "replicates": replicates,
            "hurst": [h1, h2],
            "truncation": report.truncation,
        },
    )
    return SuiteReport("covariance", (check,))


def suite_normality(spec: ModelSpec, replicates: int, seed, parallelism: int = 1) -> SuiteReport:
    """KS test of the standardized corner value S(1,..,1)/Z against N(0,1), p > 1e-3."""
    if replicates < 100:
        raise ValueError("normality suite needs at least 100 replicates")
    report = run_replicates(spec, _unit_grid(spec), replicates, seed, parallelism)
    entry = report.ks[-1]
    passed = entry.get("p_value") is not None and entry["p_value"] > _KS_P_FLOOR
    check = CheckResult(
        "ks-standard-normal", bool(passed),
        float(entry.get("p_value") or 0.0), 1.0, _KS_P_FLOOR,
        {"statistic": entry.get("statistic"), "replicates": replicates},
    )
    return SuiteReport("normality", (check,))


def enumerate_renewal_probability(probs: tuple[float, ...], k: int) -> float:
    """Oracle for q_k: exhaustive sum over jump compositions of k.

    Deliberately memoless so it shares nothing with the convolution
    recursion it cross-checks.
    """
    if k == 0:
        return 1.0
    total = 0.0
    for j, pj in enumerate(probs, start=1):
        if j > k:
            break
        if pj:
            total += pj * enumerate_renewal_probability(probs, k - j)
    return total


def suite_renewal_asymptotics(alpha: float = 0.25, n: int = 10**5, seed=0xFEED) -> SuiteReport:
    """Renewal recursion oracle, odd-weight partial sums, weight growth."""
    checks: list[CheckResult] = []

    # 1) odd-index partial sums of the occupancy weights (known failing:
    #    the tail is ~ (2R)**(-a) / (2 Gamma(1-a)), far above 1e-6); the
    #    shortfall target - partial is the odd-index part of the exact tail T
    #    past 2R, so it lies in [T/2, T]
    for a in (0.3, 0.5, 0.7):
        partial = float(p_alpha_weights(a, 2 * _ODD_SUM_TERMS)[0::2].sum())
        target = 2.0 ** (a - 1.0)
        tail = p_alpha_tail(a, 2 * _ODD_SUM_TERMS)
        checks.append(
            CheckResult(
                f"odd-weight-partial-sum-alpha-{a}",
                abs(partial - target) <= 1e-6,
                partial, target, 1e-6,
                {"terms": _ODD_SUM_TERMS, "gap": partial - target,
                 "tail": tail, "shortfall_bracket": [tail / 2.0, tail]},
            )
        )

    # 2) recursion vs exhaustive composition enumeration on a small pmf
    rng = replicate_generator(seed, 0)
    raw = rng.random(5) + 0.1
    probs = tuple(raw / raw.sum())
    rs = renewal_sequence(FinitePmf(probs), _ORACLE_KMAX)
    worst = max(
        abs(rs.q[k] - enumerate_renewal_probability(probs, k)) for k in range(_ORACLE_KMAX + 1)
    )
    checks.append(
        CheckResult("renewal-recursion-oracle", worst <= 1e-12, worst, 0.0, 1e-12,
                    {"support": 5, "kmax": _ORACLE_KMAX, "probs": list(probs)})
    )

    # 3) squared-weight growth at kmax = 16n against both constants: the
    #    closed form c_alpha (known failing, see module docstring) and the
    #    realized growth constant (the calibration the simulators use)
    rs_big = cached_renewal_sequence(make_hs_pmf(alpha), 16 * n)
    checks.append(
        CheckResult(
            "sum-q-sq-increment-converged",
            float(rs_big.q[-1] ** 2) < 1e-8,
            float(rs_big.q[-1] ** 2), 0.0, 1e-8,
            {"kmax": rs_big.kmax},
        )
    )
    b_sq = weights(rs_big, n).b_sq
    checks.append(
        _band_check("weight-growth-c-alpha", b_sq / (c_alpha(alpha) * n ** (2 * alpha + 1)),
                    1.0, 0.9, 1.1, alpha=alpha, n=n)
    )
    # the realized ratio falls short by the weight mass past kmax; the q^2
    # tail past kmax, times n^2, is what the forest identity target adds
    realized = bn_sq_growth_constant(alpha) * n ** (2 * alpha + 1)
    checks.append(
        _band_check(
            "weight-growth-realized", b_sq / realized, 1.0, 0.9, 1.1, alpha=alpha, n=n,
            ratio_with_q_sq_tail=(b_sq + n**2 * q_sq_tail_bound(alpha, rs_big.kmax)) / realized,
        )
    )

    # 4) self-similar doubling of the squared weights, at matched kmax/n
    rs_2n = cached_renewal_sequence(make_hs_pmf(alpha), 32 * n)
    ratio = weights(rs_2n, 2 * n).b_sq / weights(rs_big, n).b_sq
    checks.append(
        _band_check("weight-doubling", ratio, 2.0 ** (2 * alpha + 1), 0.95, 1.05,
                    alpha=alpha, n=n)
    )
    return SuiteReport("renewal-asymptotics", tuple(checks))


SUITES = ("occupancy", "variance", "covariance", "normality", "renewal-asymptotics")


def run_suite(
    name: str,
    *,
    spec: ModelSpec | None = None,
    grid: CornerGrid | None = None,
    replicates: int | None = None,
    seed=0,
    parallelism: int = 1,
) -> SuiteReport:
    """Dispatch a named suite with the arguments it needs."""
    if name == "occupancy":
        if spec is None:
            return suite_occupancy(seed=seed)
        axis = _axis_of(spec, PmfKind.KARLIN_ZIPF, -1, f"{name} suite")
        return suite_occupancy(alpha=axis.alpha, n=axis.n, seed=seed)
    if name == "variance":
        _need(spec, "model"), _need(replicates, "replicates")
        return suite_variance(spec, replicates, seed, parallelism)
    if name == "covariance":
        _need(spec, "model"), _need(grid, "grid"), _need(replicates, "replicates")
        return suite_covariance(spec, grid, replicates, seed, parallelism)
    if name == "normality":
        _need(spec, "model"), _need(replicates, "replicates")
        return suite_normality(spec, replicates, seed, parallelism)
    if name == "renewal-asymptotics":
        if spec is None:
            return suite_renewal_asymptotics(seed=seed)
        axis = _axis_of(spec, PmfKind.HS_TAIL, 0, f"{name} suite")
        return suite_renewal_asymptotics(alpha=axis.alpha, n=axis.n, seed=seed)
    raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")


def _axis_of(spec: ModelSpec, kind: PmfKind, which: int, user: str) -> Axis:
    """The model's axes of the given kind, indexed by ``which``: the partition ``user`` reads."""
    axes = [axis for axis in spec.axes if axis.kind is kind]
    if not axes:
        what = "an urn" if kind is PmfKind.KARLIN_ZIPF else "a forest"
        raise ValueError(f"{user} needs a model with {what} axis, got {spec.kind.value}")
    return axes[which]


def _need(value, what: str):
    if value is None:
        raise ValueError(f"suite requires {what}")
    return value
