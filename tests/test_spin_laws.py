"""The law of the spin sums: given the partitions, and exactly at small n.

Spins are sums of hashed bits per pattern (pair), so their bytes cannot be
compared with one spin per class (pair); these tests check their law
instead.  Given the partitions, the spins are iid ±1 per class (pair), so
E[S S^T | partitions] is A A^T in 1D and (A1 A1^T) kron (A2 A2^T) in 2D,
A A^T = sum_p sizes[p] a_p a_p^T over the patterns.  At n = 3 or 4 the whole
law of the corner vector is a finite sum over the set partitions of the
draws (P(partition) by Moebius inversion of P_k = zeta(k/alpha) /
zeta(1/alpha)^k, the chance that k draws share a box) and over the spins.
The seeds and the floor P_FLOOR on every p-value were fixed before the
first run; each test prints its p-value.
"""

import math
from collections import Counter
from itertools import product

import numpy as np
import pytest
from scipy import stats as sps
from scipy.special import zeta

from partition_fields import CornerGrid, ModelKind, ModelSpec, replicate_generator, simulate
from partition_fields import fields
from partition_fields.fields import _corner_index
from partition_fields.partition1d import Patterns
from partition_fields.seeding import replicate_generators

P_FLOOR = 1e-3
PARTITION_SEED = "1a3b5000000000000000000000000001"
KEY_SEED = 20261020
KEYS = 20_000
PMF_SEED = "1a3b5000000000000000000000000002"
PMF_REPLICATES = 50_000

_G4 = (0.25, 0.5, 0.75, 1.0)
_T70 = tuple(m / 70 for m in range(1, 71))


# ---------------------------------------------------------------------------
# second moments at fixed partitions
# ---------------------------------------------------------------------------

def _tiled(table: Patterns, reps: int) -> Patterns:
    """A one-row table repeated as ``reps`` rows."""
    k = table.ids.size
    return Patterns(np.tile(table.ids, reps), np.tile(table.counts, reps), np.tile(table.sizes, reps),
                    np.arange(reps + 1) * k)


def _gram(table: Patterns) -> np.ndarray:
    """A A^T = sum_p sizes[p] a_p a_p^T of a one-row table."""
    return (table.counts * table.sizes) @ table.counts.T


def _p_second_moments(sums: np.ndarray, exact: np.ndarray) -> float:
    """Bonferroni p-value of the empirical E[S_i S_j] against the exact ones.

    Every pair i <= j up to 16 corners, else each corner with itself and
    with the last one; a pair whose products do not vary must match exactly.
    """
    sums = sums.reshape(sums.shape[0], -1)
    c = sums.shape[1]
    pairs = [(i, j) for i in range(c) for j in range(i, c)] if c <= 16 else \
        [(i, i) for i in range(c)] + [(i, c - 1) for i in range(c - 1)]
    i, j = np.array(pairs).T
    products = sums[:, i] * sums[:, j]
    emp, se = products.mean(axis=0), products.std(axis=0, ddof=1) / math.sqrt(sums.shape[0])
    fixed = se == 0
    assert np.array_equal(emp[fixed], exact[i, j][fixed])
    z = np.abs(emp[~fixed] - exact[i, j][~fixed]) / se[~fixed]
    return min(1.0, len(pairs) * 2.0 * sps.norm.sf(z.max()))


def _keys(reps: int) -> np.ndarray:
    return np.random.default_rng(KEY_SEED).integers(0, 2**64, (reps, 2), dtype=np.uint64, endpoint=False)


_MOMENT_CASES = {
    "karlin2d-1024": (ModelSpec(ModelKind.KARLIN_2D, (0.6, 0.6), (1024, 1024)), CornerGrid(_G4, _G4)),
    "combined2d": (ModelSpec(ModelKind.COMBINED_2D, (0.25, 0.6), (64, 256), forest_depth=2000), CornerGrid(_G4, _G4)),
    # past 64 corners an urn code takes two words
    "karlin2d-70-corners": (ModelSpec(ModelKind.KARLIN_2D, (0.6, 0.6), (300, 100)), CornerGrid(_T70, (0.5, 1.0))),
    "karlin1d-70-corners": (ModelSpec(ModelKind.KARLIN_1D, (0.6,), (300,)), CornerGrid(_T70)),
}


@pytest.mark.parametrize("name", sorted(_MOMENT_CASES))
def test_second_moments_given_the_partitions(name):
    spec, grid = _MOMENT_CASES[name]
    tables = [fields.sample_axes([axis], [ts], [replicate_generator(PARTITION_SEED, q)])[0]
              for q, (axis, ts) in enumerate(zip(spec.axes, (grid.t1, grid.t2)))]
    assert all(t.ids.size for t in tables)
    keys = _keys(KEYS)
    if spec.is_2d:
        sums = fields._sums_2d(keys, *(_tiled(t, KEYS) for t in tables))
        exact = np.kron(_gram(tables[0]), _gram(tables[1]))
    else:
        axis = spec.axes[0]
        sums = fields._sums_1d(keys, _tiled(tables[0], KEYS), lambda h: axis.draw(spec.marginal, h))
        exact = _gram(tables[0]) * spec.marginal.second_moment
    p = _p_second_moments(sums, exact)
    print(f"second moments {name}: p = {p:.4g}")
    assert p >= P_FLOOR


# ---------------------------------------------------------------------------
# the exact law of small urn fields
# ---------------------------------------------------------------------------

def _set_partitions(n: int):
    """Every set partition of 0..n-1 as its block index per element (restricted growth strings)."""
    def grow(prefix, blocks):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for b in range(blocks + 1):
            yield from grow(prefix + [b], max(blocks, b + 1))
    yield from grow([0], 1)


def _partition_probability(alpha: float, blocks: tuple[int, ...]) -> float:
    """P(the draws' boxes make exactly this partition) = sum_{sigma >= pi} mu(pi, sigma) prod_C P_|C|."""
    sizes = np.bincount(blocks)
    total = 0.0
    for merge in _set_partitions(sizes.size):  # the coarsenings sigma of pi
        groups = np.bincount(merge)
        mu = math.prod((-1) ** (g - 1) * math.factorial(g - 1) for g in groups.tolist())
        merged = np.bincount(merge, weights=sizes).astype(int)
        total += mu * math.prod(zeta(m / alpha) / zeta(1 / alpha) ** m for m in merged.tolist())
    return total


def _parities(blocks: tuple[int, ...], corners) -> np.ndarray:
    """(corners x boxes) 0/1: box c holds an odd number of the first corners[m] draws."""
    onehot = np.eye(max(blocks) + 1, dtype=np.int64)[list(blocks)]
    return np.stack([onehot[:c].sum(axis=0) & 1 for c in corners])


def _exact_urn_pmf(spec: ModelSpec, grid: CornerGrid) -> dict[tuple[int, ...], float]:
    """The law of the corner vector of an urn field with ±1 spins, by enumeration."""
    per_axis = []
    for axis, ts in zip(spec.axes, (grid.t1, grid.t2)):
        corners = _corner_index(axis.n, ts).tolist()
        per_axis.append([(_partition_probability(axis.alpha, pi), _parities(pi, corners))
                         for pi in _set_partitions(axis.n)])
    pmf = Counter()
    for parts in product(*per_axis):
        weight = math.prod(p for p, _ in parts)
        shape = tuple(a.shape[1] for _, a in parts)
        for spins in product((-1, 1), repeat=math.prod(shape)):
            eps = np.asarray(spins).reshape(shape)
            s = parts[0][1] @ eps if len(parts) == 1 else parts[0][1] @ eps @ parts[1][1].T
            pmf[tuple(s.ravel().tolist())] += weight / 2 ** eps.size
    return pmf


_PMF_CASES = {
    "karlin2d-3x3": (ModelSpec(ModelKind.KARLIN_2D, (0.5, 0.7), (3, 3)),
                     CornerGrid((1 / 3, 2 / 3, 1.0), (1 / 3, 2 / 3, 1.0))),
    "karlin1d-4": (ModelSpec(ModelKind.KARLIN_1D, (0.6,), (4,)), CornerGrid(_G4)),
}


@pytest.mark.parametrize("name", sorted(_PMF_CASES))
def test_small_urn_fields_follow_the_exact_law(name):
    spec, grid = _PMF_CASES[name]
    pmf = _exact_urn_pmf(spec, grid)
    assert abs(sum(pmf.values()) - 1.0) < 1e-12
    raw = simulate(spec, grid, replicate_generators(PMF_SEED, 0, PMF_REPLICATES))
    seen = Counter(tuple(row) for row in raw.reshape(PMF_REPLICATES, -1).astype(np.int64).tolist())
    assert set(seen) <= set(pmf), "an outcome the exact law does not allow"
    expected = {cell: PMF_REPLICATES * p for cell, p in pmf.items()}
    big = [cell for cell, e in expected.items() if e >= 5]
    small = [cell for cell in expected if expected[cell] < 5]
    observed = [seen[c] for c in big] + [sum(seen[c] for c in small)]
    wanted = [expected[c] for c in big] + [sum(expected[c] for c in small)]
    if not small:
        observed, wanted = observed[:-1], wanted[:-1]
    chi2 = sum((o - e) ** 2 / e for o, e in zip(observed, wanted))
    p = sps.chi2.sf(chi2, len(observed) - 1)
    print(f"exact law {name}: {len(observed)} cells, chi2 = {chi2:.2f}, p = {p:.4g}")
    assert p >= P_FLOOR
