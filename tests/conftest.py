import os
from collections import Counter
from dataclasses import dataclass
from itertools import groupby

import numpy as np
import pytest
from scipy.special import zeta

from numpy.random import Generator, Philox

from partition_fields import fields, partition1d
from partition_fields._hashing import _finalize, _key_words, left_words, right_words
from partition_fields.distributions import FinitePmf, PmfKind, PowerLawPmf, sample_zipf_rows
from partition_fields.seeding import normalize_seed, spin_key

# Keep BLAS thread pools fixed so timings and reductions are stable in CI.
os.environ.setdefault("OMP_NUM_THREADS", "1")

SEED = "5eed00000000000000000000000000aa"


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def workers() -> int:
    return min(2, os.cpu_count() or 1)


def running_parity_oracle(labels) -> list[int]:
    """1 where the number of earlier-or-equal draws with the same label is odd."""
    seen: dict[int, int] = {}
    out = []
    for lab in labels:
        seen[lab] = seen.get(lab, 0) + 1
        out.append(seen[lab] % 2)
    return out


# ---------------------------------------------------------------------------
# one-replicate samplers: the references for the batched ones in src/
# ---------------------------------------------------------------------------

_MAX_VALUE = 1 << 62


def invert_hs_tail_oracle(alpha: float, u: np.ndarray) -> np.ndarray:
    """Exact-tail jumps, P(k >= n) = n**(-alpha), inverted from the uniforms u (overflow to inf, then capped)."""
    with np.errstate(over="ignore"):
        x = (1.0 - u) ** (-1.0 / alpha)
    x = np.minimum(x, float(_MAX_VALUE))
    k = np.ceil(x).astype(np.int64) - 1
    np.maximum(k, 1, out=k)
    return k


def sample_zipf_oracle(s: float, rng, m: int) -> np.ndarray:
    """m draws of p_k proportional to k**(-s) from one generator, by Devroye's rejection."""
    x = s - 1.0
    inv_b1 = 1.0 / np.expm1(x * np.log(2.0))
    inv_b = 2.0**-x
    out = np.empty(m, dtype=np.int64)
    filled = 0
    while filled < m:
        todo = m - filled
        u = rng.random(todo)
        v = rng.random(todo)
        with np.errstate(over="ignore"):
            xf = u ** (-1.0 / x)
        ok = xf < float(_MAX_VALUE)
        kf = np.floor(xf, where=ok, out=np.ones_like(xf))
        tm1 = np.expm1(x * np.log1p(1.0 / kf))
        accept = ok & (v * kf * tm1 * inv_b1 <= (tm1 + 1.0) * inv_b)
        n_acc = int(np.count_nonzero(accept))
        out[filled : filled + n_acc] = kf[accept].astype(np.int64)
        filled += n_acc
    return out


# ---------------------------------------------------------------------------
# the urn as n labels: the reference for the box-count path in src/
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UrnPath:
    """Label draws Y_1..Y_n and their boxes, one row per replicate (1D: one path).

    ``classes`` are each row's distinct labels in increasing order, row after
    row (row b's from ``starts[b]``), and ``classes[inverse[b, i]] == labels[b, i]``.
    """

    labels: np.ndarray
    classes: np.ndarray
    inverse: np.ndarray
    starts: np.ndarray

    @classmethod
    def from_labels(cls, labels) -> "UrnPath":
        labels = np.asarray(labels, dtype=np.int64)
        if labels.size == 0:
            raise ValueError("label sequence must be nonempty")
        return cls(labels, *unique_rows(labels))


def unique_rows(ids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(classes, inverse, starts) by one ``np.unique`` per row (a 1D array is one row).

    Row b's distinct ids, in increasing order, are ``classes[starts[b]:starts[b + 1]]``,
    and ``classes[inverse[b, i]] == ids[b, i]``.
    """
    ids = np.asarray(ids, dtype=np.int64)
    per_row = [np.unique(row, return_inverse=True) for row in np.atleast_2d(ids)]
    starts = np.cumsum([0] + [u.size for u, _ in per_row], dtype=np.int64)
    inverse = np.stack([s + inv for s, (_, inv) in zip(starts, per_row)]).reshape(ids.shape)
    return np.concatenate([u for u, _ in per_row]), inverse, starts


def sample_urn(pmf: PowerLawPmf, n: int, rngs) -> UrnPath:
    """Draw n Zipf labels per generator, one row each, and sort each row into boxes."""
    if getattr(pmf, "kind", None) is not PmfKind.KARLIN_ZIPF:
        raise ValueError("urn labels must follow a KarlinZipf pmf")
    if n < 1:
        raise ValueError("n must be >= 1")
    return UrnPath.from_labels(sample_zipf_rows(pmf.alpha, rngs, [n] * len(rngs)).reshape(len(rngs), n))


def occupancy(path: UrnPath) -> tuple[int, int]:
    """(#occupied boxes, #odd-occupied boxes) of the whole path, every row's boxes together."""
    counts = np.bincount(path.inverse.ravel())  # every box of the path holds a draw
    return int(counts.size), int(np.count_nonzero(counts & 1))


def corner_counts(rows, ids, segments, n_rows: int, n_segments: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(classes, counts, starts) of entries sorted by row, then by class id.

    Entry e is one site of row ``rows[e]`` and class ``ids[e]``, first
    counted at corner ``segments[e]`` (0 <= segments[e] < n_segments).  Row
    b's classes, in increasing order, are ``classes[starts[b]:starts[b + 1]]``,
    and ``counts[m, c]`` (int64) is the number of class c's sites counted at
    corner m, which holds the segments 0..m.  Scheme v3's urn counted its
    tail boxes with it (:func:`urn_counts_oracle`).
    """
    new = np.ones(ids.size, dtype=bool)
    new[1:] = (ids[1:] != ids[:-1]) | (rows[1:] != rows[:-1])
    k = int(np.count_nonzero(new))
    counts = np.bincount(segments * k + np.cumsum(new) - 1, minlength=n_segments * k)
    starts = np.concatenate(([0], np.cumsum(np.bincount(rows[new], minlength=n_rows))))
    return ids[new], np.cumsum(counts.reshape(n_segments, k), axis=0), starts


def corner_layout(ids, corners) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sites' class ids (one row per replicate) in the layout of :func:`corner_counts`.

    Returns (classes, counts, starts): each row's distinct ids in increasing
    order, the number of each class's sites among the first corners[m] sites
    of its row (int64, corners x classes) and the row starts.
    """
    classes, inverse, starts = unique_rows(np.atleast_2d(ids))
    corners = np.asarray(corners).tolist()
    counts = [np.bincount(inverse[:, :c].ravel(), minlength=classes.size) for c in corners]
    return classes, np.asarray(counts, dtype=np.int64).reshape(len(corners), classes.size), starts


def urn_layout(labels, corners) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Labels (one row per replicate) in the layout of :func:`urn_counts_oracle`, scheme v3's ``urn_counts``.

    As there, only the labels up to the last corner are read, and a box
    keeps the parity of its count: (classes, parities, starts).
    """
    labels = np.atleast_2d(np.asarray(labels, dtype=np.int64))[:, : int(corners[-1])]
    classes, counts, starts = corner_layout(labels, corners)
    return classes, counts & 1, starts


# ---------------------------------------------------------------------------
# the urn replicate path before its fixed costs were cut: the reference for
# seeding.replicate_generators, and the sampler rounds the urn's tail reads
# ---------------------------------------------------------------------------

_WORD = (1 << 64) - 1


def replicate_generator_oracle(base_seed, r: int) -> Generator:
    """Replicate r's generator by ``Philox(key=s, counter=...)``, which seeds from OS entropy first."""
    counter = np.array([0, 0, r & _WORD, (r >> 64) & _WORD], dtype=np.uint64)
    return Generator(Philox(key=normalize_seed(base_seed), counter=counter))


def sample_zipf_rows_oracle(alpha: float, rngs, counts, lo: int = 1) -> np.ndarray:
    """``distributions.sample_zipf_rows`` with two ``random`` calls per row per round, u's then v's."""
    x = 1.0 / alpha - 1.0
    inv_b1 = 1.0 / (lo * np.expm1(x * np.log1p(1.0 / lo)))
    inv_b = (1.0 + 1.0 / lo) ** -x
    counts = np.asarray(counts, dtype=np.int64)
    offsets = np.cumsum(counts) - counts
    out = np.empty(int(counts.sum()), dtype=np.int64)
    filled = np.zeros(len(rngs), dtype=np.int64)
    short = np.flatnonzero(filled < counts)
    while short.size:
        todo = counts[short] - filled[short]
        ends = np.cumsum(todo)
        u = np.empty(int(ends[-1]))
        v = np.empty_like(u)
        for row, a, b in zip(short.tolist(), (ends - todo).tolist(), ends.tolist()):
            rngs[row].random(out=u[a:b])
            rngs[row].random(out=v[a:b])
        with np.errstate(over="ignore"):
            xf = lo * u ** (-1.0 / x)
        ok = xf < float(_MAX_VALUE)
        kf = np.floor(xf, where=ok, out=np.ones_like(xf))
        tm1 = np.expm1(x * np.log1p(1.0 / kf))
        accept = np.flatnonzero(ok & (v * kf * tm1 * inv_b1 <= (tm1 + 1.0) * inv_b))
        seg = np.searchsorted(ends, accept, side="right")
        n_acc = np.bincount(seg, minlength=short.size)
        rank = np.arange(accept.size) - (np.cumsum(n_acc) - n_acc)[seg]
        rows = short[seg]
        out[offsets[rows] + filled[rows] + rank] = kf[accept].astype(np.int64)
        filled[short] += n_acc
        short = short[filled[short] < counts[short]]
    return out


# ---------------------------------------------------------------------------
# the urn as boxes with parities, before scheme v4 grouped them: the
# reference for partition1d.urn_patterns
# ---------------------------------------------------------------------------

def urn_counts_oracle(alpha: float, n: int, corners, rngs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(classes, parities, starts): the urn boxes below each corner, one row per generator.

    This is ``partition1d.urn_counts`` of scheme v3, which drew what
    ``urn_patterns`` draws: per row one multinomial call per run of equal
    corner segments, then the tail labels.  Row b's boxes are
    ``classes[starts[b]:starts[b + 1]]``, its head boxes first and then its
    tail boxes, each in increasing order; ``parities[m, c]`` is 1 when box
    c holds an odd number of draws among the first corners[m].
    """
    corners = np.asarray(corners, dtype=np.int64)
    pvals = partition1d._head_pvals(alpha, n)
    head = pvals.size - 1
    runs, m = [], 0
    for length, run in groupby(np.diff(corners, prepend=0).tolist()):
        k = len(list(run))
        runs.append((slice(m, m + k), length, None if k == 1 else k))
        m += k
    drawn = np.empty((len(rngs), corners.size, head + 1), dtype=np.int64)
    for row, rng in zip(drawn, rngs):
        for segments, length, size in runs:
            row[segments] = rng.multinomial(length, pvals, size=size)
    per_segment = drawn[:, :, head]
    tail = sample_zipf_rows(alpha, rngs, per_segment.sum(axis=1), lo=head + 1)
    below = np.cumsum(drawn[:, :, :head], axis=1)
    head_rows, head_boxes = np.nonzero(below[:, -1])
    head_parity = below[head_rows, :, head_boxes].T & 1
    rows = np.repeat(np.arange(len(rngs)), per_segment.sum(axis=1))
    segment = np.repeat(np.tile(np.arange(corners.size), len(rngs)), per_segment.ravel())
    order = partition1d._row_label_order(rows, tail)
    tail, tail_counts, tail_starts = corner_counts(
        rows[order], tail[order], segment[order], len(rngs), corners.size)
    owner = np.concatenate((head_rows, np.repeat(np.arange(len(rngs)), np.diff(tail_starts))))
    merged = np.argsort(owner, kind="stable")
    classes = np.concatenate((head_boxes + 1, tail))[merged]
    parity = np.concatenate((head_parity, tail_counts & 1), axis=1)[:, merged]
    starts = np.concatenate(([0], np.cumsum(np.bincount(owner, minlength=len(rngs)))))
    return classes, parity, starts


def group_by_column(counts, starts) -> partition1d.Patterns:
    """Each row's classes grouped by count column, by one Python ``Counter`` per row.

    A column of zeros is left out.  A row's patterns come in increasing
    code order, the code having bit m set when counts[m] is odd (the urn's
    parity columns) and numbered 0, 1, ... within the row, as
    ``partition1d.urn_patterns`` lays them out.
    """
    counts = np.asarray(counts, dtype=np.int64)
    ids, columns, sizes, per_row = [], [], [], []
    for b in range(len(starts) - 1):
        row = Counter(tuple(col) for col in counts[:, starts[b]:starts[b + 1]].T.tolist() if any(col))
        ordered = sorted(row, key=lambda col: sum(bit << m for m, bit in enumerate(col)))
        ids += range(len(ordered))
        columns += ordered
        sizes += [row[col] for col in ordered]
        per_row.append(len(ordered))
    return partition1d.Patterns(
        np.asarray(ids, dtype=np.int64),
        np.asarray(columns, dtype=np.int64).reshape(-1, counts.shape[0]).T,
        np.asarray(sizes, dtype=np.int64),
        np.concatenate(([0], np.cumsum(per_row, dtype=np.int64))),
    )


# ---------------------------------------------------------------------------
# the urn occupancies as a box-by-box sum: the odd-box count is the reference
# for the closed-form tail of ``partition1d.expected_occupancy``
# ---------------------------------------------------------------------------

_OCCUPANCY_TOL = 1e-10  # certificate on the discarded second-order tail
_OCCUPANCY_MAX_BOXES = 1 << 28


def _tail(pmf, lo: int) -> float:
    """Mass of {lo, lo+1, ...}: from the probabilities for FinitePmf, exact for KarlinZipf."""
    if isinstance(pmf, FinitePmf):
        return float(np.sum(np.asarray(pmf.probs, dtype=np.float64)[lo - 1 :]))
    return float(pmf.tail_at(lo))


def _tail_sq(pmf, lo: int) -> float:
    """Squared-mass tail sum over {lo, lo+1, ...}: exact for FinitePmf and KarlinZipf."""
    if isinstance(pmf, FinitePmf):
        return float(np.sum(np.asarray(pmf.probs, dtype=np.float64)[lo - 1 :] ** 2))
    s = 1.0 / pmf.alpha
    return float(zeta(2.0 * s, lo)) / float(zeta(s)) ** 2


def expected_occupancy_oracle(pmf, n: int) -> tuple[float, float]:
    """(E[#occupied boxes], E[#odd-occupied boxes]) after n draws, box by box.

    Sums 1-(1-p_l)^n and (1-(1-2 p_l)^n)/2 over boxes in blocks.  Both
    summands are n*p_l + O((n p_l)^2), so once the squared-mass tail bound
    n^2 * sum_{l>=m} p_l^2 drops below 1e-10 the remaining boxes are
    replaced by the analytic first-order tail n * tail(m); the discarded
    second-order part is below 1e-10 by construction.  (Float rounding adds
    about eps per explicitly summed box on top of the certificate.)  Gives up
    (RuntimeError) past 2^28 boxes.  Takes a FinitePmf or a KarlinZipf law.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    block = 1 << 16
    phi = 0.0
    odd = 0.0
    lo = 1
    while True:
        cert = n * n * _tail_sq(pmf, lo)
        if cert < _OCCUPANCY_TOL:
            t = _tail(pmf, lo)
            return phi + n * t, odd + n * t
        if lo > _OCCUPANCY_MAX_BOXES:
            raise RuntimeError(f"expected_occupancy_oracle needs more than {_OCCUPANCY_MAX_BOXES} boxes for n={n}")
        p = pmf.pmf_block(lo, lo + block)
        live = p > 0.0
        pv = p[live]
        small = pv < 0.25  # log1p(-p) is infinite at p = 1, log1p(-2p) invalid past 1/2
        phi_terms = np.empty_like(pv)
        phi_terms[small] = -np.expm1(n * np.log1p(-pv[small]))
        phi_terms[~small] = 1.0 - np.power(1.0 - pv[~small], n)
        phi += float(np.sum(phi_terms, dtype=np.longdouble))
        odd_terms = np.empty_like(pv)
        odd_terms[small] = -0.5 * np.expm1(n * np.log1p(-2.0 * pv[small]))
        odd_terms[~small] = 0.5 * (1.0 - np.power(1.0 - 2.0 * pv[~small], n))
        odd += float(np.sum(odd_terms, dtype=np.longdouble))
        if not np.all(live) and _tail(pmf, lo + block) == 0.0:
            return phi, odd  # finite support exhausted
        lo += block
        block = min(2 * block, 1 << 22)


# ---------------------------------------------------------------------------
# the keyed hash before its finalizer worked in place
# ---------------------------------------------------------------------------

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def finalize_oracle(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer, allocating a new array for every step."""
    z = (z ^ (z >> np.uint64(30))) * _M1
    z = (z ^ (z >> np.uint64(27))) * _M2
    return z ^ (z >> np.uint64(31))


def hash2(key, a, b) -> np.ndarray:
    """The keyed pair hash behind every spin word; broadcasts `a` against `b` (and the key).

    It is ``finalize(left_words(k0, a) ^ right_words(k1, b))``: each side's
    word depends on one identifier and one key word only.  ``hash1(key, a)``
    is ``hash2(key, a, 0)``, and a pattern's word j in 1D is ``hash2(key, id, j)``.
    """
    k0, k1 = _key_words(key)
    return _finalize(left_words(k0, a) ^ right_words(k1, b))


# ---------------------------------------------------------------------------
# the 2D spin sums one replicate and one pattern pair at a time, in int64:
# the reference for the padded blocks and wide pairs of fields.simulate
# ---------------------------------------------------------------------------

def top_bits_set(words: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """The set bits among the top ``bits`` bits of each word, one bit position at a time."""
    count = np.zeros(words.shape, dtype=np.int64)
    for k in range(64):
        count += ((words >> np.uint64(63 - k)) & np.uint64(1)).astype(np.int64) * (k < bits)
    return count


def pair_spin_sums(key, ids1, sizes1, ids2, sizes2) -> np.ndarray:
    """X[p, q]: the sum of the N = sizes1[p] * sizes2[q] spins of each pattern pair under one key.

    Word j = j_hi * 2^16 + j_lo of a pair is ``hash2(key, id_p + (j_hi << 48), id_q + (j_lo << 48))``,
    j < ceil(N / 64), and X = N - 2 * (the set bits among the first N bits of the words, top bit first).
    """
    n = np.multiply.outer(np.asarray(sizes1, dtype=np.int64), np.asarray(sizes2, dtype=np.int64))
    ids1, ids2 = np.asarray(ids1).astype(np.uint64), np.asarray(ids2).astype(np.uint64)
    heads = top_bits_set(hash2(key, ids1[:, None], ids2[None, :]), np.minimum(n, 64))
    for p, q in zip(*np.nonzero(n > 64)):
        j = np.arange(1, -(-int(n[p, q]) // 64), dtype=np.uint64)
        hi, lo = j >> np.uint64(16), j & np.uint64(0xFFFF)
        words = hash2(key, ids1[p] + (hi << np.uint64(48)), ids2[q] + (lo << np.uint64(48)))
        heads[p, q] += int(top_bits_set(words, np.minimum(int(n[p, q]) - 64 * j.astype(np.int64), 64)).sum())
    return n - 2 * heads


def simulate_2d_oracle(spec, grid, rngs) -> np.ndarray:
    """``fields.simulate`` on a 2D spec, one replicate at a time in int64, which no summation order can round."""
    keys = [spin_key(rng) for rng in rngs]
    t1, t2 = fields.sample_axes(spec.axes, (grid.t1, grid.t2), rngs)
    out = np.empty((len(rngs), *grid.shape()))
    for b, key in enumerate(keys):
        c1, c2 = slice(t1.starts[b], t1.starts[b + 1]), slice(t2.starts[b], t2.starts[b + 1])
        x = pair_spin_sums(key, t1.ids[c1], t1.sizes[c1], t2.ids[c2], t2.sizes[c2])
        out[b] = t1.counts[:, c1] @ x @ t2.counts[:, c2].T
    return out


# ---------------------------------------------------------------------------
# the forest walk: every query line to the floor, and on explicit jumps
# ---------------------------------------------------------------------------

def walk_roots_oracle(alpha: float, keys, depth: int, sites) -> np.ndarray:
    """``partition1d.roots_of`` by walking every query line down to the floor on its own.

    Each line follows i -> i - J_i until its next parent falls at or below
    -depth, whether or not it has met another line; the jumps come from
    ``partition1d.hashed_jumps``, looked up at call time.
    """
    sites = np.asarray(sites, dtype=np.int64)
    keys = np.asarray(keys, dtype=np.uint64).reshape(-1, 2)
    roots = np.tile(sites.reshape(-1), len(keys))
    k0, k1 = np.repeat(keys, sites.size, axis=0).T
    live, pos = np.arange(roots.size), roots
    while live.size:
        parents = pos - partition1d.hashed_jumps(alpha, (k0, k1), pos)
        inside = parents > -depth
        live, pos, k0, k1 = live[inside], parents[inside], k0[inside], k1[inside]
        roots[live] = pos
    return roots.reshape(len(keys), *sites.shape)


def roots_on_jumps(jumps, lo: int, sites) -> np.ndarray:
    """``partition1d.roots_of`` run on explicit jumps instead of hashed ones.

    ``jumps[..., i - lo - 1]`` is J_i on the window (lo, hi] (a 1D array is
    one row); the walk's floor is lo.  The window is shifted to the sites
    1..hi - lo over the floor 0, and the jump function is stubbed for the
    call, with row b's key set to (b, 0), so the walk itself is the real
    one; the shifted roots are then read at ``sites``.  The result has
    shape ``jumps.shape[:-1] + sites.shape``.
    """
    jumps = np.asarray(jumps, dtype=np.int64)
    rows = jumps.reshape(-1, jumps.shape[-1])
    sites = np.asarray(sites, dtype=np.int64)

    def explicit(alpha, key, sites):
        assert np.all((sites >= 1) & (sites <= rows.shape[1])), "walk read a site outside the window"
        return rows[key[0].astype(np.intp), sites - 1]

    keys = [(b, 0) for b in range(rows.shape[0])]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(partition1d, "hashed_jumps", explicit)
        roots = partition1d.roots_of([(0.25, keys, 0, rows.shape[1])])[0] + lo  # the stub ignores alpha
    return roots[:, sites - lo - 1].reshape(jumps.shape[:-1] + sites.shape)


# ---------------------------------------------------------------------------
# the renewal sequence by its first-jump recursion
# ---------------------------------------------------------------------------

def q_direct_oracle(p: np.ndarray, kmax: int) -> np.ndarray:
    """q_0..q_kmax by q_0 = 1, q_k = sum_{j=1..k} p_j q_{k-j}, in O(kmax^2); p[j-1] is p_j."""
    q = np.zeros(kmax + 1)
    q[0] = 1.0
    for k in range(1, kmax + 1):
        q[k] = np.dot(p[:k], q[k - 1 :: -1])
    return q
