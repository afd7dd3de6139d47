"""One-dimensional random-partition engines.

Two partitions of the index line are provided:

* the infinite urn scheme: i ~ j iff the i-th and j-th draws landed in the
  same box.  A partial sum reads the urn only through the parity of each
  box's count below each corner, and the box counts of disjoint segments
  of draws are independent multinomials, so the urn draws its boxes'
  counts per corner segment instead of n labels: a multinomial over the
  head boxes 1..L that n draws are expected to reach, and the few draws
  above L exactly from the conditioned law.  The cost grows like
  corners * n**alpha, not n log n.  The exact expected number of
  odd-occupied boxes, which is Var S_n, is an explicit head sum plus a
  closed-form tail;
* the ancestral forest: each site i is joined to i - J_i for heavy-tailed
  jumps J_i, and i ~ j iff their ancestral lines meet.  J_i is a keyed hash
  of i inverted to the jump law, so any site's jump is computed on demand
  from the replicate's jump key and nothing is drawn per site.  Lines are
  infinite, so each is cut where its next parent falls at or below the
  floor -depth, with a quantified truncation bound
  (``fields.Axis.truncation_bound``); the cut errs toward
  independence.  Roots are found only for the sites 1..n.  Jumps are at
  least 1, so a line can meet another of these sites only on its first
  step: each site's jump is hashed once, and a site whose parent is at
  least 1 points to it (the two lines share the rest of their path); then
  only the exit lines, whose parents fall in (-depth, 1), are walked down
  to the floor, with no membership test, and the pointers are resolved by
  pointer jumping.  So depth costs steps only for the exit lines.

Both engines sample a batch of replicates at once, one row per replicate
generator, and resolve each row's partition once.  A partial sum reads
either partition only through how many sites of each class lie below each
corner, so both are laid out the same way, by ``corner_counts``: each
row's classes in increasing order and an int64 (corners x classes) count
matrix.  The urn feeds it its tail draws (its head boxes are counted
densely) and keeps each count's parity, since an urn box's alternating
signs sum to the parity of its count; the forest feeds it the roots of its
sites 1..n (``fields.Axis.sample``).
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import groupby

import numpy as np
from scipy.special import betainc, gamma, poch

from ._hashing import hash1, uniforms_from
from .distributions import PmfKind, invert_hs_tail, make_karlin_pmf, sample_zipf_rows

__all__ = [
    "corner_counts",
    "urn_head_size",
    "urn_counts",
    "expected_occupancy",
    "hashed_jumps",
    "roots_of",
]


def corner_counts(rows, ids, segments, n_rows: int, n_segments: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(classes, counts, starts) of entries sorted by row, then by class id.

    Entry e is one site of row ``rows[e]`` and class ``ids[e]``, first
    counted at corner ``segments[e]`` (0 <= segments[e] < n_segments).  Row
    b's classes, in increasing order, are ``classes[starts[b]:starts[b + 1]]``,
    and ``counts[m, c]`` (int64) is the number of class c's sites counted at
    corner m, which holds the segments 0..m.
    """
    new = np.ones(ids.size, dtype=bool)
    new[1:] = (ids[1:] != ids[:-1]) | (rows[1:] != rows[:-1])
    k = int(np.count_nonzero(new))
    counts = np.bincount(segments * k + np.cumsum(new) - 1, minlength=n_segments * k)
    starts = np.concatenate(([0], np.cumsum(np.bincount(rows[new], minlength=n_rows))))
    return ids[new], np.cumsum(counts.reshape(n_segments, k), axis=0), starts


def urn_head_size(alpha: float, n: int) -> int:
    """L: the largest box l with n*p_l >= 1 under the Zipf law at alpha (0 if even n*p_1 < 1).

    n*p_l >= 1 exactly when l <= (n/zeta(1/alpha))**alpha; the floor of that
    power is settled on the inequality itself, so a rounding of the power at
    a boundary cannot move L.
    """
    pmf = make_karlin_pmf(alpha)
    head = math.floor((n * pmf.pmf_at(1)) ** alpha)  # n*p_1 = n/zeta(1/alpha)
    while head >= 1 and n * pmf.pmf_at(head) < 1.0:
        head -= 1
    while n * pmf.pmf_at(head + 1) >= 1.0:
        head += 1
    return head


@lru_cache(maxsize=64)
def _head_pvals(alpha: float, n: int) -> np.ndarray:
    """[p_1 .. p_L, mass of the boxes above L] (read-only): one segment's multinomial cells."""
    head = make_karlin_pmf(alpha).pmf_block(1, urn_head_size(alpha, n) + 1)
    pvals = np.append(head, 1.0 - head.sum())
    pvals.flags.writeable = False
    return pvals


def _row_label_order(rows, labels) -> np.ndarray:
    """The permutation ``np.lexsort((labels, rows))`` for nondecreasing rows, by one sort.

    The key is row * (distinct labels) + the label's rank among them, which
    stays small at any label; the sort is stable, so ties keep their order.
    """
    distinct, rank = np.unique(labels, return_inverse=True)
    return np.argsort(rows * distinct.size + rank, kind="stable")


def urn_counts(alpha: float, n: int, corners, rngs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(classes, parities, starts): the urn boxes below each corner, one row per generator.

    ``corners`` are the nondecreasing draw counts floor(n*t_m), so the draws
    split into segments (corners[m-1], corners[m]]; draws past the last
    corner are never made.  Per generator, one multinomial draw per segment,
    in segment order, gives every head box's count in it (boxes 1..L,
    ``urn_head_size``) and the number of its draws that land above L; those
    tail draws are then drawn exactly from the law conditioned on
    k >= L + 1 and fill the segments in draw order.  A run of k segments
    of equal length is one call with ``size=k``, which loops the routine
    that k calls would run, and a lone segment one call without ``size``;
    together they draw what one call over the array of segment lengths
    draws, without its broadcast.  Row b's boxes are
    ``classes[starts[b]:starts[b + 1]]``, its head boxes first and then its
    tail boxes, each in increasing order; ``parities[m, c]`` is 1 when box c
    holds an odd number of draws among the first corners[m] (int64, one
    column per class).
    """
    corners = np.asarray(corners, dtype=np.int64)
    pvals = _head_pvals(alpha, n)
    head = pvals.size - 1
    runs, m = [], 0  # (segments, length, size): one call per run of equal segment lengths
    for length, run in groupby(np.diff(corners, prepend=0).tolist()):
        k = len(list(run))
        runs.append((slice(m, m + k), length, None if k == 1 else k))
        m += k
    drawn = np.empty((len(rngs), corners.size, head + 1), dtype=np.int64)
    for row, rng in zip(drawn, rngs):
        for segments, length, size in runs:  # an int n: an array n costs a broadcast per call
            row[segments] = rng.multinomial(length, pvals, size=size)
    per_segment = drawn[:, :, head]
    tail = sample_zipf_rows(alpha, rngs, per_segment.sum(axis=1), lo=head + 1)

    # a head box is a class of its row when it holds a draw below the last corner
    below = np.cumsum(drawn[:, :, :head], axis=1)
    head_rows, head_boxes = np.nonzero(below[:, -1])
    head_parity = below[head_rows, :, head_boxes].T & 1

    # tail draws: one class per distinct (row, label), counted per segment
    rows = np.repeat(np.arange(len(rngs)), per_segment.sum(axis=1))
    segment = np.repeat(np.tile(np.arange(corners.size), len(rngs)), per_segment.ravel())
    order = _row_label_order(rows, tail)
    tail, tail_counts, tail_starts = corner_counts(rows[order], tail[order], segment[order], len(rngs), corners.size)

    owner = np.concatenate((head_rows, np.repeat(np.arange(len(rngs)), np.diff(tail_starts))))
    merged = np.argsort(owner, kind="stable")  # per row: head boxes, then tail boxes
    classes = np.concatenate((head_boxes + 1, tail))[merged]
    parity = np.concatenate((head_parity, tail_counts & 1), axis=1)[:, merged]
    starts = np.concatenate(([0], np.cumsum(np.bincount(owner, minlength=len(rngs)))))
    return classes, parity, starts


def expected_occupancy(pmf, n: int) -> float:
    """E[#odd-occupied boxes] after n draws from a KarlinZipf law: the urn's Var S_n.

    Box l is odd-occupied with probability (1 - (1 - 2 p_l)^n)/2.  Boxes
    1..L-1, L = 2^20, are summed one by one.  The rest is f(L)/2 - f'(L)/12
    plus the integral of f over [L, inf), where
    f(x) = (1 - (1 - 2 c x^-s)^n)/2, s = 1/alpha and c = 1/zeta(s).  Under
    u = 2 c x^-s, with w = 2 c L^-s, that integral is the incomplete beta
    tail ((2 c)^alpha n B(1-alpha, n) I_w(1-alpha, n) - L (1 - (1-w)^n))/2,
    which is 0 once w underflows (alpha below about 0.019).  SciPy's beta
    loses up to 3e-9 relative near n = 10^6, so n B(1-alpha, n) =
    Gamma(1-alpha) Gamma(n+1) / Gamma(n+1-alpha) is taken from poch at
    m = max(n, 2^14), where it holds to 1e-15, times the product of
    (1 - alpha/k) over n < k <= m.  The first Euler-Maclaurin term left
    out, f'''(L)/720, is of order f(L) s^3 / L^3, while the tail itself is
    of order L f(L), so every alpha < 1 and n have a target, at a cost that
    grows with neither.

    L = 2^16 is as accurate and takes about 4 ms rather than 40, but the
    2^20-element temporaries raise glibc's mmap and trim thresholds to
    8 MB, and below that the replicate path's heap is trimmed after every
    call and faulted back in: about 8,000 minor faults per 2,500 karlin1d
    replicates at n = 1000, and 9-12% more CPU per replicate on karlin1d at
    n = 1000 and karlin2d at 1024^2.
    """
    if getattr(pmf, "kind", None) is not PmfKind.KARLIN_ZIPF:
        raise ValueError("expected_occupancy needs a KarlinZipf pmf")
    if n < 1:
        raise ValueError("n must be >= 1")
    big_l = 1 << 20
    alpha, s, c = pmf.alpha, 1.0 / pmf.alpha, pmf.pmf_at(1)
    p = pmf.pmf_block(1, big_l)
    small = p < 0.25  # log1p(-2 p) is infinite or invalid once 2 p >= 1
    m = max(n, 1 << 14)
    k = np.arange(n + 1, m + 1, dtype=np.float64)
    n_beta = gamma(1.0 - alpha) * poch(m + 1.0 - alpha, alpha) * math.exp(np.sum(np.log1p(-alpha / k)))
    terms = np.empty_like(p)  # 2 f(l)
    terms[small] = -np.expm1(n * np.log1p(-2.0 * p[small]))
    terms[~small] = 1.0 - np.power(1.0 - 2.0 * p[~small], n)
    head = float(np.sum(terms, dtype=np.longdouble))
    w = 2.0 * c * big_l ** (-s)
    f_l = -math.expm1(n * math.log1p(-w))  # 2 f(L)
    integral = (2.0 * c) ** alpha * n_beta * betainc(1.0 - alpha, n, w) - big_l * f_l
    minus_df_l = n * w * s / big_l * math.exp((n - 1) * math.log1p(-w))  # -2 f'(L)
    return 0.5 * (head + integral + f_l / 2.0 + minus_df_l / 12.0)


def hashed_jumps(alpha: float, key, sites) -> np.ndarray:
    """J_i of each site i under a jump key: the exact-tail jump inverted from hash1(key, i).

    Every integer site has a jump, negative ones too, so no window is drawn;
    per-site keys (two word arrays) broadcast against the sites.
    """
    return invert_hs_tail(alpha, uniforms_from(hash1(key, sites)))


def roots_of(alpha: float, keys, depth: int, n: int) -> np.ndarray:
    """Canonical component representative of each site 1..n, one row per jump key.

    ``keys`` holds one jump key (two 64-bit words) per row.  The
    representative of site i is the lowest site on its ancestral line above
    the floor -depth.  Jumps are at least 1, so a line can meet another
    site of 1..n only on its first step.  Each site's jump is hashed once:
    a site whose parent i - J_i is at least 1 points to it (the two lines
    share the rest of their path), and a site whose parent is at or below
    -depth is its own root.  Only the exit lines, whose parents fall in
    (-depth, 1), are walked on, every exit line of every row at once, until
    the next parent falls at or below -depth; the lowest site walked is
    then the line's root.  The pointers are resolved by pointer jumping:
    O(log n) gathers over the (rows x n) nodes and no hashing.  So depth
    costs steps only for the exit lines.  The result is int64 of shape
    ``(len(keys), n)``.
    """
    keys = np.asarray(keys, dtype=np.uint64).reshape(-1, 2)
    # node r*n + i - 1 is row r's site i; `lowest` holds the lowest site
    # walked on its line, `up` the node its line joins (itself if none)
    lowest = np.tile(np.arange(1, n + 1, dtype=np.int64), len(keys))
    node = np.arange(lowest.size)
    k0, k1 = np.repeat(keys.T, n, axis=1)
    jumps = hashed_jumps(alpha, (k0, k1), lowest)
    pos = lowest - jumps
    up = np.where(pos >= 1, node - jumps, node)
    exits = (pos > -depth) & (pos < 1)
    node, pos, k0, k1 = node[exits], pos[exits], k0[exits], k1[exits]
    while node.size:
        lowest[node] = pos
        pos = pos - hashed_jumps(alpha, (k0, k1), pos)
        inside = pos > -depth
        node, pos, k0, k1 = node[inside], pos[inside], k0[inside], k1[inside]
    jumped = up[up]
    while not np.array_equal(jumped, up):
        up, jumped = jumped, jumped[jumped]
    return lowest[up].reshape(len(keys), n)
