"""One-dimensional random-partition engines.

Two partitions of the index line are provided:

* the infinite urn scheme: i ~ j iff the i-th and j-th draws landed in the
  same box.  A partial sum reads the urn only through the parity of each
  box's count below each corner, and the box counts of disjoint segments
  of draws are independent multinomials, so the urn draws its boxes'
  counts per corner segment instead of n labels: a multinomial over the
  head boxes 1..L that n draws are expected to reach, and the few draws
  above L exactly from the conditioned law.  The cost grows like
  corners * n**alpha, not n log n.  Exact occupancy expectations (distinct
  boxes, odd-occupied boxes) are provided too;
* the ancestral forest: each site i is joined to i - J_i for heavy-tailed
  jumps J_i, and i ~ j iff their ancestral lines meet.  J_i is a keyed hash
  of i inverted to the jump law, so any site's jump is computed on demand
  from the replicate's jump key and nothing is drawn per site.  Lines are
  infinite, so each is cut where its next parent falls at or below the
  floor -depth, with a quantified truncation bound
  (``fields.Axis.truncation_bound``); the cut errs toward
  independence.  Roots are found only for the query sites, in two
  phases: each query site's jump is hashed once, and a site whose parent
  is another query site points to it (the two lines share the rest of
  their path); then only the exit lines, whose parents are not query
  sites, are walked down to the floor, and the pointers are resolved by
  pointer jumping.  So depth costs steps only for the exit lines.

Both engines sample a batch of replicates at once, one row per replicate
generator, and resolve each row's partition once.  A partial sum reads
either partition only through how many sites of each class lie below each
corner, so both are laid out the same way, by ``corner_counts``: each
row's classes in increasing order and an int64 (corners x classes) count
matrix.  The urn feeds it its tail draws (its head boxes are counted
densely) and keeps each count's parity, since an urn box's alternating
signs sum to the parity of its count; the forest feeds it the roots of its
query sites (``fields.Axis.sample``).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ._hashing import hash1, uniforms_from
from .distributions import invert_hs_tail, make_karlin_pmf, sample_zipf_rows

__all__ = [
    "corner_counts",
    "urn_head_size",
    "urn_counts",
    "expected_occupancy",
    "hashed_jumps",
    "roots_of",
]

_OCCUPANCY_TOL = 1e-10  # certificate on the discarded second-order tail
_OCCUPANCY_MAX_BOXES = 1 << 28


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


def urn_counts(alpha: float, n: int, corners, rngs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(classes, parities, starts): the urn boxes below each corner, one row per generator.

    ``corners`` are the nondecreasing draw counts floor(n*t_m), so the draws
    split into segments (corners[m-1], corners[m]]; draws past the last
    corner are never made.  Per generator, one multinomial call gives every
    head box's count per segment (boxes 1..L, ``urn_head_size``) and the
    number of the segment's draws that land above L; those tail draws are
    then drawn exactly from the law conditioned on k >= L + 1 and fill the
    segments in draw order.  Row b's boxes are ``classes[starts[b]:starts[b + 1]]``,
    its head boxes first and then its tail boxes, each in increasing order;
    ``parities[m, c]`` is 1 when box c holds an odd number of draws among the
    first corners[m] (int64, one column per class).
    """
    corners = np.asarray(corners, dtype=np.int64)
    pvals = _head_pvals(alpha, n)
    head = pvals.size - 1
    lengths = np.diff(corners, prepend=0)
    drawn = np.stack([rng.multinomial(lengths, pvals) for rng in rngs])  # (B, corners, L + 1)
    per_segment = drawn[:, :, head]
    tail = sample_zipf_rows(alpha, rngs, per_segment.sum(axis=1), lo=head + 1)

    # a head box is a class of its row when it holds a draw below the last corner
    below = np.cumsum(drawn[:, :, :head], axis=1)
    head_rows, head_boxes = np.nonzero(below[:, -1])
    head_parity = below[head_rows, :, head_boxes].T & 1

    # tail draws: one class per distinct (row, label), counted per segment
    rows = np.repeat(np.arange(len(rngs)), per_segment.sum(axis=1))
    segment = np.repeat(np.tile(np.arange(corners.size), len(rngs)), per_segment.ravel())
    order = np.lexsort((tail, rows))
    tail, tail_counts, tail_starts = corner_counts(rows[order], tail[order], segment[order], len(rngs), corners.size)

    owner = np.concatenate((head_rows, np.repeat(np.arange(len(rngs)), np.diff(tail_starts))))
    merged = np.argsort(owner, kind="stable")  # per row: head boxes, then tail boxes
    classes = np.concatenate((head_boxes + 1, tail))[merged]
    parity = np.concatenate((head_parity, tail_counts & 1), axis=1)[:, merged]
    starts = np.concatenate(([0], np.cumsum(np.bincount(owner, minlength=len(rngs)))))
    return classes, parity, starts


def expected_occupancy(pmf, n: int) -> tuple[float, float]:
    """(E[#occupied boxes], E[#odd-occupied boxes]) after n draws, exactly.

    Sums 1-(1-p_l)^n and (1-(1-2 p_l)^n)/2 over boxes in blocks.  Both
    summands are n*p_l + O((n p_l)^2), so once the squared-mass tail bound
    n^2 * sum_{l>=m} p_l^2 drops below 1e-10 the remaining boxes are
    replaced by the analytic first-order tail n * tail(m); the discarded
    second-order part is below 1e-10 by construction.  (Float rounding adds
    about eps per explicitly summed box on top of the certificate.)  Gives up
    (RuntimeError) past 2^28 boxes.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    block = 1 << 16
    phi = 0.0
    odd = 0.0
    lo = 1
    while True:
        cert = n * n * pmf.tail_sq_at(lo)
        if cert < _OCCUPANCY_TOL:
            t = float(pmf.tail_at(lo))
            return phi + n * t, odd + n * t
        if lo > _OCCUPANCY_MAX_BOXES:
            raise RuntimeError(
                f"expected_occupancy needs more than {_OCCUPANCY_MAX_BOXES} explicit boxes "
                f"for n={n}; the urn variance target is out of reach, use a smaller alpha or n"
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


def hashed_jumps(alpha: float, key, sites) -> np.ndarray:
    """J_i of each site i under a jump key: the exact-tail jump inverted from hash1(key, i).

    Every integer site has a jump, negative ones too, so no window is drawn;
    per-site keys (two word arrays) broadcast against the sites.
    """
    return invert_hs_tail(alpha, uniforms_from(hash1(key, sites)))


def roots_of(alpha: float, keys, depth: int, sites) -> np.ndarray:
    """Canonical component representative of each site, one row per jump key.

    ``keys`` holds one jump key (two 64-bit words) per row.  The
    representative of site i is the lowest site on its ancestral line above
    the floor -depth.  A row's m distinct query sites are resolved in two
    phases.  First, each one's jump is hashed once; where its parent
    i - J_i is itself a query site, the two lines share the rest of their
    path, so the site points to its parent.  Second, only the exit lines,
    whose parents are not query sites, are walked down, every exit line of
    every row at once, until the next parent falls at or below -depth (the
    lowest site walked is then the line's root) or is a query site (which
    the line then points to).  The pointers are resolved by pointer jumping:
    O(log m) gathers over the (rows x m) nodes and no hashing.  So depth
    costs steps only for the exit lines, and only the jumps read are
    hashed.  The result has shape ``(len(keys), *sites.shape)``.
    """
    sites = np.asarray(sites, dtype=np.int64)
    if np.any(sites <= -depth):
        raise IndexError(f"sites must lie above the floor {-depth}")
    keys = np.asarray(keys, dtype=np.uint64).reshape(-1, 2)
    query, inverse = np.unique(sites.ravel(), return_inverse=True)
    m = query.size
    # node r*m + j is row r's query site j; `lowest` holds the lowest site
    # walked on its line so far, `up` the node its line joins (itself if none)
    lowest = np.tile(query, len(keys))
    node, pos = np.arange(lowest.size), lowest
    up = node.copy()
    k0, k1 = np.repeat(keys.T, m, axis=1)
    joinable = True  # a walked parent can still be a query site
    while node.size:
        parents = pos - hashed_jumps(alpha, (k0, k1), pos)
        inside = parents > -depth
        if joinable:
            j = np.minimum(np.searchsorted(query, parents), m - 1)
            join = inside & (query[j] == parents)
            joined = node[join]
            up[joined] = joined - joined % m + j[join]
            inside &= ~join
        node, pos, k0, k1 = node[inside], parents[inside], k0[inside], k1[inside]
        lowest[node] = pos
        joinable = joinable and bool(np.any(pos > query[0]))
    jumped = up[up]
    while not np.array_equal(jumped, up):
        up, jumped = jumped, jumped[jumped]
    return lowest[up].reshape(len(keys), m)[:, inverse].reshape(len(keys), *sites.shape)
