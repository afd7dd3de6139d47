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
  pointer jumping.  So depth costs steps only for the exit lines.  One
  loop walks the exit lines of several forests at once (``roots_of``
  takes a list of walks), so a batch with two forest axes pays the fixed
  cost of a step once per step of its longest line, not once per axis.

Both engines sample a batch of replicates at once, one row per replicate
generator, and resolve each row's partition once.  A partial sum reads
either partition only through how many sites of each class lie below each
corner, and given the partition the spins are iid, so both come out as a
pattern table (``Patterns``): each row's classes grouped by their column
of corner counts.  An urn box's column is the parity of its count at each
corner, since its alternating signs sum to that parity, so the urn gives
each box a parity code (``urn_boxes``) and groups the boxes by code
(``urn_patterns``); the forest resolves the roots of only the sites up to
its last corner, counts each root's sites per corner and keeps each root
as a pattern of size 1 (``fields.sample_axes``).
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import groupby
from typing import NamedTuple

import numpy as np

from ._hashing import hash1, hash1_into, uniforms_from
from ._special import scaled_betainc
from .distributions import PmfKind, invert_hs_tail, make_karlin_pmf, sample_zipf_rows

__all__ = [
    "Patterns",
    "urn_head_size",
    "urn_boxes",
    "urn_patterns",
    "expected_occupancy",
    "hashed_jumps",
    "roots_of",
]


class Patterns(NamedTuple):
    """A batch's classes grouped by count column, one row per generator.

    Row b's patterns are ``starts[b]:starts[b + 1]``.  Pattern p stands for
    ``sizes[p]`` classes whose sites below corner m number ``counts[m, p]``
    each (int64, corners x patterns), and ``ids[p]`` names it in its row's
    keyed hash.  A forest class is a pattern of size 1 named by its root.
    """

    ids: np.ndarray
    counts: np.ndarray
    sizes: np.ndarray
    starts: np.ndarray


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


def _codes(bits) -> np.ndarray:
    """Each row of a 0/1 (items, corners) array as a code: bit m in word m // 64 (uint64, words x items)."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    words = np.zeros((bits.shape[0], 8 * -(-bits.shape[1] // 64)), dtype=np.uint8)
    words[:, : packed.shape[1]] = packed
    return words.view("<u8").T


@lru_cache(maxsize=64)
def _segment_runs(corners: tuple[int, ...]) -> tuple[tuple[slice, int, int], ...]:
    """(segments, length, size) per run of equal segment lengths: one multinomial call each."""
    runs, m = [], 0
    for length, run in groupby(np.diff(corners, prepend=0).tolist()):
        k = len(list(run))
        runs.append((slice(m, m + k), length, k))
        m += k
    return tuple(runs)


@lru_cache(maxsize=64)
def _segment_masks(n_segments: int) -> np.ndarray:
    """The code of one draw in each segment s: the bits m >= s (read-only, words x segments)."""
    masks = _codes(np.arange(n_segments) >= np.arange(n_segments)[:, None])
    masks.flags.writeable = False
    return masks


def _rank(codes) -> tuple[np.ndarray, np.ndarray]:
    """(rank of each code among the distinct ones, the distinct codes), codes compared from their last word."""
    order = codes[0].argsort() if len(codes) == 1 else np.lexsort(codes)
    ordered = codes[:, order]
    new = np.empty(order.size, dtype=bool)
    new[:1] = True
    np.not_equal(ordered[:, 1:], ordered[:, :-1]).any(axis=0, out=new[1:])
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = new.cumsum() - 1
    return rank, ordered[:, new]


def urn_boxes(alpha: float, n: int, corners, rngs) -> tuple[np.ndarray, np.ndarray]:
    """(rows, codes): every urn box that holds a draw below the last corner, one row per generator.

    ``corners`` are the nondecreasing draw counts floor(n*t_m), so the draws
    split into segments (corners[m-1], corners[m]]; draws past the last
    corner are never made.  Per generator, one multinomial draw per segment,
    in segment order, gives every head box's count in it (boxes 1..L,
    ``urn_head_size``) and the number of its draws that land above L; those
    tail draws are then drawn exactly from the law conditioned on
    k >= L + 1 and fill the segments in draw order.  A run of k segments
    of equal length is one call with ``size=k``, which loops the routine
    that k calls would run; together the runs draw what one call over the
    array of segment lengths draws, without its broadcast.

    Box k is in row ``rows[k]``, and its code, ``codes[:, k]`` (uint64, bit
    m in word m // 64), has bit m set when it holds an odd number of draws
    among the first corners[m]: a head box's from its running counts, a
    tail box's as the xor of its draws' masks, a draw in segment s setting
    the bits m >= s.  A row's head boxes come first, then its tail boxes.
    """
    corners = np.asarray(corners, dtype=np.int64)
    pvals = _head_pvals(alpha, n)
    head = pvals.size - 1
    drawn = np.empty((len(rngs), corners.size, head + 1), dtype=np.int64)
    runs = _segment_runs(tuple(corners.tolist()))
    for row, rng in zip(drawn, rngs):
        for segments, length, size in runs:  # an int n: an array n costs a broadcast per call
            row[segments] = rng.multinomial(length, pvals, size=size)
    per_segment = drawn[:, :, head]
    tail = sample_zipf_rows(alpha, rngs, per_segment.sum(axis=1), lo=head + 1)

    # head boxes: a box is a class of its row when it holds a draw below the last corner
    below = np.cumsum(drawn[:, :, :head], axis=1)
    head_rows, head_boxes = np.nonzero(below[:, -1])
    head_codes = _codes(below[head_rows, :, head_boxes] & 1)

    # tail boxes: one per distinct (row, label), the xor of its draws' masks
    rows = np.repeat(np.arange(len(rngs)), per_segment.sum(axis=1))
    segment = (np.arange(per_segment.size) % corners.size).repeat(per_segment.ravel())
    order = _row_label_order(rows, tail)
    rows, tail = rows[order], tail[order]
    new = np.ones(tail.size, dtype=bool)
    new[1:] = (tail[1:] != tail[:-1]) | (rows[1:] != rows[:-1])
    masks = _segment_masks(corners.size)[:, segment[order]]
    tail_codes = np.bitwise_xor.reduceat(masks, new.nonzero()[0], axis=1) if tail.size else masks

    return np.concatenate((head_rows, rows[new])), np.concatenate((head_codes, tail_codes), axis=1)


def urn_patterns(alpha: float, n: int, corners, rngs) -> Patterns:
    """The boxes of :func:`urn_boxes` grouped by code, one pattern per row and nonzero code.

    A box of code 0 is even at every corner and adds nothing to a sum, so
    it is left out.  A row's patterns come in increasing code order, and
    ``ids`` numbers them 0, 1, ... within the row; ``counts`` holds each
    code's bits (int64).
    """
    n_corners, n_rows = np.asarray(corners).size, len(rngs)
    rows, codes = urn_boxes(alpha, n, corners, rngs)
    # one pattern per distinct (row, code), by one sort of row << width | code; a code
    # that leaves the row too few of a word's bits goes by its rank among the batch's codes
    # (ranking every grid's codes costs karlin2d-cov about 6% of its replicates per second)
    shared = n_corners + n_rows.bit_length() <= 64
    if shared:
        code, width = codes[0], n_corners
    else:
        code, codes = _rank(codes)
        width = max(codes.shape[1] - 1, 1).bit_length()
    keys = rows.astype(np.uint64) << np.uint64(width) | code.astype(np.uint64)
    keys.sort()
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    at = first.nonzero()[0]
    code = keys[at] & np.uint64((1 << width) - 1)
    words = code[None] if shared else codes[:, code.astype(np.int64)]
    counted = words.any(axis=0)
    owner = (keys[at[counted]] >> np.uint64(width)).astype(np.int64)
    bits = np.unpackbits(words[:, counted].T.astype("<u8").view(np.uint8), axis=1, count=n_corners,
                         bitorder="little")
    starts = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=n_rows), out=starts[1:])
    return Patterns(np.arange(owner.size) - starts[owner], bits.T.astype(np.int64),
                    np.diff(at, append=keys.size)[counted], starts)


def expected_occupancy(pmf, n: int) -> float:
    """E[#odd-occupied boxes] after n draws from a KarlinZipf law: the urn's Var S_n.

    Box l is odd-occupied with probability (1 - (1 - 2 p_l)^n)/2.  Boxes
    1..L-1, L = 2^20, are summed one by one.  The rest is f(L)/2 - f'(L)/12
    plus the integral of f over [L, inf), where
    f(x) = (1 - (1 - 2 c x^-s)^n)/2, s = 1/alpha and c = 1/zeta(s).  Under
    u = 2 c x^-s, with w = 2 c L^-s, that integral is the incomplete beta
    tail ((2 c)^alpha n B(1-alpha, n) I_w(1-alpha, n) - L (1 - (1-w)^n))/2,
    which is 0 once w underflows (alpha below about 0.019).  Since
    w <= 2^-19, n B(1-alpha, n) I_w(1-alpha, n) is a short series of
    positive terms (``scaled_betainc``) that needs no beta function and
    does not cancel at large n.  The first Euler-Maclaurin term left out,
    f'''(L)/720, is of order f(L) s^3 / L^3, while the tail itself is of
    order L f(L), so every alpha < 1 and n have a target, at a cost that
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
    terms = np.empty_like(p)  # 2 f(l)
    terms[small] = -np.expm1(n * np.log1p(-2.0 * p[small]))
    terms[~small] = 1.0 - np.power(1.0 - 2.0 * p[~small], n)
    head = float(np.sum(terms, dtype=np.longdouble))
    w = 2.0 * c * big_l ** (-s)
    f_l = -math.expm1(n * math.log1p(-w))  # 2 f(L)
    integral = (2.0 * c) ** alpha * scaled_betainc(1.0 - alpha, n, w) - big_l * f_l
    minus_df_l = n * w * s / big_l * math.exp((n - 1) * math.log1p(-w))  # -2 f'(L)
    return 0.5 * (head + integral + f_l / 2.0 + minus_df_l / 12.0)


def hashed_jumps(alpha: float, key, sites) -> np.ndarray:
    """J_i of each site i under a jump key: the exact-tail jump inverted from hash1(key, i).

    Every integer site has a jump, negative ones too, so no window is drawn;
    per-site keys (two word arrays) broadcast against the sites.
    """
    return invert_hs_tail(alpha, uniforms_from(hash1(key, sites)))


# the exit walk's constants, as 0-d arrays (see _hashing)
_S11 = np.array(11, dtype=np.uint64)
_U53 = np.array(2.0**-53)
_ONE = np.array(1.0)
_TWO = np.array(2.0)
# the exit walk runs in float64, exact while every site above the floor is a float64
_MAX_DEPTH = 1 << 53
# rows of the exit walk's line state: the float64 fields, then the uint64 and int64 ones
_POS, _POWER, _FLOOR, _K0, _K1, _NODE = range(6)


def roots_of(walks) -> list[np.ndarray]:
    """Canonical component representative of each site 1..n of every walk, one row per jump key.

    ``walks`` holds one ``(alpha, keys, depth, n)`` per forest, ``keys``
    one jump key (two 64-bit words) per row.  The representative of site i
    is the lowest site on its ancestral line above the floor -depth, which
    no other site changes, so the roots of the sites 1..m are the first m
    of those of 1..n.  Jumps are at least 1, so a line can meet another
    site of 1..n only on its first step.  Each site's jump is hashed once:
    a site whose parent i - J_i is at least 1 points to it (the two lines
    share the rest of their path), and a site whose parent is at or below
    -depth is its own root.  Only the exit lines, whose parents fall in
    (-depth, 1), are walked on, every exit line of every row of every walk
    in one loop, until the next parent falls at or below -depth; the
    lowest site walked is then the line's root.  So the loop takes as many
    steps as the longest exit line, whatever the number of walks, and
    depth costs steps only for the exit lines.  The pointers are resolved
    by pointer jumping: O(log n) gathers over all the nodes and no
    hashing.  The loop steps in float64 (``_exit_walk``), so a depth past
    2^53 is refused.  The result is one int64 array of shape
    ``(len(keys), n)`` per walk.
    """
    lowest, up, lines, shapes = [], [], [], []
    offset = 0
    for alpha, keys, depth, n in walks:
        if depth > _MAX_DEPTH:
            raise ValueError(f"forest depth {depth} is past 2^53, where the exit walk would round")
        keys = np.asarray(keys, dtype=np.uint64).reshape(-1, 2)
        # node offset + r*n + i - 1 is row r's site i; `lowest` holds the
        # lowest site walked on its line, `up` the node its line joins (itself if none)
        sites = np.arange(1, n + 1)
        jumps = hashed_jumps(alpha, (keys[:, :1], keys[:, 1:]), sites)
        pos = sites - jumps
        node = np.arange(offset, offset + jumps.size).reshape(jumps.shape)
        lowest.append(np.tile(sites, len(keys)))
        up.append(np.where(pos >= 1, node - jumps, node).ravel())
        at = np.flatnonzero((pos > -depth) & (pos < 1))
        line = np.empty((6, at.size), dtype=np.uint64)
        reals, ints = line.view(np.float64), line.view(np.int64)
        reals[_POS] = pos.ravel()[at]
        reals[_POWER] = -1.0 / alpha
        reals[_FLOOR] = -depth
        line[[_K0, _K1]] = keys[at // n].T  # (at is empty when n = 0)
        ints[_NODE] = at + offset
        lines.append(line)
        shapes.append(jumps.shape)
        offset += jumps.size
    if not walks:
        return []
    lowest, up = np.concatenate(lowest), np.concatenate(up)
    _exit_walk(lowest, np.concatenate(lines, axis=1))
    jumped = up[up]
    while not np.array_equal(jumped, up):
        up, jumped = jumped, jumped[jumped]
    roots = lowest[up]
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    return [part.reshape(shape) for part, shape in zip(np.split(roots, ends[:-1]), shapes)]


def _exit_walk(lowest: np.ndarray, lines: np.ndarray) -> None:
    """Walk every exit line down to its floor, writing the lowest site it reaches to ``lowest``.

    Column l of ``lines`` is one line: its site, the exponent -1/alpha and
    the floor -depth of its walk as float64, its row's jump key and its
    node.  A step hashes each line's site (``hash1_into``), inverts the
    uniform to its jump J = max(ceil(x) - 1, 1), x = (1 - u)^(-1/alpha), as
    ``hashed_jumps`` does, and keeps the lines whose next site is above
    their floor.  Every value is a float64 integer while it stays above
    the floor, so those lines step exactly; the others may round or reach
    infinity (x passes the float range below alpha of about 0.052), but
    only further down.  So the walk needs neither clamp of
    ``invert_hs_tail``: both change only jumps that pass every floor.  Each
    step works in place on buffers of the first step's width and keeps the
    live lines with one ``compress``.
    """
    width = lines.shape[1]
    words, spare, x = np.empty(width, np.uint64), np.empty(width, np.uint64), np.empty(width)
    sites, inside = words.view(np.int64), np.empty(width, dtype=bool)
    with np.errstate(over="ignore"):
        while lines.shape[1]:
            m = lines.shape[1]
            reals, ints = lines.view(np.float64), lines.view(np.int64)
            pos, z, u = reals[_POS], words[:m], x[:m]
            lowest[ints[_NODE]] = pos
            np.copyto(sites[:m], pos, casting="unsafe")
            hash1_into(lines[_K0], lines[_K1], z, spare[:m])
            z >>= _S11
            np.multiply(z, _U53, out=u)  # the uniform of the top 53 bits
            np.subtract(_ONE, u, out=u)
            np.power(u, reals[_POWER], out=u)
            np.ceil(u, out=u)
            np.maximum(u, _TWO, out=u)
            np.subtract(u, _ONE, out=u)  # the jump
            np.subtract(pos, u, out=pos)
            np.greater(pos, reals[_FLOOR], out=inside[:m])
            lines = lines.compress(inside[:m], axis=1)
