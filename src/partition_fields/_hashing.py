"""Keyed 64-bit mixing used to attach random values to unbounded identifiers.

Box labels and forest roots live in unbounded (or replicate-dependent) index
sets, so per-identifier spins are realized as a keyed hash of the identifier
instead of stored maps: O(1) memory, and any spin can be replayed from the
replicate key alone.  The mixer is the SplitMix64 finalizer, applied once per
injected word; its avalanche quality is checked in the test suite.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_WORD2 = np.uint64(0xD1B54A32D192ED03)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)

_BITS = np.uint64(64)
_ONE = np.uint64(0x3FF0000000000000)  # the bits of the float64 1.0
# a pattern pair's word j = j_hi * 2^16 + j_lo hashes the second identifier b + (j_lo << 48)
_WORD_STEP = np.uint64((int(_WORD2) << 48) & ((1 << 64) - 1))

# 2**-53, for mapping the top 53 hash bits to a uniform in [0, 1)
_U53 = 1.0 / 9007199254740992.0
_LOW53 = np.uint64((1 << 53) - 1)


def _mix(z: np.ndarray, spare: np.ndarray | None = None) -> np.ndarray:
    # the finalizer up to its last xor-shift, in place: every caller hands over a
    # temporary of its own, and `spare`, an array of z's shape, if it has one
    t = np.right_shift(z, _S30, out=spare)
    z ^= t
    z *= _M1
    np.right_shift(z, _S27, out=t)
    z ^= t
    z *= _M2
    return z


def _finalize(z: np.ndarray) -> np.ndarray:
    z = _mix(z)
    z ^= z >> _S31
    return z


def _as_u64(a) -> np.ndarray:
    # int64 identifiers (forest roots may be negative) wrap two's-complement
    return np.atleast_1d(np.asarray(a)).astype(np.uint64, copy=False)


def _key_words(key) -> tuple[np.ndarray, np.ndarray]:
    # a key is two 64-bit words, or two arrays of them that broadcast against the identifiers
    return np.asarray(key[0], dtype=np.uint64), np.asarray(key[1], dtype=np.uint64)


def hash1(key, a) -> np.ndarray:
    """Keyed hash of one identifier array (per-identifier keys broadcast).

    It is the pair hash ``finalize(left_words ^ right_words)`` with second
    identifier 0, whose right word is the key word k1 itself.
    """
    k0, k1 = _key_words(key)
    return _finalize(left_words(k0, a) ^ k1)


def left_words(k0, a) -> np.ndarray:
    """A pair hash's word for its first identifier under the key word k0 (per-identifier k0 broadcasts)."""
    return _finalize((_as_u64(a) + _GOLDEN) ^ np.asarray(k0, dtype=np.uint64))


def right_words(k1, b) -> np.ndarray:
    """A pair hash's word for its second identifier under the key word k1 (per-identifier k1 broadcasts)."""
    return _as_u64(b) * _WORD2 + np.asarray(k1, dtype=np.uint64)


def next_words(right: np.ndarray, j) -> np.ndarray:
    """``right_words(k1, b + (j << 48))`` from ``right = right_words(k1, b)``, for j < 2^16.

    A pattern pair's word j_hi * 2^16 + j_lo takes this right side at
    j = j_lo.  The right word is linear in the identifier, so it is the
    first word's right side plus j * (_WORD2 << 48), wrapping.
    """
    return right + np.asarray(j, dtype=np.uint64) * _WORD_STEP


def pair_heads(left: np.ndarray, right: np.ndarray, bits: np.ndarray, out: np.ndarray,
               spare: np.ndarray) -> np.ndarray:
    """Set bits among the top ``bits`` bits of ``finalize(left ^ right)``, elementwise, as float64.

    ``left``, ``right`` and ``bits`` (0..64, uint64; 0 reads nothing)
    broadcast to the shape of ``out`` and ``spare``, uint64 arrays that
    take the words and one temporary.  The finalizer's last step,
    z ^= z >> 31, changes only the low 33 bits, so it runs only when some
    word is read below its top 31 bits.  Where every word is read to at
    most one bit, that bit times the bits of the float64 1.0 is the count,
    in ``out``'s memory.
    """
    z = _mix(np.bitwise_xor(left, right, out=out), spare)
    most = bits.max(initial=0)
    if most > 31:
        z ^= np.right_shift(z, _S31, out=spare)
    z >>= _BITS - bits  # a shift by 64 gives 0
    if most <= 1:
        z *= _ONE
        return z.view(np.float64)
    return np.bitwise_count(z).astype(np.float64)


def signs_from(h: np.ndarray) -> np.ndarray:
    """Top hash bit mapped to ±1 (int8)."""
    return (1 - 2 * (h >> np.uint64(63)).astype(np.int8)).astype(np.int8)


def uniforms_from(h: np.ndarray) -> np.ndarray:
    """Top 53 hash bits mapped to a uniform in [0, 1)."""
    return (h >> np.uint64(11)).astype(np.float64) * _U53


def low_uniforms_from(h: np.ndarray) -> np.ndarray:
    """Low 53 hash bits mapped to a uniform in [0, 1).

    Disjoint from the sign bit, so (signs_from(h), low_uniforms_from(h)) can
    be used as an independent (sign, uniform) pair from a single hash word.
    """
    return (h & _LOW53).astype(np.float64) * _U53
