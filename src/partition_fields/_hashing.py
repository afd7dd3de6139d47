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

# the sign bit, and the bits of the float64 1.0
_TOP = np.uint64(1 << 63)
_ONE = np.uint64(0x3FF0000000000000)

# 2**-53, for mapping the top 53 hash bits to a uniform in [0, 1)
_U53 = 1.0 / 9007199254740992.0
_LOW53 = np.uint64((1 << 53) - 1)


def _mix(z: np.ndarray) -> np.ndarray:
    # the finalizer up to its last xor-shift, in place: every caller hands over a temporary of its own
    z ^= z >> _S30
    z *= _M1
    z ^= z >> _S27
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


def pair_signs(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``signs_from(finalize(left ^ right))`` as float64 ±1 for every word pair, shape (left.size, right.size).

    The finalizer's last step, z ^= z >> 31, keeps the top bit, so the sign
    is read before it: the mixed word keeps its top bit and takes the other
    bits of 1.0, which makes it the float64 -1.0 where that bit is set and
    +1.0 where it is not.
    """
    z = _mix(left[:, None] ^ right[None, :])
    z &= _TOP
    z |= _ONE
    return z.view(np.float64)


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
