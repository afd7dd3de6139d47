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

# 2**-53, for mapping the top 53 hash bits to a uniform in [0, 1)
_U53 = 1.0 / 9007199254740992.0
_LOW53 = np.uint64((1 << 53) - 1)


def _finalize(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _S30)) * _M1
    z = (z ^ (z >> _S27)) * _M2
    return z ^ (z >> _S31)


def _as_u64(a) -> np.ndarray:
    # int64 identifiers (forest roots may be negative) wrap two's-complement
    return np.atleast_1d(np.asarray(a)).astype(np.uint64, copy=False)


def _key_words(key) -> tuple[np.ndarray, np.ndarray]:
    # a key is two 64-bit words, or two arrays of them that broadcast against the identifiers
    return np.asarray(key[0], dtype=np.uint64), np.asarray(key[1], dtype=np.uint64)


def hash1(key, a) -> np.ndarray:
    """Keyed hash of one identifier array (per-identifier keys broadcast)."""
    k0, k1 = _key_words(key)
    h = _finalize((_as_u64(a) + _GOLDEN) ^ k0)
    return _finalize(h ^ k1)


def hash2(key, a, b) -> np.ndarray:
    """Keyed hash of an identifier pair; broadcasts `a` against `b` (and the key)."""
    k0, k1 = _key_words(key)
    h = _finalize((_as_u64(a) + _GOLDEN) ^ k0)
    return _finalize(h ^ (_as_u64(b) * _WORD2 + k1))


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
