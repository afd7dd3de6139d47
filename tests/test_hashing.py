"""Quality and determinism of the keyed identifier hash."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from partition_fields._hashing import (
    _GOLDEN,
    _M1,
    _M2,
    _WORD2,
    hash1,
    hash1_into,
    left_words,
    low_uniforms_from,
    next_words,
    pair_heads,
    right_words,
    signs_from,
    uniforms_from,
)

from conftest import top_bits_set, finalize_oracle, hash2

KEY = (0x0123456789ABCDEF, 0xFEDCBA9876543210)


def test_deterministic_and_key_sensitive():
    a = np.arange(1, 1000, dtype=np.int64)
    h1 = hash1(KEY, a)
    assert np.array_equal(h1, hash1(KEY, a))
    h_other = hash1((KEY[0] ^ 1, KEY[1]), a)
    assert np.mean(h1 == h_other) < 0.01


def test_negative_identifiers_hash_cleanly():
    idx = np.array([-5, -1, 0, 1, 5], dtype=np.int64)
    h = hash1(KEY, idx)
    assert len(np.unique(h)) == len(idx)


def test_avalanche_single_bit_flips():
    # flipping any single input bit should flip ~half the output bits
    rng = np.random.default_rng(7)
    xs = rng.integers(0, 1 << 62, size=200, dtype=np.int64)
    base = hash1(KEY, xs)
    rates = []
    for bit in range(0, 62, 7):
        flipped = hash1(KEY, xs ^ np.int64(1 << bit))
        diff = np.bitwise_xor(base, flipped)
        rates.append(np.mean([bin(int(d)).count("1") for d in diff]) / 64.0)
    assert all(0.42 < r < 0.58 for r in rates), rates


def test_pair_hash_broadcasts_and_distinguishes_order():
    a = np.arange(1, 6, dtype=np.int64)
    b = np.arange(1, 9, dtype=np.int64)
    h = hash2(KEY, a[:, None], b[None, :])
    assert h.shape == (5, 8)
    assert hash2(KEY, np.int64(3), np.int64(7))[0] != hash2(KEY, np.int64(7), np.int64(3))[0]


def test_signs_and_uniforms_are_balanced():
    h = hash1(KEY, np.arange(1, 200_001, dtype=np.int64))
    s = signs_from(h)
    assert set(np.unique(s)) == {-1, 1}
    assert abs(s.astype(float).mean()) < 4 / np.sqrt(s.size)
    for u in (uniforms_from(h), low_uniforms_from(h)):
        assert np.all((0.0 <= u) & (u < 1.0))
        assert abs(u.mean() - 0.5) < 4 / np.sqrt(12 * u.size)


def test_sign_and_low_uniform_are_unrelated():
    h = hash1(KEY, np.arange(1, 100_001, dtype=np.int64))
    s = signs_from(h).astype(float)
    u = low_uniforms_from(h)
    corr = np.corrcoef(s, u)[0, 1]
    assert abs(corr) < 4 / np.sqrt(s.size)


@pytest.mark.parametrize("key", [KEY, (0, 2**64 - 1)])
def test_hash1_is_hash2_with_second_identifier_zero(key):
    # 101,000 ids, negative ones and both ends of int64 among them
    ids = np.concatenate((np.arange(-50_000, 50_998), [-(2**63), 2**63 - 1])).astype(np.int64)
    assert hash1(key, ids).tobytes() == hash2(key, ids, 0).tobytes()


def _hash1_oracle(key, a):
    h = finalize_oracle((np.atleast_1d(a).astype(np.uint64) + _GOLDEN) ^ np.uint64(key[0]))
    return finalize_oracle(h ^ np.uint64(key[1]))


def _hash2_oracle(key, a, b):
    h = finalize_oracle((np.atleast_1d(a).astype(np.uint64) + _GOLDEN) ^ np.uint64(key[0]))
    return finalize_oracle(h ^ (np.atleast_1d(b).astype(np.uint64) * _WORD2 + np.uint64(key[1])))


@given(st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
       hnp.arrays(np.int64, st.integers(1, 50), elements=st.integers(-(2**63), 2**63 - 1)),
       hnp.arrays(np.uint64, st.integers(1, 50)))
@settings(max_examples=200, deadline=None)
def test_in_place_finalizer_matches_the_allocating_one(key, signed, unsigned):
    # same words as the finalizer that allocates every step, and the identifiers are left as they were
    before = signed.copy(), unsigned.copy()
    for ids in (signed, unsigned):
        assert np.array_equal(hash1(key, ids), _hash1_oracle(key, ids))
    assert np.array_equal(hash2(key, signed[:, None], unsigned[None, :]),
                          _hash2_oracle(key, signed[:, None], unsigned[None, :]))
    assert np.array_equal(signed, before[0]) and np.array_equal(unsigned, before[1])


@given(hnp.arrays(np.uint64, 2, elements=st.integers(0, 2**64 - 1)),
       hnp.arrays(np.int64, st.integers(0, 50), elements=st.integers(-(2**63), 2**63 - 1)))
@settings(max_examples=200, deadline=None)
def test_hash1_into_writes_hash1_in_place(key, ids):
    # the forest walk's step: identifiers in, their hashes out, one key per identifier or one for all
    want = _hash1_oracle(tuple(int(k) for k in key), ids)
    for k0, k1 in ((key[0], key[1]), (np.full(ids.size, key[0]), np.full(ids.size, key[1]))):
        out, spare = ids.astype(np.uint64), np.empty(ids.size, dtype=np.uint64)
        assert hash1_into(k0, k1, out, spare) is out
        assert np.array_equal(out, want)


# ---------------------------------------------------------------------------
# the ±1 pair core read from per-identifier words
# ---------------------------------------------------------------------------

_MASK = (1 << 64) - 1


def _unfinalize(h: int) -> int:
    """The SplitMix64 finalizer's inverse: each xor-shift and odd multiplier undone in reverse."""
    def unshift(y, s):
        x = y
        for _ in range(64 // s + 1):
            x = y ^ (x >> s)
        return x

    z = unshift(h, 31)
    z = unshift(z * pow(int(_M2), -1, 1 << 64) & _MASK, 27)
    return unshift(z * pow(int(_M1), -1, 1 << 64) & _MASK, 30)


def _pair_core(key, a, b) -> np.ndarray:
    """The sum 1 - 2 H of every one-spin pair (a, b), H read as the 2D core reads it."""
    left, right = left_words(key[0], a)[:, None], right_words(key[1], b)[None, :]
    shape = (left.shape[0], right.shape[1])
    ones = np.ones((1, 1), dtype=np.uint64)
    return 1.0 - 2.0 * pair_heads(left, right, ones, np.empty(shape, np.uint64), np.empty(shape, np.uint64))


def _sign_oracle(key, a, b) -> np.ndarray:
    return signs_from(hash2(key, np.asarray(a)[:, None], np.asarray(b)[None, :])).astype(np.float64)


_IDS = st.one_of(st.integers(-(2**63), 2**63 - 1), st.integers(2**62 - 8, 2**62), st.integers(-(2**62), 0))


@given(st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
       st.lists(_IDS, max_size=30), st.lists(_IDS, max_size=30))
@settings(max_examples=200, deadline=None)
@example((2**63 + 5, 2**64 - 1), [-5, -1, 0], [2**62 - 1, 2**62])  # top key bits, negative roots, labels near 2^62
@example((1, 2), [], [3])  # empty class sets
@example((1, 2), [3], [])
def test_pair_signs_match_the_hashed_signs(key, a, b):
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    got = _pair_core(key, a, b)
    assert got.dtype == np.float64 and got.shape == (a.size, b.size)
    assert got.tobytes() == _sign_oracle(key, a, b).tobytes()  # no -0.0 either


@pytest.mark.parametrize("word", [0, 1, 2**63 - 1, 2**63, 2**64 - 1])
def test_pair_signs_at_the_sign_boundary(word):
    # an identifier a whose hash2 word is exactly `word`, by inverting the finalizer
    key, b = (0xF00DFACE12345678, 0x8000000000000001), 12345
    right = int(right_words(key[1], b)[0])
    a = ((_unfinalize(_unfinalize(word) ^ right) ^ key[0]) - int(_GOLDEN)) & _MASK
    a = np.array([a], dtype=np.uint64).view(np.int64)
    assert int(hash2(key, a, b)[0]) == word
    assert _pair_core(key, a, [b]).tolist() == [[-1.0 if word >> 63 else 1.0]]
    assert _pair_core(key, a, [b]).tobytes() == _sign_oracle(key, a, [b]).tobytes()


_WORDS = hnp.arrays(np.uint64, 20, elements=st.integers(0, 2**64 - 1))


@given(_WORDS, _WORDS, hnp.arrays(np.uint64, 20, elements=st.integers(0, 64)))
@settings(max_examples=200, deadline=None)
@example(np.zeros(20, np.uint64), np.full(20, 2**64 - 1, np.uint64), np.arange(20, dtype=np.uint64))
@example(np.zeros(20, np.uint64), np.zeros(20, np.uint64), np.full(20, 64, np.uint64))
def test_pair_heads_count_the_top_bits(left, right, bits):
    # bits 0 (nothing read), 1..31 (the finalizer's last step skipped) and 32..64
    for read in (bits, np.minimum(bits, 31), np.minimum(bits, 1)):
        want = top_bits_set(finalize_oracle(left ^ right), read.astype(np.int64))
        got = pair_heads(left, right, read, np.empty(20, np.uint64), np.empty(20, np.uint64))
        assert got.dtype == np.float64 and got.tolist() == want.tolist()


@given(st.integers(0, 2**64 - 1), st.integers(0, 2**48 - 1), st.integers(0, 2**16 - 1))
def test_next_words_take_the_word_index_above_bit_48(k1, b, j):
    want = right_words(k1, np.array([b + (j << 48)], dtype=np.uint64))
    assert next_words(right_words(k1, np.array([b], dtype=np.uint64)), j).tolist() == want.tolist()
