"""Quality and determinism of the keyed identifier hash."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from partition_fields._hashing import (
    _GOLDEN,
    _WORD2,
    hash1,
    hash2,
    low_uniforms_from,
    signs_from,
    uniforms_from,
)

from conftest import finalize_oracle

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
