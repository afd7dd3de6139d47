"""Replicate stream derivation."""

import numpy as np
import pytest
from numpy.random import Philox

from partition_fields.seeding import (
    SCHEME_ID,
    normalize_seed,
    replicate_generator,
    seed_to_hex,
    spin_key,
)


def test_seed_normalization_round_trip():
    assert normalize_seed("00ff") == 255
    assert normalize_seed("0x00FF") == 255
    assert normalize_seed(255) == 255
    hex32 = seed_to_hex(255)
    assert len(hex32) == 32 and normalize_seed(hex32) == 255


@pytest.mark.parametrize("bad", ["", "g" * 4, "a" * 33, -1, 1 << 128])
def test_seed_rejects_invalid(bad):
    with pytest.raises((ValueError, TypeError)):
        normalize_seed(bad)


def test_replicates_reproducible_and_disjoint():
    draws = [replicate_generator("abc123", r).integers(0, 1 << 62, 6) for r in range(4)]
    again = [replicate_generator("abc123", r).integers(0, 1 << 62, 6) for r in range(4)]
    for d, a in zip(draws, again):
        assert np.array_equal(d, a)
    flat = np.concatenate(draws)
    assert len(np.unique(flat)) == flat.size  # streams do not collide


def test_spin_key_is_stream_prefix():
    gen = replicate_generator("abc123", 2)
    key = spin_key(gen)
    gen2 = replicate_generator("abc123", 2)
    assert key == spin_key(gen2)
    assert all(0 <= k < (1 << 64) for k in key)


@pytest.mark.parametrize("r", [0, 1, 199, 2**64 - 1, 2**64, 2**100, 2**128])
def test_replicate_generator_is_jumped_philox(r):
    expected = Philox(key=normalize_seed("abc123")).jumped(r).state
    state = replicate_generator("abc123", r).bit_generator.state
    assert state.keys() == expected.keys()
    for name, value in expected.items():
        if isinstance(value, dict):
            assert all(np.array_equal(state[name][k], v) for k, v in value.items()), name
        else:
            assert np.array_equal(state[name], value), name


def test_spin_key_is_the_first_two_words():
    gen, gen2 = replicate_generator("abc123", 3), replicate_generator("abc123", 3)
    words = gen2.integers(0, 1 << 64, size=2, dtype=np.uint64)
    assert spin_key(gen) == (int(words[0]), int(words[1]))
    assert gen.random() == gen2.random()  # both generators read the same stream prefix


def test_scheme_id_stable():
    assert SCHEME_ID == "philox128-jumped-v3"
