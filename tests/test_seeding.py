"""Replicate stream derivation."""

import random

import numpy as np
import pytest
from numpy.random import Generator, Philox

from partition_fields import CornerGrid, ModelKind, ModelSpec
from partition_fields.seeding import (
    SCHEME_ID,
    normalize_seed,
    replicate_generator,
    replicate_generators,
    seed_to_hex,
    spin_key,
)
from partition_fields.stats import simulate_raw_matrix

from conftest import replicate_generator_oracle

JUMPS = [0, 1, 199, 2**64 - 1, 2**64, 2**100, 2**128]


def _same_state(state, expected) -> bool:
    """Equal Philox states: the key and counter words and the buffered draws."""
    if state.keys() != expected.keys():
        return False
    for name, value in expected.items():
        if isinstance(value, dict):
            if not all(np.array_equal(state[name][k], v) for k, v in value.items()):
                return False
        elif not np.array_equal(state[name], value):
            return False
    return True


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


@pytest.mark.parametrize("r", JUMPS)
def test_replicate_generator_is_jumped_philox(r):
    expected = Philox(key=normalize_seed("abc123")).jumped(r).state
    assert _same_state(replicate_generator("abc123", r).bit_generator.state, expected)


@pytest.mark.parametrize("r", JUMPS)
def test_replicate_generators_are_jumped_philox(r):
    # a batch from r on: each generator is Philox(key=s).jumped(r + i), the state the
    # constructor Philox(key=s, counter=...) builds, counters wrapping modulo 2**128
    batch = replicate_generators("abc123", r, r + 3)
    assert len(batch) == 3
    for i, gen in enumerate(batch):
        state = gen.bit_generator.state
        assert _same_state(state, Philox(key=normalize_seed("abc123")).jumped(r + i).state)
        assert _same_state(state, replicate_generator_oracle("abc123", r + i).bit_generator.state)
        assert _same_state(state, replicate_generator("abc123", r + i).bit_generator.state)


def test_replicate_generators_are_plain_generators():
    assert all(type(gen) is Generator for gen in replicate_generators("abc123", 0, 3))
    assert type(replicate_generator("abc123", 7)) is Generator


def test_replicate_generators_range():
    assert replicate_generators("abc123", 5, 5) == []
    with pytest.raises(ValueError):
        replicate_generators("abc123", -1, 2)
    with pytest.raises(ValueError):
        replicate_generator("abc123", -1)
    with pytest.raises(TypeError):
        replicate_generators("abc123", 0.0, 2)


def test_replicate_generators_draw_no_os_entropy(monkeypatch):
    # Python's random draws OS entropy through random._urandom, as NumPy's SeedSequence() does
    spec, grid = ModelSpec(ModelKind.KARLIN_1D, (0.6,), (50,)), CornerGrid((0.5, 1.0))
    want = simulate_raw_matrix(spec, grid, 6, "abc123")
    first = replicate_generator("abc123", 4).random()

    def no_entropy(n):
        raise RuntimeError("OS entropy drawn")

    monkeypatch.setattr(random, "_urandom", no_entropy)
    with pytest.raises(RuntimeError, match="OS entropy"):
        replicate_generator_oracle("abc123", 3)  # the guard trips Philox(key=s, ...)
    assert simulate_raw_matrix(spec, grid, 6, "abc123").tobytes() == want.tobytes()
    assert replicate_generator("abc123", 4).random() == first


def test_spin_key_is_the_first_two_words():
    gen, gen2 = replicate_generator("abc123", 3), replicate_generator("abc123", 3)
    words = gen2.integers(0, 1 << 64, size=2, dtype=np.uint64)
    assert spin_key(gen) == (int(words[0]), int(words[1]))
    assert gen.random() == gen2.random()  # both generators read the same stream prefix


def test_scheme_id_stable():
    assert SCHEME_ID == "philox128-jumped-v4"
