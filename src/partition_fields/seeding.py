"""Deterministic, platform-independent replicate seeding.

Replicate ``r`` of a run with 128-bit base seed ``s`` draws from
``Generator(Philox(key=s).jumped(r))``, built directly as the Philox state
that jump reaches: key s and a 256-bit counter holding r mod 2**128 in its
upper 128 bits.  Philox is a counter-based generator, so these are disjoint
counter blocks: every replicate is computable independently of all others,
which is what makes work-stealing parallelism bit-reproducible.  The scheme
is identified in reports by :data:`SCHEME_ID`.
"""

from __future__ import annotations

import operator

import numpy as np
from numpy.random import Generator, Philox

SCHEME_ID = "philox128-jumped-v1"

_SEED_BITS = 128
_SEED_MASK = (1 << _SEED_BITS) - 1
_WORD_MASK = (1 << 64) - 1


def normalize_seed(seed: int | str) -> int:
    """Coerce an int or hex string to a 128-bit seed integer; booleans are not seeds."""
    if isinstance(seed, str):
        text = seed.strip().lower().removeprefix("0x")
        if len(text) > 32 or not text:
            raise ValueError(f"seed must be at most 32 hex digits, got {seed!r}")
        value = int(text, 16)
    elif isinstance(seed, (int, np.integer)) and not isinstance(seed, bool):
        value = int(seed)
    else:
        raise TypeError(f"seed must be int or hex str, got {type(seed).__name__}")
    if not 0 <= value <= _SEED_MASK:
        raise ValueError("seed out of 128-bit range")
    return value


def seed_to_hex(seed: int) -> str:
    return f"{normalize_seed(seed):032x}"


def replicate_generator(base_seed: int | str, replicate: int) -> Generator:
    """Independent generator for one replicate (see module docstring)."""
    replicate = operator.index(replicate)
    if replicate < 0:
        raise ValueError("replicate index must be nonnegative")
    # the counter of Philox(key=s).jumped(r), which wraps modulo 2**128
    counter = np.array([0, 0, replicate & _WORD_MASK, (replicate >> 64) & _WORD_MASK], dtype=np.uint64)
    return Generator(Philox(key=normalize_seed(base_seed), counter=counter))


def spin_key(gen: Generator) -> tuple[int, int]:
    """Draw the 128-bit keyed-hash key for a replicate's spin assignment.

    Must be drawn before any model sampling so that the stream layout is
    fixed; `fields.simulate` relies on this ordering.
    """
    k = gen.bit_generator.random_raw(2)  # the words integers(0, 2**64, size=2) returns
    return int(k[0]), int(k[1])
