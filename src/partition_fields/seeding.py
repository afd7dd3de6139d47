"""Deterministic, platform-independent replicate seeding.

Replicate ``r`` of a run with 128-bit base seed ``s`` draws from
``Generator(Philox(key=s).jumped(r))``.  Philox is a counter-based generator,
so ``jumped(r)`` addresses disjoint counter blocks: every replicate is
computable independently of all others, which is what makes work-stealing
parallelism bit-reproducible.  The scheme is identified in reports by
:data:`SCHEME_ID`.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

SCHEME_ID = "philox128-jumped-v1"

_SEED_BITS = 128
_SEED_MASK = (1 << _SEED_BITS) - 1


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
    if replicate < 0:
        raise ValueError("replicate index must be nonnegative")
    bitgen = Philox(key=normalize_seed(base_seed))
    if replicate:
        bitgen = bitgen.jumped(replicate)
    return Generator(bitgen)


def spin_key(gen: Generator) -> tuple[int, int]:
    """Draw the 128-bit keyed-hash key for a replicate's spin assignment.

    Must be drawn before any model sampling so that the stream layout is
    fixed; `fields.simulate` relies on this ordering.
    """
    k = gen.integers(0, 1 << 64, size=2, dtype=np.uint64)
    return int(k[0]), int(k[1])
