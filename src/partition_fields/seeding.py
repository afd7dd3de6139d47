"""Deterministic, platform-independent replicate seeding.

Replicate ``r`` of a run with 128-bit base seed ``s`` draws from
``Generator(Philox(key=s).jumped(r))``, built directly as the Philox state
that jump reaches: key s and a 256-bit counter holding r mod 2**128 in its
upper 128 bits.  Philox is a counter-based generator, so these are disjoint
counter blocks: every replicate is computable independently of all others,
which is what makes work-stealing parallelism bit-reproducible.  Philox
takes the key from a seed sequence that hands it s's two words
(:class:`_Key`), never from ``Philox(key=s)``: that first seeds a
``SeedSequence`` from OS entropy and then throws it away, which costs about
10 µs per generator and fails where ``os.urandom`` does.

A replicate's generator gives its 128-bit spin key first (:func:`spin_key`),
then each axis's draws in direction order: a forest axis takes two more raw
words as its jump key (J_i is a keyed hash of site i, so no per-site draws);
an urn axis makes one ``multinomial`` call per corner segment (the head
boxes' counts and the segment's number of tail draws) and then the
rejection rounds of its tail labels.  That layout is identified in reports
by :data:`SCHEME_ID`; v2 replaced v1's per-site forest window uniforms with
the jump key, and v3 replaced the urn's n Zipf labels with the box counts
per corner segment.  v4 draws what v3 draws and changes only how spins are
attached: the classes of an axis are grouped by count column, and a sum
reads the hashed words of each pattern (1D) or pattern pair (2D), not one
spin per class or class pair, so fields with an urn axis moved and
forest-only fields kept their sums.  The multinomial draws come from
NumPy's binomial sampler, so the bytes also depend on it.
"""

from __future__ import annotations

import operator

import numpy as np
from numpy.random import Generator, Philox
from numpy.random.bit_generator import ISeedSequence

SCHEME_ID = "philox128-jumped-v4"

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


class _Key(ISeedSequence):
    """A seed sequence that gives Philox one base seed's two key words and draws no entropy."""

    __slots__ = ("words",)

    def __init__(self, words):
        self.words = np.asarray(words, dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        # Philox asks once, for its key: two uint64 words
        return self.words


def replicate_generators(base_seed: int | str, r0: int, r1: int) -> list[Generator]:
    """Independent generators of the replicates r0..r1 - 1 (see module docstring)."""
    r0, r1 = operator.index(r0), operator.index(r1)
    if r0 < 0:
        raise ValueError("replicate index must be nonnegative")
    seed = normalize_seed(base_seed)
    key = _Key([seed & _WORD_MASK, seed >> 64])
    # the counter of Philox(key=s).jumped(r), which wraps modulo 2**128
    counters = ([0, 0, r & _WORD_MASK, (r >> 64) & _WORD_MASK] for r in range(r0, r1))
    return [Generator(Philox(key, counter=np.array(c, dtype=np.uint64))) for c in counters]


def replicate_generator(base_seed: int | str, replicate: int) -> Generator:
    """Independent generator for one replicate (see module docstring)."""
    replicate = operator.index(replicate)
    return replicate_generators(base_seed, replicate, replicate + 1)[0]


def spin_key(gen: Generator) -> tuple[int, int]:
    """Draw a 128-bit keyed-hash key: a replicate's spin key, or a forest axis's jump key.

    The spin key must be drawn before any model sampling so that the stream
    layout is fixed; `fields.simulate` relies on this ordering.
    """
    k = gen.bit_generator.random_raw(2)  # the words integers(0, 2**64, size=2) returns
    return int(k[0]), int(k[1])
