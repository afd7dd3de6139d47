import os

import numpy as np
import pytest

# Keep BLAS thread pools fixed so timings and reductions are stable in CI.
os.environ.setdefault("OMP_NUM_THREADS", "1")

SEED = "5eed00000000000000000000000000aa"


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def workers() -> int:
    return min(2, os.cpu_count() or 1)


def running_parity_oracle(labels) -> list[int]:
    """1 where the number of earlier-or-equal draws with the same label is odd."""
    seen: dict[int, int] = {}
    out = []
    for lab in labels:
        seen[lab] = seen.get(lab, 0) + 1
        out.append(seen[lab] % 2)
    return out
