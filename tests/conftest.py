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


# ---------------------------------------------------------------------------
# one-replicate samplers: the references for the batched ones in src/
# ---------------------------------------------------------------------------

_MAX_VALUE = 1 << 62


def sample_hs_oracle(alpha: float, rng, m: int) -> np.ndarray:
    """m exact-tail jumps, P(k >= n) = n**(-alpha), all inverted from rng.random(m)."""
    u = rng.random(m)
    with np.errstate(over="ignore"):
        x = (1.0 - u) ** (-1.0 / alpha)
    x = np.minimum(x, float(_MAX_VALUE))
    k = np.ceil(x).astype(np.int64) - 1
    np.maximum(k, 1, out=k)
    return k


def sample_zipf_oracle(s: float, rng, m: int) -> np.ndarray:
    """m draws of p_k proportional to k**(-s) from one generator, by Devroye's rejection."""
    x = s - 1.0
    inv_b1 = 1.0 / np.expm1(x * np.log(2.0))
    inv_b = 2.0**-x
    out = np.empty(m, dtype=np.int64)
    filled = 0
    while filled < m:
        todo = m - filled
        u = rng.random(todo)
        v = rng.random(todo)
        with np.errstate(over="ignore"):
            xf = u ** (-1.0 / x)
        ok = xf < float(_MAX_VALUE)
        kf = np.floor(xf, where=ok, out=np.ones_like(xf))
        tm1 = np.expm1(x * np.log1p(1.0 / kf))
        accept = ok & (v * kf * tm1 * inv_b1 <= (tm1 + 1.0) * inv_b)
        n_acc = int(np.count_nonzero(accept))
        out[filled : filled + n_acc] = kf[accept].astype(np.int64)
        filled += n_acc
    return out
