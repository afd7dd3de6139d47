"""Fractional Brownian motion/sheet covariance kernels and a reference sampler.

The sheet kernel factorizes over coordinates, so exact Gaussian samples on a
tensor grid only need one symmetric factorization per axis: if C1 = L1 L1'
and C2 = L2 L2', then L1 G L2' with iid standard normal G has covariance
C1 (x) C2.  That keeps desk-scale grids (up to 64 x 64) cheap and exact; no
circulant embedding is used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["HurstPair", "fbm_cov", "fbs_cov_matrix", "sample_fbs"]


@dataclass(frozen=True)
class HurstPair:
    h1: float
    h2: float

    def __post_init__(self):
        for h in (self.h1, self.h2):
            if not 0.0 < h < 1.0:
                raise ValueError(f"Hurst indices must lie in (0,1), got {h}")


def fbm_cov(h: float, s, t):
    """(t^2H + s^2H - |t-s|^2H) / 2 for s, t >= 0 (vectorized)."""
    s = np.asarray(s, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if np.any(s < 0) or np.any(t < 0):
        raise ValueError("fbm_cov is defined on the nonnegative half-line")
    out = 0.5 * (t ** (2 * h) + s ** (2 * h) - np.abs(t - s) ** (2 * h))
    return out if out.ndim else float(out)


def fbs_cov_matrix(hurst: HurstPair, t1, t2) -> np.ndarray:
    """Gram matrix over the tensor grid, ordered as raveled (t1, t2) pairs.

    Row/column order matches ``simulate(...).ravel()``: index i1*len(t2)+i2.
    """
    t1 = np.asarray(t1, dtype=np.float64)
    t2 = np.asarray(t2, dtype=np.float64)
    return np.kron(fbm_cov(hurst.h1, t1[:, None], t1[None, :]), fbm_cov(hurst.h2, t2[:, None], t2[None, :]))


class FactorizationError(RuntimeError):
    """Raised when the grid Gram matrix cannot be factorized."""


_MAX_JITTER = 1e-10


def _cholesky_with_jitter(gram: np.ndarray) -> np.ndarray:
    jitter = 0.0
    while True:
        try:
            return np.linalg.cholesky(gram + jitter * np.eye(gram.shape[0]))
        except np.linalg.LinAlgError:
            jitter = 1e-14 if jitter == 0.0 else 10.0 * jitter
            if jitter > _MAX_JITTER:
                raise FactorizationError(
                    f"Cholesky failed with diagonal jitter up to {_MAX_JITTER}"
                ) from None


def sample_fbs(hurst: HurstPair, t1, t2, rng: np.random.Generator, size: int = 1) -> np.ndarray:
    """Exact Gaussian field samples on the tensor grid t1 x t2.

    Returns an array of shape (size, len(t1), len(t2)).
    """
    t1 = np.asarray(t1, dtype=np.float64)
    t2 = np.asarray(t2, dtype=np.float64)
    m1, m2 = t1.size, t2.size
    if m1 * m2 > 4096:
        raise ValueError("grid too large for the dense reference sampler (m1*m2 <= 4096)")
    l1 = _cholesky_with_jitter(fbm_cov(hurst.h1, t1[:, None], t1[None, :]))
    l2 = _cholesky_with_jitter(fbm_cov(hurst.h2, t2[:, None], t2[None, :]))
    g = rng.standard_normal((size, m1, m2))
    return np.einsum("ab,rbc,dc->rad", l1, g, l2, optimize=True)
