"""Workloads of the replicate-throughput benchmark.

Each workload is one verify call through the public API,
``run_suite(suite, spec=..., grid=..., replicates=R, seed=..., parallelism=p)``.
The spec, grid, R and p are fixed per workload; the benchmark's ``--seed``
only chooses the base seeds of the calls.  The definitions are plain data so
that the orchestrator can list them without importing the package.

Why these three:

* ``karlin2d-cov`` is urn x urn.  Its replicate is dominated by the dense
  n1*n2 product sweep and the prefix sums (the self time of
  ``fields.simulate``).  Forest layers do no work here, so a forest change
  (query-driven roots, scheme v2) should leave it unchanged, while a
  low-rank corner evaluation should move it most.
* ``hs2d-cov`` is forest x forest.  Half of each replicate is forest work
  (``build_forest`` over the depth-10^5 window and HsTail sampling), and
  its set-up is dominated by the renewal sequence at kmax 2^21.  It uses
  the dense sweep less than ``karlin2d-cov`` does.
* ``karlin1d-variance-p2`` has tiny 1D replicates at parallelism 2, so
  fixed per-replicate costs dominate: the Zipf rejection sampler, running
  parity, ``replicate_generator``, hashing and the process pool.  It is
  the only workload that drives the pool layer and the urn sampler at
  scale, and it bypasses the dense sweep and the forest.

Replicate counts.  ``karlin1d-variance-p2`` uses the 2*10^4 replicates of
the repo's own variance-identity check.  The two covariance workloads use
R = 100, the covariance suite's minimum, not the 2000 of the repo's
covariance runs: one call at R = 2000 takes about 50 s (hs2d) to 100 s
(karlin2d), so a run could not hold the several calls its medians need.
Each call also pays a fixed cost that does not grow with R (identity
target, truncation bounds, process pool); the benchmark times it apart on
3-replicate calls and takes it out of the throughput (see child.py), so R
sets how many calls fit in a run, not the metric.

``combined2d`` is left out on purpose: its replicate is the urn axis and
sweep of ``karlin2d-cov`` plus the forest axis of ``hs2d-cov``, so it would
add run time to every check and measure no new layer.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

GRID_4X4 = (0.25, 0.5, 0.75, 1.0)

# Base seed of the first call of every measured run; its report digest per
# scheme is recorded in digests.json.
REFERENCE_SEED = "acce97a4ce000000000000000000c0de"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    alphas: tuple[float, ...]
    n: tuple[int, ...]
    suite: str
    replicates: int
    parallelism: int
    grid: tuple[tuple[float, ...], tuple[float, ...]] | None = None
    forest_depth: int | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("karlin2d-cov", "karlin2d", (0.6, 0.6), (1024, 1024), "covariance",
                 replicates=100, parallelism=1, grid=(GRID_4X4, GRID_4X4)),
        Workload("hs2d-cov", "hs2d", (0.25, 0.25), (512, 512), "covariance",
                 replicates=100, parallelism=1, grid=(GRID_4X4, GRID_4X4),
                 forest_depth=10**5),
        Workload("karlin1d-variance-p2", "karlin1d", (0.6,), (1000,), "variance",
                 replicates=2 * 10**4, parallelism=2),
    )
}


def call_seed(workload: str, seed: str, index: int) -> str:
    """128-bit base seed (hex) of the index-th distinct call of a run."""
    if index == 0:
        return REFERENCE_SEED
    text = f"{workload}/{seed}/{index}".encode()
    return hashlib.sha256(text).hexdigest()[:32]
