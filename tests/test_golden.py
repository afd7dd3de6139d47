"""Golden vectors: exact outputs of every model kind at small n.

Each case pins one replicate's raw corner sums, Z, sigma and metadata, and
the identities, truncation summary and sha256 of a small ``run_replicates``
report on a grid that ends at 1 (so the variance identity and the truncation
allowance are covered).  The suite cases pin the sha256 of small
``run_suite`` reports, the bytes that ``verify`` writes.  Outputs are
bit-reproducible, so every comparison is exact.  A change that moves these bits on purpose (a ``SCHEME_ID`` bump)
regenerates the file with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from partition_fields import (
    CornerGrid,
    MarginalLaw,
    ModelKind,
    ModelSpec,
    replicate_generator,
    run_replicates,
    run_suite,
    simulate,
)

GOLDEN = Path(__file__).parent / "data" / "golden_v1.json"
SEED = "601de000000000000000000000000001"
REPLICATE = 3
REPORT_REPLICATES = 8
TWO_POINT = MarginalLaw.two_point(2.0, -1.0, 1.0 / 3.0)
GRID_1D = CornerGrid((0.25, 0.5, 1.0))
GRID_2D = CornerGrid((0.25, 0.5, 1.0), (0.5, 0.75, 1.0))

CASES = {
    "karlin1d": ModelSpec(ModelKind.KARLIN_1D, (0.6,), (200,)),
    "generalized-karlin1d": ModelSpec(
        ModelKind.GENERALIZED_KARLIN_1D, (0.6,), (200,), marginal=TWO_POINT
    ),
    "hs1d": ModelSpec(ModelKind.HS_1D, (0.25,), (128,), forest_depth=2000),
    "generalized-hs1d": ModelSpec(
        ModelKind.GENERALIZED_HS_1D, (0.25,), (128,), forest_depth=2000, marginal=TWO_POINT
    ),
    "karlin2d": ModelSpec(ModelKind.KARLIN_2D, (0.6, 0.6), (32, 48)),
    "hs2d": ModelSpec(ModelKind.HS_2D, (0.25, 0.25), (24, 32), forest_depth=2000),
    "hs2d-0.1-0.4": ModelSpec(ModelKind.HS_2D, (0.1, 0.4), (24, 32), forest_depth=2000),
    "combined2d": ModelSpec(ModelKind.COMBINED_2D, (0.25, 0.6), (24, 40), forest_depth=2000),
}

# name -> (suite, spec, grid, replicates)
SUITE_CASES = {
    "variance-karlin1d": ("variance", CASES["karlin1d"], None, 64),
    "variance-hs1d": ("variance", CASES["hs1d"], None, 64),
    "variance-karlin2d": ("variance", CASES["karlin2d"], None, 64),
    "normality-karlin1d": ("normality", CASES["karlin1d"], None, 128),
    "covariance-karlin2d": ("covariance", CASES["karlin2d"], CornerGrid((0.5, 1.0), (0.5, 1.0)), 100),
}


def record(spec: ModelSpec) -> dict:
    """Everything pinned for one case, as it reads back from JSON."""
    grid = GRID_2D if spec.is_2d else GRID_1D
    sample = simulate(spec, grid, replicate_generator(SEED, REPLICATE))
    report = run_replicates(spec, grid, REPORT_REPLICATES, SEED).to_dict()
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    out = {
        "raw": sample.raw.ravel().tolist(),
        "z_norm": sample.z_norm,
        "sigma": sample.sigma,
        "metadata": sample.metadata,
        "identities": report["identities"],
        "truncation": report["truncation"],
        "report_sha256": digest,
    }
    return json.loads(json.dumps(out))


def suite_digest(suite: str, spec: ModelSpec, grid: CornerGrid | None, replicates: int) -> str:
    report = run_suite(suite, spec=spec, grid=grid, replicates=replicates, seed=SEED).to_dict()
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_kind(golden):
    assert {spec.kind for spec in CASES.values()} == set(ModelKind)
    assert set(golden["cases"]) == set(CASES)
    assert golden["seed"] == SEED and golden["replicate"] == REPLICATE


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_vectors(golden, name):
    got = record(CASES[name])
    want = golden["cases"][name]
    for key in want:
        assert got[key] == want[key], f"{name}: {key} moved"


@pytest.mark.parametrize("name", sorted(SUITE_CASES))
def test_golden_suite_reports(golden, name):
    assert suite_digest(*SUITE_CASES[name]) == golden["suites"][name], f"{name}: report moved"


def main() -> None:
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    payload = {
        "seed": SEED,
        "replicate": REPLICATE,
        "report_replicates": REPORT_REPLICATES,
        "cases": {name: record(spec) for name, spec in CASES.items()},
        "suites": {name: suite_digest(*case) for name, case in SUITE_CASES.items()},
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    main()
