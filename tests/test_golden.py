"""Golden vectors: exact outputs of every model kind at small n.

Each case pins one replicate's raw corner sums, Z, sigma and metadata, and
the identities, truncation summary and sha256 of a small ``run_replicates``
report on a grid that ends at 1 (so the variance identity and the truncation
allowance are covered).  The suite cases pin the sha256 of small
``run_suite`` reports, the bytes that ``verify`` writes.  The CLI cases pin
the sha256 of the CSV that ``simulate`` writes, and the ``z_norm``, ``sigma``
and ``truncation`` of its meta.json.  Outputs are bit-reproducible, so every
comparison is exact.  A change that moves these bits on purpose (a
``SCHEME_ID`` bump) regenerates every pinned value with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from partition_fields import (
    CornerGrid,
    MarginalLaw,
    ModelKind,
    ModelSpec,
    normalization,
    replicate_generator,
    run_replicates,
    run_suite,
    simulate,
)
from partition_fields.cli import RunConfig, cmd_simulate
from partition_fields.fields import _metadata

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

# name -> simulate config (model and grid); hs2d has two forest axes, so its
# meta.json carries truncation_error_bounds
CLI_CASES = {
    "simulate-hs2d": {
        "model": {"kind": "hs2d", "alphas": [0.1, 0.4], "n": [24, 32], "forest_depth": 2000},
        "grid": {"t1": [0.25, 0.5, 1.0], "t2": [0.5, 0.75, 1.0]},
    },
    "simulate-generalized-karlin1d": {
        "model": {
            "kind": "generalized-karlin1d", "alphas": [0.6], "n": [200],
            "marginal": {"kind": "two_point", "a": 2.0, "b": -1.0, "p": 1.0 / 3.0},
        },
        "grid": {"t1": [0.25, 0.5, 1.0]},
    },
}


def record(spec: ModelSpec) -> dict:
    """Everything pinned for one case, as it reads back from JSON."""
    grid = GRID_2D if spec.is_2d else GRID_1D
    raw = simulate(spec, grid, [replicate_generator(SEED, REPLICATE)])[0]
    z_norm, sigma = normalization(spec)
    report = run_replicates(spec, grid, REPORT_REPLICATES, SEED).to_dict()
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    out = {
        "raw": raw.ravel().tolist(),
        "z_norm": z_norm,
        "sigma": sigma,
        "metadata": _metadata(spec),
        "identities": report["identities"],
        "truncation": report["truncation"],
        "report_sha256": digest,
    }
    return json.loads(json.dumps(out))


def suite_digest(suite: str, spec: ModelSpec, grid: CornerGrid | None, replicates: int) -> str:
    report = run_suite(suite, spec=spec, grid=grid, replicates=replicates, seed=SEED).to_dict()
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def cli_record(config: dict) -> dict:
    """What ``simulate`` writes for one config: CSV digest and meta.json numbers."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = RunConfig.from_dict({"command": "simulate", "seed": SEED, "output": f"{tmp}/sim", **config})
        csv_path, meta_path = cmd_simulate(cfg)
        meta = json.loads(meta_path.read_text())
        return {
            "csv_sha256": hashlib.sha256(csv_path.read_bytes()).hexdigest(),
            "z_norm": meta["z_norm"],
            "sigma": meta["sigma"],
            "truncation": meta["truncation"],
        }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_kind(golden):
    assert {spec.kind for spec in CASES.values()} == set(ModelKind)
    assert set(golden["cases"]) == set(CASES)
    assert set(golden["cli"]) == set(CLI_CASES)
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


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_golden_cli_simulate(golden, name):
    got = cli_record(CLI_CASES[name])
    want = golden["cli"][name]
    assert set(got) == set(want)
    for key in want:
        assert got[key] == want[key], f"{name}: {key} moved"


def main() -> None:
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    payload = {
        "seed": SEED,
        "replicate": REPLICATE,
        "report_replicates": REPORT_REPLICATES,
        "cases": {name: record(spec) for name, spec in CASES.items()},
        "suites": {name: suite_digest(*case) for name, case in SUITE_CASES.items()},
        "cli": {name: cli_record(config) for name, config in CLI_CASES.items()},
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    main()
