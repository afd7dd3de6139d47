"""Suite plumbing at cheap sizes (full-scale runs live in test_acceptance)."""

import json

import pytest

from partition_fields import CornerGrid, ModelKind, ModelSpec
from partition_fields.suites import run_suite, suite_covariance, suite_normality

SEED = "ab0000000000000000000000000000cd"


def test_occupancy_suite_small():
    rep = run_suite("occupancy", spec=ModelSpec(ModelKind.KARLIN_1D, (0.6,), (50_000,)), seed=SEED)
    assert rep.passed
    assert {c.name for c in rep.checks} == {"distinct-boxes-ratio", "odd-fraction"}


def test_occupancy_suite_reads_the_urn_axis():
    spec = ModelSpec(ModelKind.COMBINED_2D, (0.25, 0.6), (24, 20_000), forest_depth=100)
    details = [c.details for c in run_suite("occupancy", spec=spec, seed=SEED).checks]
    assert [(d["alpha"], d["n"]) for d in details] == [(0.6, 20_000)] * 2


def test_renewal_suite_reads_the_forest_axis():
    spec = ModelSpec(ModelKind.COMBINED_2D, (0.25, 0.6), (64, 16), forest_depth=100)
    rep = run_suite("renewal-asymptotics", spec=spec, seed=SEED)
    growth = next(c for c in rep.checks if c.name == "weight-growth-realized")
    assert (growth.details["alpha"], growth.details["n"]) == (0.25, 64)


def test_renewal_suite_details_explain_the_known_failures():
    rep = run_suite("renewal-asymptotics", spec=ModelSpec(ModelKind.HS_1D, (0.25,), (128,)), seed=SEED)
    checks = {c.name: c for c in rep.checks}
    for a in (0.3, 0.5, 0.7):
        odd = checks[f"odd-weight-partial-sum-alpha-{a}"]
        lo, hi = odd.details["shortfall_bracket"]
        assert not odd.passed and lo <= odd.target - odd.value <= hi and hi == odd.details["tail"]
    growth = checks["weight-growth-realized"]
    assert growth.details["ratio_with_q_sq_tail"] > growth.value


@pytest.mark.parametrize("name, spec", [
    ("occupancy", ModelSpec(ModelKind.HS_1D, (0.25,), (1000,))),
    ("occupancy", ModelSpec(ModelKind.HS_2D, (0.25, 0.25), (16, 16))),
    ("renewal-asymptotics", ModelSpec(ModelKind.KARLIN_1D, (0.6,), (1000,))),
    ("renewal-asymptotics", ModelSpec(ModelKind.KARLIN_2D, (0.6, 0.6), (16, 16))),
])
def test_suite_without_an_axis_of_its_kind_rejected(name, spec):
    with pytest.raises(ValueError, match=f"{name} suite needs a model with an? (urn|forest) axis"):
        run_suite(name, spec=spec, seed=SEED)


def test_variance_suite_small():
    spec = ModelSpec(ModelKind.KARLIN_1D, (0.6,), (64,))
    rep = run_suite("variance", spec=spec, replicates=400, seed=SEED)
    assert rep.passed
    (check,) = rep.checks
    assert check.details["kind"] == "exact"


def test_variance_suite_karlin2d_product_identity():
    spec = ModelSpec(ModelKind.KARLIN_2D, (0.6, 0.7), (32, 48))
    rep = run_suite("variance", spec=spec, replicates=500, seed=SEED)
    assert rep.passed, rep.to_dict()
    (check,) = rep.checks
    assert check.name == "karlin2d_var" and check.details["kind"] == "exact"


def test_covariance_suite_small_passes():
    spec = ModelSpec(ModelKind.KARLIN_2D, (0.6, 0.6), (128, 128))
    grid = CornerGrid((0.5, 1.0), (0.5, 1.0))
    rep = suite_covariance(spec, grid, 150, SEED)
    assert rep.passed, rep.to_dict()


def test_covariance_suite_guards():
    spec = ModelSpec(ModelKind.KARLIN_2D, (0.6, 0.6), (16, 16))
    grid = CornerGrid((0.5, 1.0), (0.5, 1.0))
    with pytest.raises(ValueError):
        suite_covariance(spec, grid, 2, SEED)
    with pytest.raises(ValueError):
        suite_covariance(ModelSpec(ModelKind.KARLIN_1D, (0.6,), (16,)), grid, 200, SEED)


def test_normality_suite_small():
    spec = ModelSpec(ModelKind.KARLIN_2D, (0.6, 0.6), (64, 64))
    rep = suite_normality(spec, 400, SEED)
    assert rep.passed


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nope", seed=SEED)


def test_suite_report_serializes():
    rep = run_suite("occupancy", spec=ModelSpec(ModelKind.KARLIN_1D, (0.6,), (20_000,)), seed=SEED)
    payload = json.dumps(rep.to_dict(), sort_keys=True)
    assert "distinct-boxes-ratio" in payload
