"""Package surface: every exported name exists."""

import importlib
import pkgutil

import pytest

import partition_fields

MODULES = ["partition_fields"] + [
    f"partition_fields.{m.name}" for m in pkgutil.iter_modules(partition_fields.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names {missing}"


# The bindings the benchmark's span tracer (bench/tracing.py, TARGETS) wraps
# and finds today.  The tracer reports a binding it cannot find as absent and
# moves its time into the caller's, so a rename would hide a layer silently.
TRACED = [
    ("partition_fields.suites", "run_replicates"),
    ("partition_fields.stats", "simulate_raw_matrix"),
    ("partition_fields.stats", "empirical_cov"),
    ("partition_fields.stats", "ks_normal"),
    ("partition_fields.stats", "simulate"),
    ("partition_fields.stats", "expected_occupancy"),
    ("partition_fields.fields", "cached_renewal_sequence"),
    ("partition_fields.fields", "spin_key"),
    ("partition_fields.fields", "roots_of"),
    ("partition_fields.fields", "hash1"),
    ("partition_fields.fields", "normalization"),
]


@pytest.mark.parametrize("module, attr", TRACED, ids=[f"{m}.{a}" for m, a in TRACED])
def test_traced_binding_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
