"""Package surface: every exported name exists and the package itself uses it."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


def _loaded_names(source: str) -> set[str]:
    """Every name a module reads, as a bare name or as an attribute."""
    loads = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loads.add(node.attr)
    return loads


SRC = Path(partition_fields.__file__).parent


def _package_loads() -> set[str]:
    return set().union(*(_loaded_names(path.read_text()) for path in SRC.glob("*.py")))


def test_every_exported_name_has_a_package_caller():
    # a name that only tests read is a test-only path: it belongs in tests/
    # (an oracle in conftest) or nowhere.  The package's __init__ re-exports
    # by import and by string, neither of which is a read, so it calls nothing.
    loads = _package_loads()
    uncalled = {
        f"{module.name}.{attr}"
        for module in pkgutil.iter_modules([str(SRC)])
        for attr in getattr(importlib.import_module(f"partition_fields.{module.name}"), "__all__", ())
        if attr not in loads
    }
    assert not uncalled, sorted(uncalled)


def test_every_module_level_definition_has_a_package_caller():
    # the same rule for every top-level function and class, exported or private
    loads = _package_loads()
    uncalled = {
        f"{path.stem}.{node.name}"
        for path in SRC.glob("*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name not in loads
    }
    assert not uncalled, sorted(uncalled)


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
