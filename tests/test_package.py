"""Package surface: every exported name exists and the package itself uses it."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
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


# Runs every model kind (with its KS step), two suites and the CLI's simulate
# in an interpreter whose import system refuses SciPy, so that an import of
# SciPy inside a function fails here and not only where SciPy is missing.
_WITHOUT_SCIPY = """
import importlib.abc, json, sys, tempfile
from pathlib import Path


class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is refused")
        return None


sys.meta_path.insert(0, RefuseScipy())
import partition_fields as pf
from partition_fields.cli import main

models = {
    "karlin1d": ((0.6,), (200,)), "hs1d": ((0.25,), (128,)), "karlin2d": ((0.6, 0.6), (32, 48)),
    "hs2d": ((0.25, 0.25), (24, 32)), "combined2d": ((0.25, 0.6), (24, 40)),
}
specs = {}
for kind, (alphas, n) in models.items():
    depth = None if kind.startswith("karlin") else 2000
    spec = specs[kind] = pf.ModelSpec(pf.ModelKind(kind), alphas, n, forest_depth=depth)
    grid = pf.CornerGrid((0.5, 1.0), (0.5, 1.0) if spec.is_2d else None)
    report = pf.run_replicates(spec, grid, 100, 7)
    assert all(entry["p_value"] is not None for entry in report.ks), kind
pf.run_suite("variance", spec=specs["karlin1d"], replicates=64, seed=7)
pf.run_suite("renewal-asymptotics", spec=specs["hs1d"], seed=7)
with tempfile.TemporaryDirectory() as tmp:
    config = {"command": "simulate", "seed": 7, "output": f"{tmp}/sim",
              "model": {"kind": "hs2d", "alphas": [0.1, 0.4], "n": [24, 32], "forest_depth": 2000},
              "grid": {"t1": [0.5, 1.0], "t2": [0.5, 1.0]}}
    Path(tmp, "c.json").write_text(json.dumps(config))
    main(["simulate", "--config", f"{tmp}/c.json"], standalone_mode=False)
    assert Path(tmp, "sim.csv").exists()
print("ok")
"""


def test_package_runs_with_scipy_refused():
    out = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY], env={**os.environ, "PYTHONPATH": str(SRC.parent)},
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0 and out.stdout.splitlines()[-1:] == ["ok"], out.stderr[-2000:]
