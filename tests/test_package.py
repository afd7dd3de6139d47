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
