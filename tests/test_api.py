"""Every name a module exports through __all__ exists."""

import importlib
import pkgutil

import pytest

import icofold

MODULES = ["icofold"] + [
    f"icofold.{info.name}" for info in pkgutil.iter_modules(icofold.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported is not None, f"{name} has no __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
    assert len(set(exported)) == len(exported)
