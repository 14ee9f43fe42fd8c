"""Every public name a module of the package lists in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import hopfgalois

MODULES = ["hopfgalois"] + [
    f"hopfgalois.{info.name}" for info in pkgutil.iter_modules(hopfgalois.__path__)
]


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
