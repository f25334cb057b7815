"""The public names of the package and its modules, and where they live."""

import importlib
import pkgutil
import sys

import pytest

import tourcensus
import tourcensus.type_algebra as type_algebra

MODULES = sorted(m.name for m in pkgutil.iter_modules(tourcensus.__path__)
                 if m.name != "__main__")


def test_package_names_resolve():
    for name in tourcensus.__all__:
        assert hasattr(tourcensus, name), name


@pytest.mark.parametrize("module", MODULES)
def test_module_names_resolve(module):
    mod = importlib.import_module(f"tourcensus.{module}")
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), f"{module}.{name}"


@pytest.mark.parametrize("name", [
    "word_int", "expand_signs", "path_type_classes", "cycle_type_classes",
])
def test_sign_word_names_are_one_object(name):
    # ``import tourcensus.census`` would bind the function ``census``, which
    # the package re-exports over the submodule attribute
    census = sys.modules["tourcensus.census"]
    assert getattr(tourcensus, name) is getattr(type_algebra, name)
    assert getattr(census, name) is getattr(type_algebra, name)
    assert name in type_algebra.__all__ and name in census.__all__
