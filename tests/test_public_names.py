"""The public names of the package and its modules, and where they live."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


# the modules whose ``__all__`` the package republishes, in import order
PUBLISHED = ("type_algebra", "tournaments", "census", "digraphs", "errors", "verifier")


def test_package_all_is_the_union_of_the_module_lists():
    union = {}
    for module in PUBLISHED:
        union.update(dict.fromkeys(sys.modules[f"tourcensus.{module}"].__all__))
    assert tourcensus.__all__ == ["__version__", *union]


@pytest.mark.parametrize("module", PUBLISHED)
def test_package_names_are_the_module_objects(module):
    mod = sys.modules[f"tourcensus.{module}"]
    for name in mod.__all__:
        assert getattr(tourcensus, name) is getattr(mod, name), f"{module}.{name}"


def test_rosenfeld_check_lives_in_the_verifier():
    verifier = sys.modules["tourcensus.verifier"]
    assert tourcensus.rosenfeld_check is verifier.rosenfeld_check
    assert "rosenfeld_check" in verifier.__all__


def test_package_import_leaves_the_cli_out():
    code = "import sys, tourcensus; print('tourcensus.cli' in sys.modules)"
    src = str(Path(tourcensus.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout == "False\n"
