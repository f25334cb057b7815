"""The public names of the package and its modules, and where they live."""

import copy
import importlib
import inspect
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import tourcensus
import tourcensus.type_algebra as type_algebra
from tourcensus import (
    CensusReport,
    ClassPartition,
    Digraph2Spec,
    PathClass,
    Scope,
    ScopeTooLargeError,
    VerifyReport,
)

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


def _fresh(code: str) -> str:
    """The stdout of ``code`` in a fresh interpreter that imports this package."""
    src = str(Path(tourcensus.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True).stdout


def test_package_import_leaves_the_cli_out():
    assert _fresh("import sys, tourcensus; print('tourcensus.cli' in sys.modules)") == "False\n"


# a call of each subcommand, and the modules of the two loaded on first use
# that it loads: each subcommand imports only what it runs
_SUBCOMMAND_LOADS = [
    (["census", "--order", "3", "--tournament", "3:111"], []),
    (["gen", "--all", "--order", "2"], []),
    (["hcount", "--tournament", "3:111", "--digraph", "P(1)"], ["digraphs"]),
    (["verify", "--property", "path-identity", "--exhaustive", "--order", "3"], ["verifier"]),
]


@pytest.mark.parametrize("argv, loaded", _SUBCOMMAND_LOADS, ids=[a[0] for a, _ in _SUBCOMMAND_LOADS])
def test_each_subcommand_loads_only_what_it_runs(argv, loaded):
    code = ("import sys\nfrom tourcensus.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "print(sorted({'tourcensus.digraphs', 'tourcensus.verifier'} & set(sys.modules)))")
    assert _fresh(code).splitlines()[-1] == repr([f"tourcensus.{m}" for m in loaded])


def test_package_resolves_its_lazy_modules_on_first_use():
    code = ("import sys, tourcensus\n"
            "print(tourcensus.verifier is sys.modules['tourcensus.verifier'],\n"
            "      tourcensus.Digraph2Spec is sys.modules['tourcensus.digraphs'].Digraph2Spec,\n"
            "      hasattr(tourcensus, 'no_such_name'))")
    assert _fresh(code) == "True True False\n"


def test_dir_lists_every_public_name():
    code = ("import tourcensus\nnames = set(dir(tourcensus))\n"
            "print(set(tourcensus.__all__) <= names, {'digraphs', 'verifier'} <= names)")
    assert _fresh(code) == "True True\n"


def test_star_import_binds_every_public_name():
    code = ("ns = {}\nexec('from tourcensus import *', ns)\nimport tourcensus\n"
            "bound = set(ns) - {'__builtins__'}\n"
            "print(bound == set(tourcensus.__all__), len(bound),\n"
            "      all(ns[name] is getattr(tourcensus, name) for name in bound))")
    assert _fresh(code) == f"True {len(tourcensus.__all__)} True\n"


def test_cli_import_leaves_dataclasses_and_inspect_out():
    # both are slow to import; the record types are named tuples and a slots class
    code = "import sys, tourcensus.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    assert _fresh(code) == "[]\n"


# each record type, the values of its fields in constructor order, and its defaults
_CYCLE = frozenset({(0, 1), (1, 2), (2, 0)})
RECORDS = [
    (CensusReport, {"order": 3, "path_counts": {(1, 1): 1}, "cycle_counts": {(3,): 1}}, {}),
    (PathClass, {"paths": frozenset({_CYCLE - {(2, 0)}}), "cycle_arcs": _CYCLE,
                 "cycle_type": (3,)}, {}),
    (ClassPartition, {"alpha": (2,), "classes": ()}, {}),
    (VerifyReport, {"property_id": "t-one", "scope": Scope("exhaustive", 3), "checked": 1,
                    "violations": [], "details": None}, {"details": None}),
    (Scope, {"mode": "random", "order": 4, "samples": 2, "seed": 7, "allow_large": False},
     {"samples": 0, "seed": 0, "allow_large": False}),
    (Digraph2Spec, {"components": (("P", (1, -1)), ("C", (1, -2)), ("V",))}, {}),
]
_IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, fields, defaults", RECORDS, ids=_IDS)
def test_record_constructors_keep_their_parameters(cls, fields, defaults):
    params = inspect.signature(cls).parameters
    assert list(params) == list(fields)
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params.values())
    assert {name: p.default for name, p in params.items() if p.default is not p.empty} == defaults
    assert cls(**fields) == cls(*fields.values())


@pytest.mark.parametrize("cls, fields, defaults", RECORDS, ids=_IDS)
def test_records_compare_by_their_fields(cls, fields, defaults):
    record = cls(**fields)
    assert record == cls(**fields) and not record != cls(**fields)
    first = next(iter(fields))
    other = {**fields, first: {"order": 4, "paths": frozenset(), "alpha": (1, 1),
                               "property_id": "eqsym", "mode": "exhaustive",
                               "components": (("V",),)}[first]}
    if cls is Scope:
        other.update(samples=0, seed=0)
    assert record != cls(**other)


@pytest.mark.parametrize("cls, fields, defaults", RECORDS, ids=_IDS)
def test_record_reprs_name_every_field(cls, fields, defaults):
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls, fields, defaults", RECORDS, ids=_IDS)
def test_records_refuse_assignment(cls, fields, defaults):
    record = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)


@pytest.mark.parametrize("cls, fields, defaults", RECORDS, ids=_IDS)
def test_records_survive_copy_and_pickle(cls, fields, defaults):
    record = cls(**fields)
    assert copy.copy(record) == copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize("cls", [PathClass, Scope, Digraph2Spec])
def test_hashable_records_stay_hashable(cls):
    fields = next(f for c, f, _ in RECORDS if c is cls)
    assert len({cls(**fields), cls(**fields)}) == 1


@pytest.mark.parametrize("cls, fields, defaults", RECORDS[:5], ids=_IDS[:5])
def test_named_tuple_records_unpack_and_replace(cls, fields, defaults):
    record = cls(**fields)
    assert tuple(record) == record == tuple(fields.values())
    assert record._asdict() == fields
    assert record._replace(**fields) == record


def test_scope_replace_runs_the_scope_checks():
    scope = Scope("random", 4, samples=2)
    assert scope._replace(seed=9) == Scope("random", 4, 2, 9)
    with pytest.raises(ScopeTooLargeError):
        scope._replace(order=13)


def test_digraph_specs_canonicalise_on_construction():
    spec = Digraph2Spec((("V",), ("C", (-2, 1)), ("P", (-2,))))
    assert spec == Digraph2Spec.parse("P(2);C(1,-2);V")
    assert spec.components == (("P", (2,)), ("C", (1, -2)), ("V",))
    assert (spec.order, spec.isolated) == (7, 1)
