"""Exact census of oriented Hamiltonian path and cycle types in tournaments.

A tournament orients every edge of a complete graph.  Orient a spanning path
or cycle and record its arcs as signed blocks: runs of forward arcs count
positive, backward runs negative.  This package normalizes and canonicalizes
such block tuples, counts the paths and cycles of each type exactly (bitmask
dynamic programming, cross-checked by a permutation oracle), counts copies of
small pattern digraphs, and sweeps the counting identities that relate all of
these over exhaustive or seeded-random tournament scopes.

Each module's ``__all__`` is its public interface; the package republishes
them all.  The command line (``tourcensus.cli``) is not imported here, and
``digraphs`` and ``verifier`` load on first use: ``tourcensus.verifier``, one
of their names, ``__all__`` or ``dir()``.  Unless bytecode is cached, every
process compiles each module it imports from source, and a ``census`` or
``gen`` call runs neither module.  ``census`` stays eager: importing the
submodule later would rebind ``tourcensus.census`` from the function to the
module.
"""

from importlib import import_module

# ``census`` the function replaces ``census`` the module from here on
from .type_algebra import *  # noqa: E402,F401,F403
from .tournaments import *  # noqa: E402,F401,F403
from .census import *  # noqa: E402,F401,F403
from .errors import *  # noqa: E402,F401,F403

__version__ = "0.1.0"

# every module whose ``__all__`` the package republishes, in ``__all__`` order
_PUBLISHED = ("type_algebra", "tournaments", "census", "digraphs", "errors", "verifier")
_LAZY = ("digraphs", "verifier")


def __getattr__(name: str):
    if name in _LAZY:
        return import_module(f".{name}", __name__)
    if name == "__all__":
        modules = [import_module(f".{m}", __name__) for m in _PUBLISHED]
        value = ["__version__", *dict.fromkeys(n for m in modules for n in m.__all__)]
    else:
        owner = next((m for m in map(__getattr__, _LAZY) if name in m.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *__getattr__("__all__")})
