"""Exact census of oriented Hamiltonian path and cycle types in tournaments.

A tournament orients every edge of a complete graph.  Orient a spanning path
or cycle and record its arcs as signed blocks: runs of forward arcs count
positive, backward runs negative.  This package normalizes and canonicalizes
such block tuples, counts the paths and cycles of each type exactly (bitmask
dynamic programming, cross-checked by a permutation oracle), counts copies of
small pattern digraphs, and sweeps the counting identities that relate all of
these over exhaustive or seeded-random tournament scopes.

Each module's ``__all__`` is its public interface; the package republishes
them all.  The command line (``tourcensus.cli``) is not imported here.
"""

from . import census, digraphs, errors, tournaments, type_algebra, verifier

_PUBLISHED = (type_algebra, tournaments, census, digraphs, errors, verifier)

# ``census`` the function replaces ``census`` the module from here on
from .type_algebra import *  # noqa: E402,F401,F403
from .tournaments import *  # noqa: E402,F401,F403
from .census import *  # noqa: E402,F401,F403
from .digraphs import *  # noqa: E402,F401,F403
from .errors import *  # noqa: E402,F401,F403
from .verifier import *  # noqa: E402,F401,F403

__version__ = "0.1.0"

__all__ = ["__version__",
           *dict.fromkeys(name for module in _PUBLISHED for name in module.__all__)]
