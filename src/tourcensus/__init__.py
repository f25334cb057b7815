"""Exact census of oriented Hamiltonian path and cycle types in tournaments.

A tournament orients every edge of a complete graph.  Orient a spanning path
or cycle and record its arcs as signed blocks: runs of forward arcs count
positive, backward runs negative.  This package normalizes and canonicalizes
such block tuples, counts the paths and cycles of each type exactly (bitmask
dynamic programming, cross-checked by a permutation oracle), counts copies of
small pattern digraphs, and sweeps the counting identities that relate all of
these over exhaustive or seeded-random tournament scopes.
"""

from .census import (
    CENSUS_MAX_ORDER,
    ORACLE_MAX_ORDER,
    CensusReport,
    ClassPartition,
    PathClass,
    census,
    classify_cycle,
    classify_enumeration,
    clones,
    count_cycles,
    count_enumerations,
    count_paths,
    cycle_type_classes,
    enumeration_word_counts,
    expand_signs,
    oracle_census,
    oracle_cycle_sets,
    path_classes,
    path_type_classes,
    word_int,
)
from .digraphs import (
    CopyCounter,
    Digraph2Spec,
    all_digraph_specs,
    check_complement_invariance,
    count_copies,
    random_digraph_spec,
    star_counterexample,
)
from .errors import (
    BadSubsetError,
    DivisibilityViolationError,
    EmptyTypeError,
    IllFormedError,
    ParityViolationError,
    ParseError,
    ScopeTooLargeError,
    TooShortError,
    TourCensusError,
    TypeTooLongError,
    UnknownPropertyError,
)
from .tournaments import (
    MAX_ORDER,
    Tournament,
    all_tournaments,
    load_tournaments,
    pair_index,
    random_tournament,
    random_tournaments,
    seed_stream,
    transitive,
)
from .type_algebra import (
    GeneratedCycles,
    PeriodInfo,
    SignedTuple,
    arc_sum,
    check_standard_cycle,
    check_standard_path,
    cycle_canonical,
    cycle_orbit,
    cycle_type_symmetric,
    delta,
    format_type,
    generated_cycle_types,
    is_standard_cycle,
    is_standard_path,
    is_symmetric,
    neg_reverse,
    negate,
    normalize_cycle,
    normalize_path,
    parse_type,
    path_canonical,
    period_info,
    standard_tuples,
    star_one,
    symmetric_tuples,
)
from .verifier import (
    EXHAUSTIVE_HARD_MAX,
    EXHAUSTIVE_MAX_ORDER,
    PROPERTY_IDS,
    RANDOM_MAX_ORDER,
    RANDOM_MAX_SAMPLES,
    Scope,
    VerifyReport,
    list_types,
    verify,
)

__version__ = "0.1.0"


def rosenfeld_check(scope: Scope) -> VerifyReport:
    """The alternating-path special case of the path identity: the
    ``rosenfeld`` sweep over ``scope``."""
    return verify("rosenfeld", scope)


__all__ = [
    "__version__",
    # type algebra
    "SignedTuple", "arc_sum", "negate", "neg_reverse", "is_symmetric",
    "is_standard_path", "is_standard_cycle", "check_standard_path",
    "check_standard_cycle", "normalize_path", "normalize_cycle",
    "path_canonical", "cycle_orbit", "cycle_canonical", "cycle_type_symmetric",
    "PeriodInfo", "period_info", "delta", "star_one", "GeneratedCycles",
    "generated_cycle_types", "standard_tuples", "symmetric_tuples",
    "format_type", "parse_type",
    # tournaments
    "MAX_ORDER", "Tournament", "pair_index", "load_tournaments", "transitive",
    "all_tournaments", "random_tournament", "random_tournaments", "seed_stream",
    # counting
    "ORACLE_MAX_ORDER", "CENSUS_MAX_ORDER", "CensusReport", "census",
    "oracle_census", "oracle_cycle_sets", "count_paths", "count_cycles",
    "count_enumerations", "enumeration_word_counts", "classify_enumeration",
    "classify_cycle", "clones", "PathClass", "ClassPartition", "path_classes",
    "path_type_classes", "cycle_type_classes", "word_int", "expand_signs",
    # pattern digraphs
    "Digraph2Spec", "CopyCounter", "count_copies", "check_complement_invariance",
    "star_counterexample", "all_digraph_specs", "random_digraph_spec",
    # verification
    "Scope", "VerifyReport", "verify", "rosenfeld_check", "list_types",
    "PROPERTY_IDS", "EXHAUSTIVE_MAX_ORDER", "EXHAUSTIVE_HARD_MAX",
    "RANDOM_MAX_ORDER", "RANDOM_MAX_SAMPLES",
    # errors
    "TourCensusError", "EmptyTypeError", "IllFormedError", "TooShortError",
    "TypeTooLongError", "BadSubsetError", "ScopeTooLargeError",
    "UnknownPropertyError", "ParseError",
    "ParityViolationError", "DivisibilityViolationError",
]
