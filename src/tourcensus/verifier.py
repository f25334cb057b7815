"""Property sweeps: check the counting identities over tournament scopes.

Each property is an exact integer statement quantified over tournaments and
types.  A sweep runs it on an exhaustive or seeded-random scope and reports
the number of instances checked plus up to ten violations with full
reproduction data.  Where a property relates two counts, the two sides are
computed by unrelated code paths (subset DP against the permutation oracle)
so a shared bug cannot confirm itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import factorial
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from .census import (
    ORACLE_MAX_ORDER,
    _Lanes,
    _per_path,
    _spanning_census,
    _spanning_path_counts,
    count_cycles,
    count_paths,
    cycle_type_classes,
    enumeration_word_counts,
    oracle_census,
    oracle_cycle_sets,
    path_classes,
    path_type_classes,
    word_int,
)
from .digraphs import CopyCounter, all_digraph_specs, random_digraph_spec
from .errors import (
    ScopeTooLargeError,
    TooShortError,
    TourCensusError,
    TypeTooLongError,
    UnknownPropertyError,
)
from .tournaments import Tournament, all_tournaments, random_tournaments, seed_stream
from .type_algebra import (
    SignedTuple,
    cycle_canonical,
    delta,
    format_type,
    generated_cycle_types,
    is_symmetric,
    neg_reverse,
    negate,
    normalize_cycle,
    normalize_path,
    path_canonical,
    period_info,
    standard_tuples,
    star_one,
    symmetric_tuples,
)

EXHAUSTIVE_MAX_ORDER = 6
EXHAUSTIVE_HARD_MAX = 7
RANDOM_MAX_ORDER = 12
RANDOM_MAX_SAMPLES = 1 << 16
_VIOLATION_CAP = 10
_SPEC_STREAM_SALT = 0x6A09E667F3BCC909  # decorrelates pattern draws from tournament draws

__all__ = [
    "EXHAUSTIVE_MAX_ORDER",
    "EXHAUSTIVE_HARD_MAX",
    "RANDOM_MAX_ORDER",
    "RANDOM_MAX_SAMPLES",
    "PROPERTY_IDS",
    "Scope",
    "VerifyReport",
    "list_types",
    "verify",
]


@dataclass(frozen=True)
class Scope:
    """Which tournaments a sweep visits; fully determines them."""

    mode: str
    order: int
    samples: int = 0
    seed: int = 0
    allow_large: bool = False

    def __post_init__(self):
        if self.mode not in ("exhaustive", "random"):
            raise ValueError(f"unknown scope mode {self.mode!r}")
        if self.mode == "exhaustive":
            cap = EXHAUSTIVE_HARD_MAX if self.allow_large else EXHAUSTIVE_MAX_ORDER
            if not 0 <= self.order <= cap:
                raise ScopeTooLargeError(
                    f"exhaustive scope capped at order {cap}, got {self.order}"
                )
        else:
            if not 0 <= self.order <= RANDOM_MAX_ORDER:
                raise ScopeTooLargeError(
                    f"random scope capped at order {RANDOM_MAX_ORDER}, got {self.order}"
                )
            if self.samples < 1:
                raise ValueError("random scope needs samples >= 1")
            if self.samples > RANDOM_MAX_SAMPLES:
                raise ScopeTooLargeError(
                    f"random scope capped at {RANDOM_MAX_SAMPLES} samples, got {self.samples}"
                )

    @property
    def is_random(self) -> bool:
        return self.mode == "random"

    def tournaments(self) -> Iterator[tuple[int, Tournament]]:
        if self.mode == "exhaustive":
            yield from enumerate(all_tournaments(self.order, allow_large=self.allow_large))
        else:
            yield from enumerate(random_tournaments(self.order, self.seed, self.samples))

    def to_json_dict(self) -> dict:
        doc: dict = {"mode": self.mode, "order": self.order}
        if self.mode == "random":
            doc["samples"] = self.samples
            doc["seed"] = self.seed
        if self.allow_large:
            doc["allow_large"] = True
        return doc


@dataclass
class VerifyReport:
    property_id: str
    scope: Scope
    checked: int
    violations: list[dict]
    ms: int
    details: dict | None = None

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def vacuous(self) -> bool:
        """Nothing was checked, so the pass says nothing about the property."""
        return self.checked == 0

    def to_json_dict(self) -> dict:
        doc = {
            "property": self.property_id,
            "scope": self.scope.to_json_dict(),
            "checked": self.checked,
            "pass": self.passed,
            "violations": self.violations,
            "ms": self.ms,
        }
        if self.vacuous:
            doc["vacuous"] = True
        if self.details is not None:
            doc["details"] = self.details
        return doc


def list_types(total: int, kind: str) -> list[SignedTuple]:
    """All standard tuples with the given arc sum, both sign phases."""
    if total < 1:
        raise TooShortError("arc sum must be at least 1")
    return list(standard_tuples(total, kind))


class _Tally:
    __slots__ = ("checked", "violations")

    def __init__(self):
        self.checked = 0
        self.violations: list[dict] = []

    def add(self, record: dict) -> None:
        if len(self.violations) < _VIOLATION_CAP:
            self.violations.append(record)


def _vio(scope: Scope, index: int, **fields) -> dict:
    if scope.is_random:
        fields["sample"] = index
    return fields


def _lane_runs(scope: Scope) -> Iterator[tuple[int, _Lanes]]:
    """The scope's tournaments as lanes, each batch with its first index.

    From order 3 an exhaustive scope comes in runs of 2^(n-1) consecutive
    tournaments, which share every arc off vertex 0 and so one closed walk
    from it; anything else is one lane per tournament.
    """
    if scope.is_random or scope.order < 3:
        for index, T in scope.tournaments():
            yield index, _Lanes(T)
    else:
        for lanes in _Lanes.runs(scope.order):
            yield lanes.T.bits, lanes  # a run starts at the serial with vertex 0's bits clear


_Comparison = tuple[SignedTuple | None, int, int]  # (type or None, packed lhs, packed rhs)


def _lane_sweep(scope: Scope, compare: Callable[[_Lanes], Iterable[_Comparison]]):
    """Run ``compare`` on every batch of the scope and tally its comparisons
    lane by lane.  Lanes are unpacked only where the packed sides differ, and
    a batch's violations are reported in lane order, so the list matches a
    loop over single tournaments."""
    tally = _Tally()
    for index, lanes in _lane_runs(scope):
        found: list[tuple[int, dict]] = []
        for tup, lhs, rhs in compare(lanes):
            tally.checked += lanes.count
            if lhs == rhs:
                continue
            fields = {} if tup is None else {"type": format_type(tup)}
            for i, (a, b) in enumerate(zip(lanes.unpack(lhs), lanes.unpack(rhs))):
                if a != b:
                    serial = lanes.tournament(i).serialize()
                    found.append((i, _vio(scope, index + i, tournament=serial,
                                          **fields, lhs=a, rhs=b)))
        found.sort(key=itemgetter(0))
        for _, record in found:
            tally.add(record)
    return tally.checked, tally.violations, None


def _f_from_words(words: dict[int, int], alpha: SignedTuple, lanes: _Lanes | None = None) -> int:
    """Path count from a precomputed word table; halves symmetric types."""
    return _per_path(words.get(word_int(alpha), 0), alpha, lanes)


def _need_oracle(scope: Scope) -> None:
    if scope.order > ORACLE_MAX_ORDER:
        raise ScopeTooLargeError(
            f"this property cross-checks against the brute-force oracle, "
            f"capped at order {ORACLE_MAX_ORDER}"
        )


def _path_sums(order: int, max_arc_sum: int | None) -> tuple[int, ...]:
    if max_arc_sum is None:
        return (order - 1,) if order >= 2 else ()
    if not 1 <= max_arc_sum <= order - 1:
        raise TypeTooLongError(
            f"path arc sums must lie in 1..{order - 1}, got bound {max_arc_sum}"
        )
    return tuple(range(1, max_arc_sum + 1))


def _cycle_sums(order: int, max_arc_sum: int | None) -> tuple[int, ...]:
    if max_arc_sum is None:
        return (order,) if order >= 3 else ()
    if not 3 <= max_arc_sum <= order:
        raise TypeTooLongError(
            f"cycle arc sums must lie in 3..{order}, got bound {max_arc_sum}"
        )
    return tuple(range(3, max_arc_sum + 1))


# ---------------------------------------------------------------------------
# property checkers; each returns (checked, violations, details)


def _check_path_identity(scope: Scope, max_arc_sum: int | None):
    """f(alpha) = f(-alpha), spanning by default, all shorter sums on request."""
    sums = _path_sums(scope.order, max_arc_sum)

    def compare(lanes: _Lanes) -> Iterator[_Comparison]:
        for m in sums:
            words = enumeration_word_counts(lanes.T, m + 1, lanes)
            for alpha in standard_tuples(m, "path"):
                if alpha[0] < 0:
                    continue  # (alpha, -alpha) pairs checked once
                yield (alpha, _f_from_words(words, alpha, lanes),
                       _f_from_words(words, negate(alpha), lanes))

    return _lane_sweep(scope, compare)


def _check_cycle_identity(scope: Scope, max_arc_sum: int | None):
    """g(beta) = g(-beta), spanning by default."""
    sums = _cycle_sums(scope.order, max_arc_sum)

    def compare(lanes: _Lanes) -> Iterator[_Comparison]:
        for m in sums:
            # spanning counts come from one vertex-0 sweep, shorter sums per type
            if m == scope.order:
                g = _spanning_census(lanes.T, lanes)[1]
            else:
                g = lanes.map(lambda T: {c: count_cycles(T, c) for c in cycle_type_classes(m)})
            for beta in standard_tuples(m, "cycle"):
                neg = negate(beta)
                if beta > neg:
                    continue
                yield beta, g[cycle_canonical(beta)], g[cycle_canonical(neg)]

    return _lane_sweep(scope, compare)


def _check_enumeration_partition(scope: Scope, _):
    """Every permutation lands in exactly one type: word counts sum to n!."""
    n = scope.order
    if n < 2:
        return 0, [], None

    def compare(lanes: _Lanes) -> Iterator[_Comparison]:
        total = sum(enumeration_word_counts(lanes.T, n, lanes).values())
        yield None, total, factorial(n) * lanes.ones

    return _lane_sweep(scope, compare)


def _check_pe_ratio(scope: Scope, _):
    """DP enumeration counts against oracle path counts: e = 2f when the type
    is symmetric (a path then has a reading from each end), e = f otherwise."""
    _need_oracle(scope)
    n = scope.order
    if n < 2:
        return 0, [], None
    tally = _Tally()
    for index, T in scope.tournaments():
        words = enumeration_word_counts(T, n)
        by_class = oracle_census(T).path_counts
        for alpha in standard_tuples(n - 1, "path"):
            e = words.get(word_int(alpha), 0)
            f = by_class[path_canonical(alpha)]
            rhs = 2 * f if is_symmetric(alpha) else f
            tally.checked += 1
            if e != rhs:
                tally.add(_vio(scope, index, tournament=T.serialize(),
                               type=format_type(alpha), lhs=e, rhs=rhs))
    return tally.checked, tally.violations, None


def _check_class_sizes(scope: Scope, _):
    """Paths of one type grouped by generated cycle: each group has exactly
    delta * t members (t generic, 2t direction-symmetric, n circuit)."""
    _need_oracle(scope)  # explicit path enumeration, same practical bound
    n = scope.order
    if n < 3:
        return 0, [], None
    tally = _Tally()
    for index, T in scope.tournaments():
        for alpha in path_type_classes(n - 1):
            for cls in path_classes(T, alpha).classes:
                beta = cls.cycle_type
                expect = delta(beta) * period_info(beta).t
                size = len(cls.paths)
                tally.checked += 1
                if size != expect:
                    tally.add(_vio(scope, index, tournament=T.serialize(),
                                   type=format_type(alpha),
                                   cycle_type=format_type(beta),
                                   lhs=size, rhs=expect))
    return tally.checked, tally.violations, None


def _check_eqsym(scope: Scope, _):
    """The two generated cycle types coincide exactly for symmetric path types
    (even block count); with an odd count the two always differ.  At the set
    level, distinct types own disjoint cycle sets in every tournament."""
    _need_oracle(scope)
    n = scope.order
    if n < 3:
        return 0, [], None
    tally = _Tally()
    for index, T in scope.tournaments():
        sets = oracle_cycle_sets(T)
        for alpha in standard_tuples(n - 1, "path"):
            first, second, coincide = generated_cycle_types(alpha)
            if len(alpha) % 2 == 0:
                ok = coincide == is_symmetric(alpha)
            else:
                ok = not coincide
            tally.checked += 1
            if not ok:
                tally.add(_vio(scope, index, tournament=T.serialize(),
                               type=format_type(alpha),
                               first=format_type(first), second=format_type(second),
                               lhs=coincide, rhs=is_symmetric(alpha)))
            if len(alpha) % 2 == 0:
                a = sets.get(first, frozenset())
                b = sets.get(second, frozenset())
                tally.checked += 1
                # coinciding types must own the same cycles, distinct ones none in common
                bad = (a != b) if coincide else bool(a & b)
                if bad:
                    tally.add(_vio(scope, index, tournament=T.serialize(),
                                   type=format_type(alpha),
                                   first=format_type(first), second=format_type(second),
                                   lhs=len(a), rhs=len(b)))
    return tally.checked, tally.violations, None


def _check_count_formula(scope: Scope, _):
    """Spanning path counts against delta-weighted generated-cycle counts.

    For an even-block cycle tuple beta, shrinking the lead block by one arc
    (against its direction) gives a path type; its f equals g(beta) * t(beta)
    when the shrunk tuple is symmetric, and otherwise the weighted sum over
    the two closures beta and beta with both end blocks shrunk.  f comes from
    the DP word table, g from the permutation oracle.
    """
    _need_oracle(scope)
    n = scope.order
    if n < 3:
        return 0, [], None
    tally = _Tally()
    for index, T in scope.tournaments():
        gvals = oracle_census(T).cycle_counts
        words = enumeration_word_counts(T, n)
        for beta in standard_tuples(n, "cycle"):
            s = len(beta)
            if s % 2:
                continue
            lead = star_one(beta, 1)
            raw = (lead,) + beta[1:]
            lhs = _f_from_words(words, normalize_path(raw))
            if raw == neg_reverse(raw):
                rhs = gvals[cycle_canonical(beta)] * period_info(beta).t
            else:
                other = normalize_cycle((lead,) + beta[1:-1] + (star_one(beta, s),))
                rhs = (delta(beta) * gvals[cycle_canonical(beta)] * period_info(beta).t
                       + delta(other) * gvals[cycle_canonical(other)]
                       * period_info(other).t)
            tally.checked += 1
            if lhs != rhs:
                tally.add(_vio(scope, index, tournament=T.serialize(),
                               type=format_type(beta), lhs=lhs, rhs=rhs))
    return tally.checked, tally.violations, None


def _check_t_one(scope: Scope, _):
    """Symmetric path types close into cycles with trivial repetition (t = 1).

    Pure type arithmetic: the scope contributes only the arc-sum bound."""
    tally = _Tally()
    if scope.order < 2:
        return 0, [], None
    for alpha in symmetric_tuples(scope.order - 1):
        first, _, _ = generated_cycle_types(alpha)
        t = period_info(first).t
        tally.checked += 1
        if t != 1:
            tally.add({"type": format_type(alpha), "cycle_type": format_type(first),
                       "lhs": t, "rhs": 1})
    return tally.checked, tally.violations, None


def _check_h_invariance(scope: Scope, _):
    """Copy counts of every bounded-degree pattern agree in T and reversed T."""
    n = scope.order
    if n < 1:
        return 0, [], None
    tally = _Tally()
    if scope.is_random:
        stream = seed_stream(scope.seed ^ _SPEC_STREAM_SALT)
        for index, T in scope.tournaments():
            order = 1 + next(stream) % n
            spec = random_digraph_spec(order, next(stream))
            _check_copy_pair(tally, scope, index, T, [spec])
    else:
        specs = all_digraph_specs(n)
        for index, T in scope.tournaments():
            _check_copy_pair(tally, scope, index, T, specs)
    return tally.checked, tally.violations, None


def _check_copy_pair(tally: _Tally, scope: Scope, index: int, T: Tournament, specs) -> None:
    forward = CopyCounter(T).counts(specs)
    reverse = CopyCounter(T.complement()).counts(specs)
    for spec, lhs, rhs in zip(specs, forward, reverse):
        tally.checked += 1
        if lhs != rhs:
            tally.add(_vio(scope, index, tournament=T.serialize(),
                           digraph=spec.render(), lhs=lhs, rhs=rhs))


def _check_complement_bridge(scope: Scope, _):
    """Arc reversal preserves every per-type count, paths and cycles alike."""
    n = scope.order
    if n < 2:
        return 0, [], None

    def compare(lanes: _Lanes) -> Iterator[_Comparison]:
        # each side is swept on its own, so neither count is derived from the
        # other; lane i of the reversed lanes is the reversal of lane i
        rev = _Lanes(lanes.T.complement(), lanes.count)
        words, cycles = _spanning_census(lanes.T, lanes)
        words_rev, cycles_rev = _spanning_census(rev.T, rev)
        for alpha in standard_tuples(n - 1, "path"):
            yield (alpha, _f_from_words(words, alpha, lanes),
                   _f_from_words(words_rev, alpha, rev))
        if n >= 3:
            for beta in cycle_type_classes(n):
                yield beta, cycles[beta], cycles_rev[beta]

    return _lane_sweep(scope, compare)


def _check_szele_floor(scope: Scope, _):
    """The best tournament in an exhaustive scope reaches the classical
    directed-path floor n! / 2^(n-1), rounded up."""
    if scope.is_random:
        raise ScopeTooLargeError("szele-floor is only meaningful on an exhaustive scope")
    n = scope.order
    if n < 2:
        return 0, [], None
    floor = -(-factorial(n) // (1 << (n - 1)))
    directed = (1 << (n - 1)) - 1  # the path word of n-1 forward arcs
    tally = _Tally()
    best = 0
    for _, lanes in _lane_runs(scope):
        counts = _spanning_path_counts(lanes.T, (directed,), lanes)[directed]
        best = max(best, *lanes.unpack(counts))
        tally.checked += lanes.count
    if best < floor:
        tally.add({"lhs": best, "rhs": floor})
    return tally.checked, tally.violations, {"max": best, "floor": floor}


def _check_rosenfeld(scope: Scope, _):
    """Alternating-type specialization of the path identity: as many
    strictly-alternating Hamiltonian paths lead with a forward arc as with a
    backward one.  Flags the even-length case, where the type is symmetric
    and the identity holds by definition."""
    n = scope.order
    if n < 2:
        raise TooShortError("alternating paths need at least 2 vertices")
    alpha = tuple(1 if i % 2 == 0 else -1 for i in range(n - 1))
    tally = _Tally()
    for index, T in scope.tournaments():
        lhs = count_paths(T, alpha)
        rhs = count_paths(T, negate(alpha))
        tally.checked += 1
        if lhs != rhs:
            tally.add(_vio(scope, index, tournament=T.serialize(),
                           type=format_type(alpha), lhs=lhs, rhs=rhs))
    details = {"alpha": format_type(alpha), "trivial": is_symmetric(alpha)}
    return tally.checked, tally.violations, details


_CHECKERS: dict[str, Callable] = {
    "path-identity": _check_path_identity,
    "cycle-identity": _check_cycle_identity,
    "enumeration-partition": _check_enumeration_partition,
    "pe-ratio": _check_pe_ratio,
    "class-sizes": _check_class_sizes,
    "eqsym": _check_eqsym,
    "count-formula": _check_count_formula,
    "t-one": _check_t_one,
    "h-invariance": _check_h_invariance,
    "complement-bridge": _check_complement_bridge,
    "szele-floor": _check_szele_floor,
    "rosenfeld": _check_rosenfeld,
}

PROPERTY_IDS = tuple(_CHECKERS)

_ARC_SUM_PROPERTIES = ("path-identity", "cycle-identity")


def verify(property_id: str, scope: Scope, *, max_arc_sum: int | None = None) -> VerifyReport:
    checker = _CHECKERS.get(property_id)
    if checker is None:
        raise UnknownPropertyError(
            f"unknown property {property_id!r}; known: {', '.join(PROPERTY_IDS)}"
        )
    if max_arc_sum is not None and property_id not in _ARC_SUM_PROPERTIES:
        raise TourCensusError(
            f"an arc-sum bound only applies to {' and '.join(_ARC_SUM_PROPERTIES)}"
        )
    start = time.perf_counter()
    checked, violations, details = checker(scope, max_arc_sum)
    ms = round((time.perf_counter() - start) * 1000)
    return VerifyReport(property_id, scope, checked, violations, ms, details)
