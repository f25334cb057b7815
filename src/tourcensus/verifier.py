"""Property sweeps: check the counting identities over tournament scopes.

Each property is an exact integer statement quantified over tournaments and
types.  A sweep runs it on an exhaustive or seeded-random scope and reports
the number of instances checked plus up to ten violations with full
reproduction data.  Where a property relates two counts, the two sides are
computed by unrelated code paths (subset DP against the permutation oracle)
so a shared bug cannot confirm itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from math import factorial
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from .census import (
    ORACLE_MAX_ORDER,
    _Lanes,
    _f_from_words,
    _length_census,
    _spanning_path_counts,
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
from .tournaments import (
    EXHAUSTIVE_HARD_MAX,
    EXHAUSTIVE_MAX_ORDER,
    Tournament,
    all_tournaments,
    random_tournaments,
    seed_stream,
)
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


def _single_runs(scope: Scope) -> Iterator[tuple[int, _Lanes]]:
    """The scope's tournaments one lane each, with their indices."""
    for index, T in scope.tournaments():
        yield index, _Lanes(T)


def _lane_runs(scope: Scope) -> Iterator[tuple[int, _Lanes]]:
    """The scope's tournaments as lanes, each batch with its first index.

    From order 3 an exhaustive scope comes in runs of 2^(n-1) consecutive
    tournaments, which share every arc off vertex 0 and so one closed walk
    from it; anything else is one lane per tournament.
    """
    if scope.is_random or scope.order < 3:
        return _single_runs(scope)
    # a run starts at the serial with vertex 0's bits clear
    return ((lanes.T.bits, lanes) for lanes in _Lanes.runs(scope.order))


# (key, packed lhs, packed rhs[, verdict]): sides are equal unless a verdict
# (one lane only) says otherwise
_Comparison = tuple


def _sweep(scope: Scope, compare: Callable[[_Lanes], Iterable[_Comparison]],
           describe: Callable[[object], dict],
           runs: Callable[[Scope], Iterable[tuple[int, _Lanes]]] | None = None):
    """Run ``compare`` on every batch of ``runs`` (by default the scope's lane
    runs) and tally its comparisons lane by lane.

    Only a failing comparison has ``describe`` turn its key into record
    fields.  It gives one record per failing lane: the lane's tournament,
    those fields, the lane's sides and, on a random scope, its sample.
    Packed sides are unpacked only where they differ; the sides of a single
    lane pass through as they are.  A batch's records are reported in lane
    order, so the capped list matches a loop over single tournaments.
    """
    checked, violations = 0, []
    for index, lanes in (runs or _lane_runs)(scope):
        found: list[tuple[int, dict]] = []
        for key, lhs, rhs, *verdict in compare(lanes):
            checked += lanes.count
            if verdict[0] if verdict else lhs == rhs:
                continue
            fields = describe(key)
            if lanes.count == 1:
                failing = [(0, lhs, rhs)]
            else:
                failing = [(i, a, b) for i, (a, b)
                           in enumerate(zip(lanes.unpack(lhs), lanes.unpack(rhs))) if a != b]
            for i, a, b in failing:
                record = {"tournament": lanes.tournament(i).serialize(), **fields,
                          "lhs": a, "rhs": b}
                if scope.is_random:
                    record["sample"] = index + i
                found.append((i, record))
        found.sort(key=itemgetter(0))
        violations.extend(record for _, record in found[:_VIOLATION_CAP - len(violations)])
    return checked, violations, None


def _type_field(alpha: SignedTuple) -> dict:
    return {"type": format_type(alpha)}


def _need_oracle(scope: Scope) -> None:
    if scope.order > ORACLE_MAX_ORDER:
        raise ScopeTooLargeError(
            f"this property cross-checks against the brute-force oracle, "
            f"capped at order {ORACLE_MAX_ORDER}"
        )


def _arc_sums(kind: str, order: int, max_arc_sum: int | None) -> tuple[int, ...]:
    """The arc sums a path or cycle sweep checks: spanning only by default,
    else every sum from the shortest type up to the bound."""
    low, top = (1, order - 1) if kind == "path" else (3, order)
    if max_arc_sum is None:
        return (top,) if top >= low else ()
    if not low <= max_arc_sum <= top:
        raise TypeTooLongError(
            f"{kind} arc sums must lie in {low}..{top}, got bound {max_arc_sum}"
        )
    return tuple(range(low, max_arc_sum + 1))


# ---------------------------------------------------------------------------
# property checkers; each returns (checked, violations, details)


def _check_path_identity(scope: Scope, max_arc_sum: int | None):
    """f(alpha) = f(-alpha), spanning by default, all shorter sums on request."""
    sums = _arc_sums("path", scope.order, max_arc_sum)

    def compare(lanes: _Lanes) -> Iterator[_Comparison]:
        for m in sums:
            words = enumeration_word_counts(lanes.T, m + 1, lanes)
            for alpha in standard_tuples(m, "path"):
                if alpha[0] < 0:
                    continue  # (alpha, -alpha) pairs checked once
                yield (alpha, _f_from_words(words, alpha, lanes),
                       _f_from_words(words, negate(alpha), lanes))

    return _sweep(scope, compare, _type_field)


def _check_cycle_identity(scope: Scope, max_arc_sum: int | None):
    """g(beta) = g(-beta), spanning by default."""
    sums = _arc_sums("cycle", scope.order, max_arc_sum)

    def compare(lanes: _Lanes) -> Iterator[_Comparison]:
        for m in sums:
            g = _length_census(lanes.T, m, lanes)[1]
            for beta in standard_tuples(m, "cycle"):
                neg = negate(beta)
                if beta > neg:
                    continue
                yield beta, g[cycle_canonical(beta)], g[cycle_canonical(neg)]

    return _sweep(scope, compare, _type_field)


def _check_enumeration_partition(scope: Scope, _):
    """Every permutation lands in exactly one type: word counts sum to n!."""
    n = scope.order
    if n < 2:
        return 0, [], None

    def compare(lanes: _Lanes) -> Iterator[_Comparison]:
        total = sum(enumeration_word_counts(lanes.T, n, lanes).values())
        yield None, total, factorial(n) * lanes.ones

    return _sweep(scope, compare, lambda _: {})


def _check_pe_ratio(scope: Scope, _):
    """DP enumeration counts against oracle path counts: e = 2f when the type
    is symmetric (a path then has a reading from each end), e = f otherwise."""
    _need_oracle(scope)
    n = scope.order
    if n < 2:
        return 0, [], None

    def compare(lanes: _Lanes) -> Iterator[_Comparison]:
        words = enumeration_word_counts(lanes.T, n)
        by_class = oracle_census(lanes.T).path_counts
        for alpha in standard_tuples(n - 1, "path"):
            f = by_class[path_canonical(alpha)]
            yield alpha, words.get(word_int(alpha), 0), 2 * f if is_symmetric(alpha) else f

    return _sweep(scope, compare, _type_field, _single_runs)


def _check_class_sizes(scope: Scope, _):
    """Paths of one type grouped by generated cycle: each group has exactly
    delta * t members (t generic, 2t direction-symmetric, n circuit)."""
    _need_oracle(scope)  # path_classes cuts the oracle's cycles
    n = scope.order
    if n < 3:
        return 0, [], None

    def compare(lanes: _Lanes) -> Iterator[_Comparison]:
        for alpha in path_type_classes(n - 1):
            for cls in path_classes(lanes.T, alpha).classes:
                beta = cls.cycle_type
                yield (alpha, beta), len(cls.paths), delta(beta) * period_info(beta).t

    def describe(key) -> dict:
        return {"type": format_type(key[0]), "cycle_type": format_type(key[1])}

    return _sweep(scope, compare, describe, _single_runs)


def _check_eqsym(scope: Scope, _):
    """The two generated cycle types coincide exactly for symmetric path types
    (even block count); with an odd count the two always differ, and an odd
    count is never symmetric.  At the set level, distinct types own disjoint
    cycle sets in every tournament."""
    _need_oracle(scope)
    n = scope.order
    if n < 3:
        return 0, [], None

    def compare(lanes: _Lanes) -> Iterator[_Comparison]:
        sets = oracle_cycle_sets(lanes.T)
        for alpha in standard_tuples(n - 1, "path"):
            first, second, coincide = generated_cycle_types(alpha)
            key = alpha, first, second
            yield key, coincide, is_symmetric(alpha)
            if len(alpha) % 2 == 0:
                a = sets.get(first, frozenset())
                b = sets.get(second, frozenset())
                # coinciding types must own the same cycles, distinct ones none in common
                yield key, len(a), len(b), (a == b) if coincide else not (a & b)

    def describe(key) -> dict:
        alpha, first, second = key
        return {"type": format_type(alpha), "first": format_type(first),
                "second": format_type(second)}

    return _sweep(scope, compare, describe, _single_runs)


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

    def compare(lanes: _Lanes) -> Iterator[_Comparison]:
        gvals = oracle_census(lanes.T).cycle_counts
        words = enumeration_word_counts(lanes.T, n)
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
            yield beta, lhs, rhs

    return _sweep(scope, compare, _type_field, _single_runs)


def _check_t_one(scope: Scope, _):
    """Symmetric path types close into cycles with trivial repetition (t = 1).

    Pure type arithmetic: the scope contributes only the arc-sum bound."""
    if scope.order < 2:
        return 0, [], None
    checked, violations = 0, []
    for alpha in symmetric_tuples(scope.order - 1):
        first, _, _ = generated_cycle_types(alpha)
        t = period_info(first).t
        checked += 1
        if t != 1:
            violations.append({"type": format_type(alpha), "cycle_type": format_type(first),
                               "lhs": t, "rhs": 1})
    return checked, violations[:_VIOLATION_CAP], None


def _check_h_invariance(scope: Scope, _):
    """Copy counts of every bounded-degree pattern agree in T and reversed T."""
    n = scope.order
    if n < 1:
        return 0, [], None
    if scope.is_random:  # one pattern per sample, from its own stream
        stream = seed_stream(scope.seed ^ _SPEC_STREAM_SALT)
        patterns = ([random_digraph_spec(1 + next(stream) % n, next(stream))]
                    for _ in repeat(None))
    else:
        patterns = repeat(all_digraph_specs(n))

    def compare(lanes: _Lanes) -> Iterator[_Comparison]:
        specs = next(patterns)
        forward = CopyCounter(lanes.T).counts(specs)
        reverse = CopyCounter(lanes.T.complement()).counts(specs)
        return zip(specs, forward, reverse)

    return _sweep(scope, compare, lambda spec: {"digraph": spec.render()}, _single_runs)


def _check_complement_bridge(scope: Scope, _):
    """Arc reversal preserves every per-type count, paths and cycles alike."""
    n = scope.order
    if n < 2:
        return 0, [], None

    def compare(lanes: _Lanes) -> Iterator[_Comparison]:
        # each side is swept on its own, so neither count is derived from the
        # other; lane i of the reversed lanes is the reversal of lane i
        rev = _Lanes(lanes.T.complement(), lanes.count)
        words, cycles = _length_census(lanes.T, n, lanes)
        words_rev, cycles_rev = _length_census(rev.T, n, rev)
        for alpha in standard_tuples(n - 1, "path"):
            yield (alpha, _f_from_words(words, alpha, lanes),
                   _f_from_words(words_rev, alpha, rev))
        if n >= 3:
            for beta in cycle_type_classes(n):
                yield beta, cycles[beta], cycles_rev[beta]

    return _sweep(scope, compare, _type_field)


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
    checked = best = 0
    for _, lanes in _lane_runs(scope):
        counts = _spanning_path_counts(lanes.T, (directed,), lanes)[directed]
        best = max(best, *lanes.unpack(counts))
        checked += lanes.count
    violations = [{"lhs": best, "rhs": floor}] if best < floor else []
    return checked, violations, {"max": best, "floor": floor}


def _check_rosenfeld(scope: Scope, _):
    """Alternating-type specialization of the path identity: as many
    strictly-alternating Hamiltonian paths lead with a forward arc as with a
    backward one.  Flags the even-length case, where the type is symmetric
    and the identity holds by definition."""
    n = scope.order
    if n < 2:
        raise TooShortError("alternating paths need at least 2 vertices")
    alpha = tuple(1 if i % 2 == 0 else -1 for i in range(n - 1))
    neg = negate(alpha)
    words = word_int(alpha), word_int(neg)

    def compare(lanes: _Lanes) -> Iterator[_Comparison]:
        # the two Hamiltonian path words alone, one lane per tournament of the batch
        e = _spanning_path_counts(lanes.T, words, lanes)
        yield alpha, _f_from_words(e, alpha, lanes), _f_from_words(e, neg, lanes)

    checked, violations, _ = _sweep(scope, compare, _type_field)
    return checked, violations, {"alpha": format_type(alpha), "trivial": is_symmetric(alpha)}


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
    return VerifyReport(property_id, scope, *checker(scope, max_arc_sum))
