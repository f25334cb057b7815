"""Property sweeps: check the counting identities over tournament scopes.

Each property is an exact integer statement quantified over tournaments and
types.  A sweep runs it on an exhaustive or seeded-random scope and reports
the number of instances checked plus up to ten violations with full
reproduction data.  Where a property relates two counts, the two sides are
computed by unrelated code paths (subset DP against the permutation oracle)
so a shared bug cannot confirm itself.
"""

from __future__ import annotations

from itertools import repeat
from math import factorial
from typing import Callable, Iterable, Iterator, NamedTuple

from .census import (
    ORACLE_MAX_ORDER,
    _Lanes,
    _cycle_cuts,
    _halved,
    _length_census,
    _oracle_cycle_counts,
    _oracle_path_counts,
    _spanning_path_counts,
    oracle_cycle_sets,
)
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
    _check_seed,
    all_tournaments,
    random_tournaments,
    seed_stream,
)
from .type_algebra import (
    SignedTuple,
    _cycle_word_classes,
    cycle_canonical,
    cycle_type_classes,
    delta,
    format_type,
    generated_cycle_types,
    is_symmetric,
    negate,
    normalize_path,
    path_canonical,
    path_type_classes,
    period_info,
    standard_tuples,
    star_one,
    symmetric_tuples,
    word_int,
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
    "rosenfeld_check",
]


class _ScopeFields(NamedTuple):
    mode: str
    order: int
    samples: int = 0
    seed: int = 0
    allow_large: bool = False


class Scope(_ScopeFields):
    """Which tournaments a sweep visits; fully determines them.  Each scope,
    ``_replace`` included, passes the checks of ``__new__``."""

    __slots__ = ()

    def __new__(cls, mode, order, samples=0, seed=0, allow_large=False):
        if mode not in ("exhaustive", "random"):
            raise ValueError(f"unknown scope mode {mode!r}")
        if mode == "exhaustive":
            cap = EXHAUSTIVE_HARD_MAX if allow_large else EXHAUSTIVE_MAX_ORDER
            if not 0 <= order <= cap:
                raise ScopeTooLargeError(f"exhaustive scope capped at order {cap}, got {order}")
            if samples or seed:
                raise ValueError("samples and seed only apply to random scopes")
        else:
            if not 0 <= order <= RANDOM_MAX_ORDER:
                raise ScopeTooLargeError(
                    f"random scope capped at order {RANDOM_MAX_ORDER}, got {order}")
            if allow_large:
                raise ValueError("allow_large only applies to exhaustive scopes")
            _check_seed(seed)
            if samples < 1:
                raise ValueError("random scope needs samples >= 1")
            if samples > RANDOM_MAX_SAMPLES:
                raise ScopeTooLargeError(
                    f"random scope capped at {RANDOM_MAX_SAMPLES} samples, got {samples}")
        return super().__new__(cls, mode, order, samples, seed, allow_large)

    @classmethod
    def _make(cls, fields):
        return cls(*fields)

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


class VerifyReport(NamedTuple):
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
    return list(standard_tuples(total, kind))


def _runs(scope: Scope) -> Iterator[tuple[int, _Lanes]]:
    """The scope's tournaments as lanes, each run with the index of lane 0.

    A random scope, and an exhaustive one below order 3, comes one lane per
    tournament in scope order.  From order 3 an exhaustive scope comes in
    runs of 2^(n-1) tournaments, which share every arc off vertex 0 and so
    one closed walk from it.  The runs come in complement pairs: the run with
    high part h (the serial bits off vertex 0, top bit clear) and vertex 0's
    bits clear, then its reversal, whose lane i is the reversal of lane i of
    the first.  Lane i of a run has scope index ``index ^ i``.
    """
    n = scope.order
    if scope.is_random or n < 3:
        for index, T in scope.tournaments():
            yield index, _Lanes(T)
        return
    shift = n - 1
    full = (1 << (n * (n - 1) // 2 - shift)) - 1
    for h in range((full + 1) >> 1):
        run = _Lanes(Tournament(n, h << shift), 1 << shift)
        for lanes in (run, _Lanes(run.T.complement(), run.count)):
            yield lanes.T.bits, lanes


# (key, lhs, rhs): integer sides, packed one lane per tournament; a lane fails
# where its two sides differ
_Comparison = tuple


def _sweep(scope: Scope, compare: Callable[[_Lanes], Iterable[_Comparison]] | None,
           describe: Callable[[object], dict], single: bool = False,
           statements: Iterable[_Comparison] = ()):
    """Tally the type-arithmetic ``statements``, then run ``compare`` (if
    any) on every run of the scope, or with ``single`` on each of its
    tournaments alone, and tally its comparisons lane by lane.

    Only a failing comparison has ``describe`` turn its key into record
    fields.  A statement's record is those fields and its sides; a run gives
    one per failing lane, with the lane's tournament, its sides (a single
    lane unpacks to its own value) and, on a random scope, its sample.
    Statement records come first, in their order, then the rest in scope
    order, by the lane's index and then the order ``compare`` gave them,
    whatever order the runs come in, so the capped list matches a loop over
    single tournaments.
    """
    statements = tuple(statements)
    checked, seen = len(statements), 0
    # the records of the smallest keys so far, failing statements first
    kept = [(-1, k, {**describe(key), "lhs": lhs, "rhs": rhs})
            for k, (key, lhs, rhs) in enumerate(statements) if lhs != rhs]
    runs = () if compare is None else _runs(scope)
    if single:
        runs = ((start ^ i, _Lanes(run.tournament(i)))
                for start, run in runs for i in range(run.count))
    for index, lanes in runs:
        for key, lhs, rhs in compare(lanes):
            checked += lanes.count
            if lhs == rhs:
                continue
            fields = describe(key)
            for i, (a, b) in enumerate(zip(lanes.unpack(lhs), lanes.unpack(rhs))):
                if a == b:
                    continue
                record = {"tournament": lanes.tournament(i).serialize(), **fields,
                          "lhs": a, "rhs": b}
                if scope.is_random:
                    record["sample"] = index ^ i
                seen += 1
                kept.append((index ^ i, seen, record))
                if len(kept) > _VIOLATION_CAP:
                    kept.remove(max(kept))
    return checked, [record for *_, record in sorted(kept)[:_VIOLATION_CAP]], None


def _type_field(alpha: SignedTuple) -> dict:
    return {"type": format_type(alpha)}


def _type_and_cycle(key: tuple[SignedTuple, SignedTuple]) -> dict:
    return {"type": format_type(key[0]), "cycle_type": format_type(key[1])}


def _both_ways(scope: Scope) -> Callable:
    """``both(lanes, sides)``: ``sides(lanes, rev)`` of the lanes and their
    reversal, a pair of counts, one per run.  On an exhaustive scope the
    first run of a complement pair keeps the swapped pair, keyed by the
    reversal's serial, for its partner, which comes next."""
    swapped: dict[int, tuple] = {}

    def both(lanes: _Lanes, sides: Callable[[_Lanes, _Lanes], tuple]) -> tuple:
        pair = swapped.pop(lanes.T.bits, None)
        if pair is None:
            rev = _Lanes(lanes.T.complement(), lanes.count)
            pair = sides(lanes, rev)
            if not scope.is_random:  # a sample's reversal is not in the scope
                swapped[rev.T.bits] = pair[::-1]
        return pair

    return both


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


def _sides(alphas: Iterable[SignedTuple]) -> list[tuple[SignedTuple, int, bool]]:
    """(alpha, word, symmetric) of each path type, worked out once per scope."""
    return [(alpha, word_int(alpha), is_symmetric(alpha)) for alpha in alphas]


def _f(words: dict[int, int], side: tuple[SignedTuple, int, bool], lanes: _Lanes) -> int:
    """Path count of one of ``_sides`` from a table of word tallies."""
    alpha, w, symmetric = side
    return _halved(words.get(w, 0), alpha, lanes) if symmetric else words.get(w, 0)


# ---------------------------------------------------------------------------
# property checkers; each returns (checked, violations, details)


def _check_path_identity(scope: Scope, max_arc_sum: int | None):
    """f(alpha) = f(-alpha), spanning by default, all shorter sums on request."""
    # per arc sum, the (alpha, -alpha) pairs, each checked once
    pairs = [(m, [_sides((alpha, negate(alpha))) for alpha in standard_tuples(m, "path")
                  if alpha[0] > 0]) for m in _arc_sums("path", scope.order, max_arc_sum)]

    def compare(lanes: _Lanes) -> Iterator[_Comparison]:
        for m, sides in pairs:
            words = _length_census(lanes, m + 1)[0]
            for lhs, rhs in sides:
                yield lhs[0], _f(words, lhs, lanes), _f(words, rhs, lanes)

    return _sweep(scope, compare, _type_field)


def _check_cycle_identity(scope: Scope, max_arc_sum: int | None):
    """g(beta) = g(-beta), spanning by default."""
    sums = _arc_sums("cycle", scope.order, max_arc_sum)

    def compare(lanes: _Lanes) -> Iterator[_Comparison]:
        for m in sums:
            g = _length_census(lanes, m)[1]
            for beta in standard_tuples(m, "cycle"):
                neg = negate(beta)
                if beta > neg:
                    continue
                yield beta, g[cycle_canonical(beta)], g[cycle_canonical(neg)]

    return _sweep(scope, compare, _type_field)


def _check_enumeration_partition(scope: Scope, _):
    """Every permutation lands in exactly one type: word counts sum to n!."""
    n = scope.order

    def compare(lanes: _Lanes) -> Iterator[_Comparison]:
        total = sum(_length_census(lanes, n)[0].values())
        yield None, total, factorial(n) * lanes.ones

    return _sweep(scope, compare, lambda _: {})


def _check_pe_ratio(scope: Scope, _):
    """DP enumeration counts against oracle path counts: e = 2f when the type
    is symmetric (a path then has a reading from each end), e = f otherwise."""
    n = scope.order
    sides = _sides(standard_tuples(n - 1, "path"))

    def compare(lanes: _Lanes) -> Iterator[_Comparison]:
        words = _length_census(lanes, n)[0]
        by_class = _oracle_path_counts(lanes.T)
        for alpha, w, symmetric in sides:
            f = by_class[path_canonical(alpha)]
            yield alpha, words.get(w, 0), 2 * f if symmetric else f

    return _sweep(scope, compare, _type_field, single=True)


def _check_class_sizes(scope: Scope, _):
    """Paths of one type grouped by generated cycle: each group has exactly
    delta * t members (t generic, 2t direction-symmetric, n circuit).

    Each tournament's cycles are cut once for every path type (``_cycle_cuts``);
    a group is a cycle's cuts of one type, kept as its cycle type and size
    alone.  The groups come per type, in ``path_classes`` order."""
    n = scope.order
    types = _cycle_word_classes(n)
    expected = {beta: delta(beta) * period_info(beta).t for beta in cycle_type_classes(n)}

    def compare(lanes: _Lanes) -> Iterator[_Comparison]:
        groups: dict[SignedTuple, list[tuple[SignedTuple, int]]] = {}
        for w, _, cuts in _cycle_cuts(lanes.T):
            for alpha, arcs in cuts.items():
                groups.setdefault(alpha, []).append((types[w], len(arcs)))
        for alpha in path_type_classes(n - 1):
            for beta, size in groups.get(alpha, ()):
                yield (alpha, beta), size, expected[beta]

    return _sweep(scope, compare, _type_and_cycle, single=True)


def _check_eqsym(scope: Scope, _):
    """The two generated cycle types coincide exactly for symmetric path types
    (even block count); with an odd count the two always differ, and an odd
    count is never symmetric.  That part is type arithmetic, checked once per
    scope.  At the set level, distinct types own disjoint cycle sets in every
    tournament."""
    n = scope.order
    types = [(alpha, *generated_cycle_types(alpha)) for alpha in standard_tuples(n - 1, "path")]

    def describe(key) -> dict:
        alpha, first, second = key
        return {"type": format_type(alpha), "first": format_type(first),
                "second": format_type(second)}

    def compare(lanes: _Lanes) -> Iterator[_Comparison]:
        sets = oracle_cycle_sets(lanes.T)
        for alpha, first, second, coincide in types:
            if len(alpha) % 2 == 0:
                a = sets.get(first, frozenset())
                b = sets.get(second, frozenset())
                # cycles breaking the rule, against 0: coinciding types own equal sets,
                # distinct ones disjoint sets
                yield (alpha, first, second), len(a ^ b if coincide else a & b), 0

    return _sweep(scope, compare, describe, single=True, statements=(
        ((alpha, first, second), coincide, is_symmetric(alpha))
        for alpha, first, second, coincide in types))


def _check_count_formula(scope: Scope, _):
    """Spanning path counts against delta-weighted generated-cycle counts.

    For an even-block cycle tuple beta, shrinking the lead block by one arc
    (against its direction) gives a path type alpha, one of whose two
    generated cycle types is beta's.  f(alpha) equals g * t of that type
    when the two coincide, and otherwise the sum of delta * g * t over both.
    The weights are type arithmetic, worked out once per scope; f comes from
    the DP word table, g from the permutation oracle.
    """
    n = scope.order
    sides = []
    for beta in standard_tuples(n, "cycle"):
        if len(beta) % 2 == 0:
            alpha = normalize_path((star_one(beta, 1),) + beta[1:])
            gen = generated_cycle_types(alpha)
            weights = ([(gen.first, period_info(gen.first).t)] if gen.coincide else
                       [(g, delta(g) * period_info(g).t) for g in gen[:2]])
            sides.append((beta, *_sides((alpha,)), weights))

    def compare(lanes: _Lanes) -> Iterator[_Comparison]:
        gvals = _oracle_cycle_counts(lanes.T)
        words = _length_census(lanes, n)[0]
        for beta, side, weights in sides:
            yield beta, _f(words, side, lanes), sum(w * gvals[g] for g, w in weights)

    return _sweep(scope, compare, _type_field, single=True)


def _check_t_one(scope: Scope, _):
    """Symmetric path types close into cycles with trivial repetition (t = 1).

    Pure type arithmetic: the scope contributes only the arc-sum bound."""
    firsts = ((alpha, generated_cycle_types(alpha).first)
              for alpha in symmetric_tuples(scope.order - 1))
    return _sweep(scope, None, _type_and_cycle,
                  statements=((key, period_info(key[1]).t, 1) for key in firsts))


def _check_h_invariance(scope: Scope, _):
    """Copy counts of every bounded-degree pattern agree in T and reversed T."""
    from .digraphs import CopyCounter, all_digraph_specs, random_digraph_spec

    n = scope.order
    if scope.is_random:  # one pattern per sample, from its own stream
        stream = seed_stream(scope.seed ^ _SPEC_STREAM_SALT)
        patterns = ([random_digraph_spec(1 + next(stream) % n, next(stream))]
                    for _ in repeat(None))
    else:
        patterns = repeat(all_digraph_specs(n))

    both = _both_ways(scope)

    def compare(lanes: _Lanes) -> Iterator[_Comparison]:
        specs = next(patterns)

        def sides(run: _Lanes, _) -> tuple:
            # the reversal's copies of H are the host's copies of -H; an
            # exhaustive pattern list is closed under negation, so the host's
            # one walk builds the tables of both sides
            forward = CopyCounter(run.T)
            return forward.counts(specs), forward.reversal().counts(specs)

        return zip(specs, *both(lanes, sides))

    return _sweep(scope, compare, lambda spec: {"digraph": spec.render()}, single=True)


def _check_complement_bridge(scope: Scope, _):
    """Arc reversal preserves every per-type count, paths and cycles alike."""
    n = scope.order
    both = _both_ways(scope)
    sides = _sides(standard_tuples(n - 1, "path"))

    def compare(lanes: _Lanes) -> Iterator[_Comparison]:
        # each side is swept on its own, so neither count is derived from the
        # other; both share the lanes' layout
        (words, cycles), (words_rev, cycles_rev) = both(
            lanes, lambda *runs: tuple(_length_census(ln, n) for ln in runs))
        for side in sides:
            yield side[0], _f(words, side, lanes), _f(words_rev, side, lanes)
        if n >= 3:
            for beta in cycle_type_classes(n):
                yield beta, cycles[beta], cycles_rev[beta]

    return _sweep(scope, compare, _type_field)


def _check_szele_floor(scope: Scope, _):
    """The best tournament in an exhaustive scope reaches the classical
    directed-path floor n! / 2^(n-1), rounded up.

    From order 3 the runs come in complement pairs, and only the first run of
    each pair is walked.  Lane i of the partner is the reversal of lane i of
    the first, and a directed Hamiltonian path read backwards is one of the
    reversal, so the partner has the same counts; it still adds its lanes to
    ``checked``."""
    if scope.is_random:
        raise ScopeTooLargeError("szele-floor is only meaningful on an exhaustive scope")
    n = scope.order
    if n < 2:
        return 0, [], None
    floor = -(-factorial(n) // (1 << (n - 1)))
    directed = (1 << (n - 1)) - 1  # the path word of n-1 forward arcs
    checked = best = 0
    for k, (_, lanes) in enumerate(_runs(scope)):
        checked += lanes.count
        if n >= 3 and k % 2:
            continue  # the partner of the run before: its lanes hold the same counts
        counts = _spanning_path_counts(lanes, (directed,))[directed]
        best = max(best, *lanes.unpack(counts))
    violations = [{"lhs": best, "rhs": floor}] if best < floor else []
    return checked, violations, {"max": best, "floor": floor}


def _check_rosenfeld(scope: Scope, _):
    """Alternating-type specialization of the path identity: as many
    strictly-alternating Hamiltonian paths lead with a forward arc as with a
    backward one.  Flags the odd-length case, where the type is not symmetric:
    -alpha is alpha read backwards, so both sides count the same paths."""
    n = scope.order
    if n < 2:
        raise TooShortError("alternating paths need at least 2 vertices")
    alpha = tuple(1 if i % 2 == 0 else -1 for i in range(n - 1))
    lhs, rhs = _sides((alpha, negate(alpha)))

    def compare(lanes: _Lanes) -> Iterator[_Comparison]:
        # the two Hamiltonian path words alone, one lane per tournament of the batch
        e = _spanning_path_counts(lanes, (lhs[1], rhs[1]))
        yield alpha, _f(e, lhs, lanes), _f(e, rhs, lanes)

    checked, violations, _ = _sweep(scope, compare, _type_field)
    return checked, violations, {"alpha": format_type(alpha), "trivial": not is_symmetric(alpha)}


class _Property(NamedTuple):
    """A property's checker and the rules ``verify`` applies before it runs."""
    check: Callable
    least_order: int = 0  # below it there is nothing to check: a vacuous report
    oracle: bool = False  # cross-checked against the oracle, so capped at its order
    arc_sums: bool = False  # takes an arc-sum bound


_PROPERTIES: dict[str, _Property] = {
    "path-identity": _Property(_check_path_identity, arc_sums=True),
    "cycle-identity": _Property(_check_cycle_identity, arc_sums=True),
    "enumeration-partition": _Property(_check_enumeration_partition, 2),
    "pe-ratio": _Property(_check_pe_ratio, 2, oracle=True),
    "class-sizes": _Property(_check_class_sizes, 3, oracle=True),
    "eqsym": _Property(_check_eqsym, 3, oracle=True),
    "count-formula": _Property(_check_count_formula, 3, oracle=True),
    "t-one": _Property(_check_t_one),
    "h-invariance": _Property(_check_h_invariance, 1),
    "complement-bridge": _Property(_check_complement_bridge, 2),
    "szele-floor": _Property(_check_szele_floor),
    "rosenfeld": _Property(_check_rosenfeld),
}

PROPERTY_IDS = tuple(_PROPERTIES)


def verify(property_id: str, scope: Scope, *, max_arc_sum: int | None = None) -> VerifyReport:
    prop = _PROPERTIES.get(property_id)
    if prop is None:
        raise UnknownPropertyError(
            f"unknown property {property_id!r}; known: {', '.join(PROPERTY_IDS)}"
        )
    if max_arc_sum is not None and not prop.arc_sums:
        bounded = (pid for pid, p in _PROPERTIES.items() if p.arc_sums)
        raise TourCensusError(f"an arc-sum bound only applies to {' and '.join(bounded)}")
    if prop.oracle and scope.order > ORACLE_MAX_ORDER:
        raise ScopeTooLargeError(
            f"this property cross-checks against the brute-force oracle, "
            f"capped at order {ORACLE_MAX_ORDER}"
        )
    if scope.order < prop.least_order:
        return VerifyReport(property_id, scope, 0, [])
    return VerifyReport(property_id, scope, *prop.check(scope, max_arc_sum))


def rosenfeld_check(scope: Scope) -> VerifyReport:
    """The alternating-path special case of the path identity: the
    ``rosenfeld`` sweep over ``scope``."""
    return verify("rosenfeld", scope)
