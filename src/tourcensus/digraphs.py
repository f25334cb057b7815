"""Counting copies of small path/cycle/vertex unions inside a tournament.

A pattern is a disjoint union of oriented paths, oriented cycles and isolated
vertices, written ``P(2,-1);C(3);V``.  Copies are counted as subgraphs: arc
sets in the host, not embeddings, so automorphic placements of repeated
components collapse.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import comb, factorial

from .census import _per_cycle, _per_path, _word_tallies
from .errors import DivisibilityViolationError, IllFormedError, ParseError, TypeTooLongError
from .tournaments import Tournament, pair_index, seed_stream
from .type_algebra import (
    SignedTuple,
    _cyclic_runs_from_word,
    _runs_from_word,
    _tuple_key,
    arc_sum,
    check_standard_cycle,
    check_standard_path,
    cycle_canonical,
    cycle_type_classes,
    format_type,
    negate,
    parse_type,
    path_canonical,
    path_type_classes,
    word_int,
)

__all__ = [
    "Digraph2Spec",
    "CopyCounter",
    "count_copies",
    "check_complement_invariance",
    "star_counterexample",
    "all_digraph_specs",
    "random_digraph_spec",
]

# A component is ("V",), ("P", tuple) or ("C", tuple); tuples are canonical.
Component = tuple

_KIND_RANK = {"P": 0, "C": 1, "V": 2}


def _component_order(c: Component) -> int:
    if c[0] == "V":
        return 1
    if c[0] == "P":
        return arc_sum(c[1]) + 1
    return arc_sum(c[1])


def _component_key(c: Component):
    return (_KIND_RANK[c[0]],) + tuple(_tuple_key(c[1]) if len(c) > 1 else ())


def _canonical_component(kind: str, tup: SignedTuple | None) -> Component:
    if kind == "V":
        return ("V",)
    if kind not in ("P", "C") or tup is None:
        raise IllFormedError(f"bad component ({kind!r}, {tup!r})")
    if kind == "P":
        check_standard_path(tup)
        return ("P", path_canonical(tup))
    check_standard_cycle(tup)
    if arc_sum(tup) < 3:
        raise IllFormedError(f"cycle component needs at least 3 arcs, got {format_type(tup)}")
    return ("C", cycle_canonical(tup))


class Digraph2Spec:
    """Disjoint union of oriented paths, cycles and isolated vertices.

    Built with its components canonicalised and sorted; it compares and hashes
    by them alone.  ``order``, ``isolated``, the core and the repetition
    factorial (the orderings of equal core components) follow and are stored.
    """

    __slots__ = ("components", "_core", "_repetitions", "order", "isolated")

    def __init__(self, components: tuple[Component, ...]):
        # canonicalize on entry so equal components compare equal no matter the
        # gauge they were written in; multiplicity grouping depends on this
        canon = tuple(_canonical_component(c[0], c[1] if len(c) > 1 else None)
                      for c in components)
        comps = tuple(sorted(canon, key=_component_key))
        core = tuple(c for c in comps if c[0] != "V")
        rep = 1
        for group in Counter(core).values():
            rep *= factorial(group)
        for name, value in (("components", comps), ("_core", core), ("_repetitions", rep),
                            ("order", sum(_component_order(c) for c in comps)),
                            ("isolated", len(comps) - len(core))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self.components == other.components

    def __hash__(self):
        return hash((self.components,))

    def __repr__(self):
        return f"Digraph2Spec(components={self.components!r})"

    def __reduce__(self):
        return Digraph2Spec, (self.components,)

    def core(self) -> tuple[Component, ...]:
        """Non-trivial components, vertex components stripped."""
        return self._core

    def render(self) -> str:
        parts = []
        for c in self.components:
            if c[0] == "V":
                parts.append("V")
            else:
                parts.append(f"{c[0]}{format_type(c[1])}")
        return ";".join(parts)

    @staticmethod
    def parse(text: str) -> "Digraph2Spec":
        if not text:
            raise ParseError("empty pattern", 0)
        comps: list[Component] = []
        offset = 0
        for part in text.split(";"):
            if part == "V":
                comps.append(("V",))
            elif part[:1] in {"P", "C"} and len(part) > 1:
                try:
                    tup = parse_type(part[1:])
                except ParseError as exc:
                    raise ParseError(exc.message, offset + 1 + exc.offset) from None
                try:
                    comps.append(_canonical_component(part[0], tup))
                except IllFormedError as exc:
                    raise ParseError(str(exc), offset) from None
            else:
                raise ParseError(f"bad component {part!r}", offset)
            offset += len(part) + 1
        return Digraph2Spec(tuple(comps))


def _span_tables(T: Tournament, comps: tuple[Component, ...]) -> dict[Component, dict[int, int]]:
    """Span table of every path and cycle component in ``comps``.

    A table maps a vertex mask to the number of copies of its component
    using exactly that vertex set.  All paths share one open walk from every
    start and all cycles one closed walk, each start alone; both are summed
    per used mask, then paths halve symmetric types and cycles divide by
    delta * t, as count_paths/count_cycles do.  ``census._word_tallies``
    picks the walk, so a spanning cycle meets in the middle from order 7 on.
    """
    tables: dict[Component, dict[int, int]] = {}
    for kind, per_copy in (("P", _per_path), ("C", _per_cycle)):
        group = tuple(c for c in comps if c[0] == kind)
        if not group:
            continue
        words = _component_words(group)
        readings = _word_tallies(T, words, closed=kind == "C")
        for comp, word in zip(group, words):
            tally = readings.get(word, {})
            per = {r: per_copy(r, comp[1]) for r in set(tally.values())}
            tables[comp] = {mask: per[r] for mask, r in tally.items()}
    return tables


@lru_cache(maxsize=64)
def _component_words(comps: tuple[Component, ...]) -> tuple[tuple[int, int], ...]:
    """(arc count, packed signs) of each component, the words of _word_tallies."""
    return tuple((arc_sum(tup), word_int(tup)) for _, tup in comps)


def _span_table(T: Tournament, comp: Component) -> dict[int, int]:
    """mask -> number of copies of comp using exactly that vertex set."""
    return _span_tables(T, (comp,))[comp]


@lru_cache(maxsize=1 << 12)
def _negated(comp: Component) -> Component:
    """The component with every arc reversed, canonical."""
    kind, tup = comp
    return (kind, (path_canonical if kind == "P" else cycle_canonical)(negate(tup)))


class CopyCounter:
    """Copy counts of patterns in one host, span tables cached.

    ``count`` builds the tables of one pattern as it needs them;
    ``counts`` builds every table a list of patterns is missing in one open
    and one closed walk first, so components that share a sign prefix share
    their DP steps.

    ``reversal()`` counts in the reversed host without a walk of its own.  A
    copy of a component in the reversal is, on the same vertex set, a copy of
    its negation in the host, so its table of a component is this counter's
    table of the negated one, built in this counter's walks.
    """

    def __init__(self, T: Tournament):
        self.T = T
        self._tables: dict[Component, dict[int, int]] = {}
        self._forward: CopyCounter | None = None  # a reversal's host counter

    def reversal(self) -> "CopyCounter":
        """A counter of the same class over ``T.complement()`` reading this
        counter's tables of the negated components."""
        rev = type(self)(self.T.complement())
        rev._forward = self
        return rev

    def _table(self, comp: Component) -> dict[int, int]:
        tbl = self._tables.get(comp)
        if tbl is None:
            fwd = self._forward
            tbl = self._tables[comp] = (_span_table(self.T, comp) if fwd is None
                                        else fwd._table(_negated(comp)))
        return tbl

    def counts(self, patterns: list[Digraph2Spec]) -> list[int]:
        """Copy counts of every pattern, in order."""
        missing = dict.fromkeys(c for H in patterns if H.order <= self.T.n
                                for c in H.core() if c not in self._tables)
        host = self
        if self._forward is not None:  # the host counter builds the negations
            host = self._forward
            missing = dict.fromkeys(neg for neg in map(_negated, missing) if neg not in host._tables)
        if missing:
            host._tables.update(_span_tables(host.T, tuple(missing)))
        return [self.count(H) for H in patterns]

    def count(self, H: Digraph2Spec) -> int:
        n = self.T.n
        if H.order > n:
            raise TypeTooLongError(f"pattern needs {H.order} vertices, host has {n}")
        tables = [self._table(c) for c in H.core()]

        if len(tables) == 1:  # nothing to place apart, and no repetitions
            return sum(tables[0].values()) * comb(n - H.order + H.isolated, H.isolated)
        # ordered placements of the core components on disjoint vertex sets,
        # tallied by the union of the masks placed so far; the last component
        # only needs the total
        placed = {0: 1}
        for table in tables[:-1]:
            nxt: dict[int, int] = {}
            for used, c in placed.items():
                for mask, t in table.items():
                    if not mask & used:
                        u = used | mask
                        nxt[u] = nxt.get(u, 0) + c * t
            placed = nxt
        ordered = sum(c * t for used, c in placed.items()
                      for mask, t in tables[-1].items() if not mask & used) if tables else 1
        rep = H._repetitions
        if ordered % rep:
            raise DivisibilityViolationError(
                f"{ordered} ordered placements not divisible by {rep}"
            )
        return (ordered // rep) * comb(n - H.order + H.isolated, H.isolated)


def count_copies(T: Tournament, H: Digraph2Spec) -> int:
    return CopyCounter(T).count(H)


def check_complement_invariance(T: Tournament, H: Digraph2Spec) -> tuple[int, int]:
    """Copy counts of H in T and in the arc-reversed tournament.

    Reversal maps a copy of a path or cycle to a copy of its negation on the
    same vertex set, so the second count is that of -H in T, read through
    ``CopyCounter.reversal``.  The negation need not have the component's
    canonical type (P(2,-1) is canonically P(1,-2), its negation P(-1,2)), so
    the two counts agree by the paper's theorem, not by definition.
    """
    counter = CopyCounter(T)
    return counter.count(H), counter.reversal().count(H)


def _out_star_count(T: Tournament, leaves: int) -> int:
    """Copies of the out-star with the given number of leaves (one center
    dominating an unordered leaf set)."""
    return sum(comb(T.out_degree(v), leaves) for v in range(T.n))


def star_counterexample(n: int) -> tuple[int, int]:
    """Out-star counts in a tournament pair showing stars are not reversal
    invariant: the n-leaf out-star appears once in the construction and never
    in its reversal.

    The host on n + 1 vertices carries a directed cycle through the first n
    vertices, all remaining low-to-high arcs among them, and a final vertex
    beating everyone.  Only that vertex reaches out-degree n, and after
    reversal no vertex keeps n out-neighbours.
    """
    if n < 3:
        raise TypeTooLongError("star construction needs at least 3 leaves")
    order = n + 1
    bits = 0
    for i in range(n):
        for j in range(i + 1, n):
            bits |= 1 << pair_index(i, j, order)
    bits ^= 1 << pair_index(0, n - 1, order)  # wrap arc n-1 -> 0 closes the cycle
    T = Tournament(order, bits)  # pairs (v, n) stay 0: the last vertex beats all
    rev = T.complement()
    return _out_star_count(T, n), _out_star_count(rev, n)


def all_digraph_specs(max_order: int) -> list[Digraph2Spec]:
    """Every pattern whose total order is at most ``max_order``."""
    comps: list[Component] = [("V",)]
    for total in range(1, max_order):
        comps.extend(("P", t) for t in path_type_classes(total))
    for total in range(3, max_order + 1):
        comps.extend(("C", t) for t in cycle_type_classes(total))
    comps.sort(key=_component_key)

    out: list[Digraph2Spec] = []

    def rec(start: int, left: int, chosen: list[Component]) -> None:
        if chosen:
            out.append(Digraph2Spec(tuple(chosen)))
        for i in range(start, len(comps)):
            k = _component_order(comps[i])
            if k <= left:
                chosen.append(comps[i])
                rec(i, left - k, chosen)
                chosen.pop()

    rec(0, max_order, [])
    return out


def random_digraph_spec(order: int, seed: int) -> Digraph2Spec:
    """Deterministic pseudo-random pattern of exactly the given order."""
    stream = seed_stream(seed)
    comps: list[Component] = []
    left = order
    while left:
        w = next(stream)
        k = 1 + w % left
        if k == 1:
            comps.append(("V",))
        elif k == 2:
            comps.append(("P", (1,)))
        else:
            kind = "C" if next(stream) & 1 else "P"
            arcs = k if kind == "C" else k - 1
            runs = _cyclic_runs_from_word if kind == "C" else _runs_from_word
            comps.append((kind, runs(next(stream), arcs)))
        left -= k
    return Digraph2Spec(tuple(comps))

