"""Exact counting of oriented paths, cycles and their enumerations.

Two engines live here.  One subset DP, ``_word_dp``, counts vertex sequences
whose arc signs spell any word of a set, walked as one trie so that words
sharing a prefix share its steps, or every word of one length; paths halve
the tally of symmetric types, cycles close back to the start and divide by
delta * t, the readings each cycle of the type contributes.

The census of m-vertex paths and m-arc cycles reads each cycle from its
lowest vertex: a closed walk from each start s over the vertices above it.
Every such cycle has exactly two readings from there, one per direction, so
each cycle class tally is halved.  Every path of m vertices closes into
exactly one m-arc cycle, through the arc between its ends, so cutting each
closed reading at each of its m arcs yields every path sequence exactly once,
and no open walk is needed.  The spanning census is the walk from vertex 0.

Only the first step and the closing arc of the walk from vertex 0 touch it,
and no other walk touches it at all, so one census counts every tournament
that differs from T only in vertex 0's arcs.
Each count is then a packed int with one lane per tournament (``_Lanes``):
lane x is T with its serial bits 0..n-2, vertex 0's arcs, flipped by x, and
is ``n!.bit_length()`` bits wide, since a lane counts at most n! vertex
sequences.  The first step and the closing test are masked per vertex by
the lanes in which that arc has the wanted sign; every step between runs on
the shared arcs, unchanged.  A single tournament is the one-lane case: its
masks are just its own arcs at the start, so its counts are plain ints.

The brute-force oracle classifies raw permutations and is kept deliberately
naive so the two engines can check each other.  Path classes are cut from
its Hamiltonian cycles, one class per cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from math import factorial
from typing import Iterable, Iterator, Sequence

from .errors import (
    BadSubsetError,
    DivisibilityViolationError,
    ParityViolationError,
    ScopeTooLargeError,
    TooShortError,
    TypeTooLongError,
)
from .tournaments import Tournament
from .type_algebra import (
    SignedTuple,
    arc_sum,
    check_standard_cycle,
    check_standard_path,
    cycle_canonical,
    delta,
    is_symmetric,
    neg_reverse,
    path_canonical,
    period_info,
    standard_tuples,
)

ORACLE_MAX_ORDER = 8
CENSUS_MAX_ORDER = 10

Arc = tuple[int, int]

__all__ = [
    "ORACLE_MAX_ORDER",
    "CENSUS_MAX_ORDER",
    "CensusReport",
    "PathClass",
    "ClassPartition",
    "classify_enumeration",
    "classify_cycle",
    "count_enumerations",
    "enumeration_word_counts",
    "count_paths",
    "count_cycles",
    "census",
    "oracle_census",
    "oracle_cycle_sets",
    "clones",
    "path_classes",
    "path_type_classes",
    "cycle_type_classes",
    "expand_signs",
    "word_int",
]


# ---------------------------------------------------------------------------
# sign words


def expand_signs(tup: Sequence[int]) -> tuple[int, ...]:
    """Block tuple to per-arc sign word: (2, -1) -> (1, 1, -1)."""
    out: list[int] = []
    for x in tup:
        out.extend([1 if x > 0 else -1] * abs(x))
    return tuple(out)


def word_int(tup: Sequence[int]) -> int:
    """Sign word packed into an int, bit k set when arc k runs forward."""
    w = 0
    pos = 0
    for x in tup:
        if x > 0:
            w |= ((1 << x) - 1) << pos
        pos += abs(x)
    return w


def _runs_from_word(w: int, length: int) -> SignedTuple:
    runs: list[int] = []
    for i in range(length):
        s = 1 if w >> i & 1 else -1
        if runs and (runs[-1] > 0) == (s > 0):
            runs[-1] += s
        else:
            runs.append(s)
    return tuple(runs)


def _cyclic_runs_from_word(w: int, length: int) -> SignedTuple:
    runs = list(_runs_from_word(w, length))
    if len(runs) > 1 and (runs[0] > 0) == (runs[-1] > 0):
        runs = [runs[-1] + runs[0]] + runs[1:-1]
    return tuple(runs)


@lru_cache(maxsize=None)
def _path_word_classes(n: int) -> tuple[SignedTuple, ...]:
    """Canonical path type for every (n-1)-arc sign word, indexed by word."""
    return tuple(path_canonical(_runs_from_word(w, n - 1)) for w in range(1 << (n - 1)))


@lru_cache(maxsize=None)
def _cycle_word_classes(n: int) -> tuple[SignedTuple, ...]:
    """Canonical cycle type for every n-arc cyclic sign word."""
    return tuple(cycle_canonical(_cyclic_runs_from_word(w, n)) for w in range(1 << n))


@lru_cache(maxsize=None)
def path_type_classes(total: int) -> tuple[SignedTuple, ...]:
    """Canonical representatives of all path types with the given arc sum."""
    return tuple(sorted({path_canonical(t) for t in standard_tuples(total, "path")}))


@lru_cache(maxsize=None)
def cycle_type_classes(total: int) -> tuple[SignedTuple, ...]:
    """Canonical representatives of all cycle types with the given arc sum."""
    return tuple(sorted({cycle_canonical(t) for t in standard_tuples(total, "cycle")}))


# ---------------------------------------------------------------------------
# classification


def _checked_sequence(T: Tournament, seq: Sequence[int], minimum: int) -> tuple[int, ...]:
    vs = tuple(seq)
    if len(vs) < minimum:
        raise TooShortError(f"need at least {minimum} vertices, got {len(vs)}")
    if len(set(vs)) != len(vs) or not all(0 <= v < T.n for v in vs):
        raise BadSubsetError(f"sequence {vs} is not a set of distinct vertices of T")
    return vs


def _word_of(T: Tournament, vs: Sequence[int]) -> int:
    w = 0
    for i in range(len(vs) - 1):
        if T.has_arc(vs[i], vs[i + 1]):
            w |= 1 << i
    return w


def _closed_word_of(T: Tournament, vs: Sequence[int]) -> int:
    """Sign word of a closed reading: the path word plus the arc back to vs[0]."""
    return _word_of(T, vs) | T.has_arc(vs[-1], vs[0]) << (len(vs) - 1)


def classify_enumeration(T: Tournament, seq: Sequence[int]) -> SignedTuple:
    """Block tuple read off a vertex sequence, as-is (not canonicalized)."""
    vs = _checked_sequence(T, seq, 2)
    return _runs_from_word(_word_of(T, vs), len(vs) - 1)


def classify_cycle(T: Tournament, seq: Sequence[int]) -> SignedTuple:
    """Canonical cycle type of a closed vertex sequence."""
    vs = _checked_sequence(T, seq, 3)
    return cycle_canonical(_cyclic_runs_from_word(_closed_word_of(T, vs), len(vs)))


# ---------------------------------------------------------------------------
# subset DP

# DP state key: (used-vertex mask << 4) | last vertex.  Orders cap at 16, so
# the last vertex always fits in the low nibble, and stepping to a new vertex
# v adds (1 << (v + 4)) + v to the key with the last vertex cleared.


def _step_table(low: int) -> tuple[tuple[int, ...], ...]:
    """Key offsets of the vertices low..low+7 set in each candidate byte."""
    table: list[tuple[int, ...]] = [()]
    for v in range(low, low + 8):  # the bytes with bit v - low as their top bit
        table += [steps + ((1 << (v + 4)) + v,) for steps in table]
    return tuple(table)


_LOW_STEPS, _HIGH_STEPS = _step_table(0), _step_table(8)


def _advance(states: dict[int, int], masks: Sequence[int]) -> dict[int, int]:
    nxt: dict[int, int] = {}
    get = nxt.get
    for key, c in states.items():
        last = key & 15
        base = key - last
        cand = masks[last] & ~(key >> 4)
        for s in _LOW_STEPS[cand & 255]:
            k2 = base + s
            nxt[k2] = get(k2, 0) + c
        if cand > 255:
            for s in _HIGH_STEPS[cand >> 8]:
                k2 = base + s
                nxt[k2] = get(k2, 0) + c
    return nxt


# A word trie node is (children, ends): children holds (sign bit, node) pairs,
# ends holds (closing bit, word) pairs for the words whose steps end there.

@lru_cache(maxsize=64)
def _trie(length: int | None, words: tuple[tuple[int, int], ...] | None, closed: bool):
    """Trie of ``words``, (arc count, packed signs) pairs.  With ``None`` it
    holds every word of ``length`` arcs: one node per depth, shared by all
    prefixes, whose ends carry no word, so the walk keys each by its signs.
    The last arc of a closed word is its closing bit, not a step."""
    if words is None:
        node = ((), ((0, None), (1, None)) if closed else ((0, None),))
        for _ in range(length - 1 if closed else length):
            node = (((0, node), (1, node)), ())
        return node
    items = [(w, n - 1 if closed else n, w >> (n - 1) & 1 if closed else 0, (n, w))
             for n, w in words]

    def node_of(items: list, depth: int):
        children = []
        for bit in (0, 1):
            below = [it for it in items if it[1] > depth and it[0] >> depth & 1 == bit]
            if below:
                children.append((bit, node_of(below, depth + 1)))
        return tuple(children), tuple((it[2], it[3]) for it in items if it[1] == depth)

    return node_of(items, 0)


@lru_cache(maxsize=1 << 12)
def _arc_lanes(n: int, count: int, out_mask: int, in_mask: int) -> tuple:
    """Layout of ``count`` lanes at order n, and the lanes of the arcs at a
    start vertex with these out- and in-masks in lane 0: the lane width, the
    packed 1 of every lane, then per sign the first step, as (state key
    offset, packed 1s) of each vertex it reaches in some lane (seed), and
    per sign and vertex the full lanes in which the closing arc has that
    sign (close)."""
    width = factorial(n).bit_length()
    ones = sum(1 << width * i for i in range(count))
    full = (1 << width) - 1
    flips = [sum(1 << width * i for i in range(count) if v and i >> (v - 1) & 1)
             for v in range(n)]  # lane i flips vertex 0's arc to v where bit v-1 of i is set
    fwd, back = (tuple((ones if mask >> v & 1 else 0) ^ flips[v] for v in range(n))
                 for mask in (out_mask, in_mask))
    seed = tuple(tuple(((1 << (v + 4)) + v, c) for v, c in enumerate(lanes) if c)
                 for lanes in (back, fwd))
    return width, ones, seed, (tuple(f * full for f in fwd), tuple(b * full for b in back))


class _Lanes:
    """Tournaments that differ only in the arcs at the start vertex of a
    closed walk, one lane each of every packed count of the walk.

    Lane i is ``T`` with vertex 0's arcs, serial bits 0..n-2, flipped by i:
    the tournament ``T.bits ^ i``; more than one lane needs start 0.  It is
    bits [i*width, (i+1)*width) of a count.  ``seed`` and ``close`` hold, per
    sign, the lanes of the first step and of the closing arc.
    """

    __slots__ = ("T", "count", "width", "ones", "seed", "close")

    def __init__(self, T: Tournament, count: int = 1, start: int = 0):
        self.T, self.count = T, count
        # the arcs start -> v and v -> start; the order-0 tournament has none
        masks = (T.out_masks[start], T.in_masks[start]) if T.n else (0, 0)
        self.width, self.ones, self.seed, self.close = _arc_lanes(T.n, count, *masks)

    @classmethod
    def runs(cls, n: int) -> Iterator[_Lanes]:
        """Every tournament of order n in serial order, in runs of 2^(n-1)
        lanes that share every arc off vertex 0."""
        shift = n - 1
        for high in range(1 << (n * (n - 1) // 2 - shift)):
            yield cls(Tournament(n, high << shift), 1 << shift)

    def tournament(self, i: int) -> Tournament:
        return Tournament(self.T.n, self.T.bits ^ i) if i else self.T

    def unpack(self, value: int) -> list[int]:
        full = (1 << self.width) - 1
        return [value >> self.width * i & full for i in range(self.count)]


_OPEN = ((-1,) * 16, (-1,) * 16)  # the closing lanes of an open walk: every end counts


def _word_dp(T: Tournament, starts: Iterable[int], length: int | None = None,
             words: Iterable[tuple[int, int]] | None = None, closed: bool = False,
             by_mask: bool = False, lanes: _Lanes | None = None) -> dict:
    """The subset DP behind every count: vertex sequences from ``starts``
    whose arc signs spell a word (bit i set when arc i runs forward).

    ``words`` is a set of (arc count, packed signs) pairs of any lengths;
    ``None`` means every word of ``length`` arcs.  The set is walked as one
    trie, so words that share a prefix share its DP steps, and a word's tally
    is read at the node where it ends.  With ``closed`` each start runs alone
    and a word's last arc is the closing test back to it rather than a step;
    the first step and that test take their lanes from ``lanes`` (a closed
    walk from vertex 0 only), by default the one lane of T at each start.  A
    closed walk over every word steps only to vertices above its start, so
    each cycle is read from its lowest vertex alone.
    Returns the tally per word, as given or packed with ``None``; with
    ``by_mask`` a dict per word from used-vertex mask to tally.  Zero tallies
    are left out.
    """
    out_masks, in_masks = T.out_masks, T.in_masks
    step_masks = (in_masks, out_masks)
    root = _trie(length, None if words is None else tuple(words), closed)
    counts: dict = {}
    # depth-first over the trie, carrying the signs walked so far; a node's
    # states are dropped once its children exist, so a single word holds two
    # levels, not the whole path
    if closed:  # the first step is seeded with its lanes; no closed word ends at the root
        stack = []
        for s in starts:
            ln = _Lanes(T, start=s) if lanes is None else lanes
            below = (1 << s) - 1 if words is None else 0  # never visited: marked used
            base = ((1 << s) | below) << 4
            for bit, child in root[0]:
                states = {base + step: c for step, c in ln.seed[bit] if not step >> 4 & below}
                if states:
                    stack.append((child, 1, bit, states, ln.close))
    else:
        stack = [(root, 0, 0, {((1 << v) << 4) | v: 1 for v in starts}, _OPEN)]
    while stack:
        (children, ends), depth, signs, states, close = stack.pop()
        for bit, child in children:
            nxt = _advance(states, step_masks[bit])
            if nxt:
                stack.append((child, depth + 1, signs | bit << depth, nxt, close))
        for bit, word in ends:
            if word is None:
                word = signs | bit << depth
            tally = counts.setdefault(word, {}) if by_mask else counts
            ok = close[bit]
            for key, c in states.items():
                c &= ok[key & 15]
                if c:
                    k = key >> 4 if by_mask else word
                    tally[k] = tally.get(k, 0) + c
            if by_mask and not tally:
                del counts[word]
    return counts


def count_enumerations(T: Tournament, alpha: Iterable[int]) -> int:
    """Number of vertex sequences (over all subsets of the right size) whose
    arc-sign word spells out ``alpha`` exactly."""
    a = check_standard_path(alpha)
    if arc_sum(a) + 1 > T.n:
        raise TypeTooLongError(f"type {a} needs {arc_sum(a) + 1} vertices, host has {T.n}")
    return sum(_word_dp(T, range(T.n), words=((arc_sum(a), word_int(a)),)).values())


def enumeration_word_counts(T: Tournament, m: int, lanes: _Lanes | None = None) -> dict[int, int]:
    """Enumeration counts for every sign word of length m-1 in one sweep.

    Returns a dict from packed word to count; absent words have count 0.
    With ``lanes`` (over T) every count is packed, one lane per tournament.
    """
    if not 2 <= m <= T.n:
        raise TypeTooLongError(f"word sweep needs 2 <= m <= {T.n}, got {m}")
    return _length_census(T, m, lanes)[0]


def _halved(readings: int, tup: SignedTuple, lanes: _Lanes | None = None) -> int:
    """Half of every lane of ``readings``, each checked even first."""
    if readings & (1 if lanes is None else lanes.ones):
        odd = readings if lanes is None else next(r for r in lanes.unpack(readings) if r & 1)
        raise ParityViolationError(f"odd reading count {odd} for {tup}")
    return readings >> 1


def _per_path(e: int, alpha: SignedTuple, lanes: _Lanes | None = None) -> int:
    """Paths behind ``e`` enumerations: symmetric types read each from both ends."""
    return _halved(e, alpha, lanes) if is_symmetric(alpha) else e


def _f_from_words(words: dict[int, int], alpha: SignedTuple, lanes: _Lanes | None = None) -> int:
    """Path count of ``alpha`` from a table of word tallies."""
    return _per_path(words.get(word_int(alpha), 0), alpha, lanes)


def count_paths(T: Tournament, alpha: Iterable[int]) -> int:
    """Number of oriented paths (arc sets) of the given type, spanning or not.

    A path read backwards spells the negated reversal of its forward word, so
    each path has exactly one enumeration per orientation of the type;
    symmetric types therefore count every path twice.
    """
    a = check_standard_path(alpha)
    return _per_path(count_enumerations(T, a), a)


def _per_cycle(readings: int, beta: SignedTuple) -> int:
    """Cycles behind ``readings`` closed readings of the word of ``beta``."""
    divisor = delta(beta) * period_info(beta).t
    if readings % divisor:
        raise DivisibilityViolationError(
            f"{readings} closed readings of {beta} not divisible by {divisor}"
        )
    return readings // divisor


def count_cycles(T: Tournament, beta: Iterable[int]) -> int:
    """Number of oriented cycles (arc sets) of the given type, spanning or not.

    Every cycle of the type yields delta * t closed readings of the canonical
    sign word (t rotations per readable direction, both directions for a
    symmetric type, all starts for a circuit), so the reading tally divides
    exactly.
    """
    b = check_standard_cycle(beta)
    m = arc_sum(b)
    if m > T.n:
        raise TypeTooLongError(f"type {b} needs {m} vertices, host has {T.n}")
    if m < 3:
        return 0  # tournaments are loopless and have no 2-cycles
    canon = cycle_canonical(b)
    readings = sum(_word_dp(T, range(T.n), words=((m, word_int(canon)),), closed=True).values())
    return _per_cycle(readings, canon)


def _cut(closed: dict[int, int], n: int) -> dict[int, int]:
    """Path word tallies from closed n-arc readings: each reading ``w`` cut at
    each of its n arcs gives n path words, the n-1 arcs read from the cut."""
    low = (1 << (n - 1)) - 1
    paths: dict[int, int] = {}
    for w, c in closed.items():
        ww = w | w << n
        for j in range(n):
            p = ww >> j & low
            paths[p] = paths.get(p, 0) + c
    return paths


def _length_census(T: Tournament, m: int, lanes: _Lanes | None = None
                   ) -> tuple[dict[int, int], dict[SignedTuple, int]]:
    """Word tallies of the paths of m vertices and the count of every cycle
    type of m arcs, zeros included (2 <= m <= n); packed per lane with
    ``lanes`` (over T).

    Each cycle has exactly two readings from its lowest vertex, one per
    direction, so the closed words of the walks from every start are bucketed
    by class and halved.  Only the walk from vertex 0 meets vertex 0's arcs;
    the walks from starts 1..n-m count the same in every lane.  Each path
    sequence closes, through the arc between its ends, into exactly one of
    these readings rotated, so cutting the closed words gives every path word.
    Two vertices close no cycle: each sign word is read off C(n, 2) pairs.
    """
    n = T.n
    ones = 1 if lanes is None else lanes.ones
    if m == 2:
        return dict.fromkeys((0, 1), n * (n - 1) // 2 * ones), {}
    closed = _word_dp(T, (0,), m, closed=True, lanes=lanes)
    for w, c in _word_dp(T, range(1, n - m + 1), m, closed=True).items():
        closed[w] = closed.get(w, 0) + c * ones
    readings = dict.fromkeys(cycle_type_classes(m), 0)
    classes = _cycle_word_classes(m)
    for w, c in closed.items():
        readings[classes[w]] += c
    return _cut(closed, m), {cls: _halved(r, cls, lanes) for cls, r in readings.items()}


def _spanning_path_counts(T: Tournament, paths: Sequence[int],
                          lanes: _Lanes | None = None) -> dict[int, int]:
    """Enumeration tallies of the given Hamiltonian path words alone (order
    2 and up), from the closed walk from vertex 0 over just the readings that
    cut into them: the rotations of each path word closed by an arc of either
    sign.  A single tournament takes the open walk from every start over the
    words themselves instead, which expands about a third of the states."""
    n = T.n
    if lanes is None or lanes.count == 1:
        opened = _word_dp(T, range(n), words=tuple((n - 1, p) for p in paths))
        return {p: opened.get((n - 1, p), 0) for p in paths}
    full = (1 << n) - 1
    rotations = {(w << j | w >> (n - j)) & full
                 for p in paths for w in (p, p | 1 << (n - 1)) for j in range(n)}
    closed = _word_dp(T, (0,), words=tuple((n, w) for w in sorted(rotations)),
                      closed=True, lanes=lanes)
    cut = _cut({w: c for (_, w), c in closed.items()}, n)
    return {p: cut.get(p, 0) for p in paths}


# ---------------------------------------------------------------------------
# census reports


@dataclass
class CensusReport:
    """Full type-to-count maps for one tournament, explicit zeros included."""

    order: int
    path_counts: dict[SignedTuple, int]
    cycle_counts: dict[SignedTuple, int]

    def to_json_dict(self) -> dict:
        from .type_algebra import format_type

        return {
            "n": self.order,
            "paths": {format_type(k): v for k, v in sorted(self.path_counts.items())},
            "cycles": {format_type(k): v for k, v in sorted(self.cycle_counts.items())},
        }


def census(T: Tournament) -> CensusReport:
    """DP census of all Hamiltonian path and cycle types of T."""
    n = T.n
    if n > CENSUS_MAX_ORDER:
        raise ScopeTooLargeError(
            f"full census capped at order {CENSUS_MAX_ORDER}; "
            "use count_paths/count_cycles for single types"
        )
    path_counts: dict[SignedTuple, int] = {}
    cycle_counts: dict[SignedTuple, int] = {}
    if n >= 2:
        words, cycle_counts = _length_census(T, n)
        for cls in path_type_classes(n - 1):
            path_counts[cls] = _f_from_words(words, cls)
    return CensusReport(n, path_counts, cycle_counts)


def _closed_sequences(n: int) -> Iterator[tuple[int, ...]]:
    """Every Hamiltonian cycle on vertices 0..n-1 once, as the reading from
    vertex 0 whose second vertex is below its last; plain permutations."""
    for rest in permutations(range(1, n)):
        if rest[0] > rest[-1]:
            continue
        yield (0,) + rest


@lru_cache(maxsize=1)
def _hamiltonian_cycles(T: Tournament) -> tuple[tuple[int, tuple[Arc, ...]], ...]:
    """Every Hamiltonian cycle of T (order 3 and up) once, as the closed word
    and the arcs of its reading from ``_closed_sequences``.  Cached for the
    last T alone: a class-size check asks for every path type of one T."""
    return tuple((_closed_word_of(T, vs), _closed_arcs(T, vs)) for vs in _closed_sequences(T.n))


def _oracle_guard(T: Tournament) -> None:
    if T.n > ORACLE_MAX_ORDER:
        raise ScopeTooLargeError(f"brute-force oracle capped at order {ORACLE_MAX_ORDER}")


def oracle_census(T: Tournament) -> CensusReport:
    """Brute-force census: classify every permutation, no DP involved.

    Paths are deduplicated by keeping the endpoint-ordered reading of each
    arc set; cycles fix vertex 0 first and keep one direction.
    """
    _oracle_guard(T)
    n = T.n
    path_counts: dict[SignedTuple, int] = {}
    if n >= 2:
        path_counts = {cls: 0 for cls in path_type_classes(n - 1)}
        classes = _path_word_classes(n)
        for perm in permutations(range(n)):
            if perm[0] > perm[-1]:
                continue
            path_counts[classes[_word_of(T, perm)]] += 1
    cycle_counts: dict[SignedTuple, int] = {}
    if n >= 3:
        cycle_counts = {cls: 0 for cls in cycle_type_classes(n)}
        classes = _cycle_word_classes(n)
        for vs in _closed_sequences(n):
            cycle_counts[classes[_closed_word_of(T, vs)]] += 1
    return CensusReport(n, path_counts, cycle_counts)


def oracle_cycle_sets(T: Tournament) -> dict[SignedTuple, set[frozenset[Arc]]]:
    """Hamiltonian cycles of T grouped by canonical type, each cycle as its
    arc set.  Brute force; independent of the DP engine."""
    _oracle_guard(T)
    n = T.n
    out: dict[SignedTuple, set[frozenset[Arc]]] = {}
    if n < 3:
        return out
    classes = _cycle_word_classes(n)
    for w, arcs in _hamiltonian_cycles(T):
        out.setdefault(classes[w], set()).add(frozenset(arcs))
    return out


def _closed_arcs(T: Tournament, vs: tuple[int, ...]) -> tuple[Arc, ...]:
    return tuple((a, b) if T.has_arc(a, b) else (b, a) for a, b in zip(vs, vs[1:] + vs[:1]))


# ---------------------------------------------------------------------------
# clone structure and generating-path classes


def clones(T: Tournament, seq: Sequence[int]) -> list[list[int]]:
    """Clone classes of a closed cycle enumeration.

    Vertices are clones when they occupy the same offset in similar blocks;
    for a type with repetition count t over m arcs that means positions
    congruent mod m // t, giving m // t classes of t vertices each.
    """
    vs = _checked_sequence(T, seq, 3)
    m = len(vs)
    t = period_info(_cyclic_runs_from_word(_closed_word_of(T, vs), m)).t
    step = m // t
    return [[vs[j] for j in range(i, m, step)] for i in range(step)]


@dataclass(frozen=True)
class PathClass:
    """All paths of one type that close into the same cycle."""

    paths: frozenset[frozenset[Arc]]
    cycle_arcs: frozenset[Arc]
    cycle_type: SignedTuple


@dataclass
class ClassPartition:
    alpha: SignedTuple
    classes: tuple[PathClass, ...]


def path_classes(T: Tournament, alpha: Iterable[int]) -> ClassPartition:
    """Partition the spanning paths of type ``alpha`` by generated cycle.

    Each Hamiltonian path closes into one cycle via the arc between its
    endpoints; paths landing on the same cycle form a class.  The classes
    are cut from the oracle's cycles, so the order is capped like the oracle's.
    """
    _oracle_guard(T)
    a = check_standard_path(alpha)
    n = T.n
    if n < 3:
        raise TooShortError("generated cycles need at least 3 vertices")
    if arc_sum(a) + 1 != n:
        raise TypeTooLongError(f"type {a} is not spanning for order {n}")
    words = {word_int(a), word_int(neg_reverse(a))}
    low = (1 << (n - 1)) - 1
    types = _cycle_word_classes(n)
    classes = []
    for w, arcs in _hamiltonian_cycles(T):
        ww = w | w << n
        # the cut at j reads the path from arc j on, as in ``_cut``; it drops arc j - 1
        cuts = [arcs[j - 1] for j in range(n) if (ww >> j & low) in words]
        if cuts:
            cycle = frozenset(arcs)
            classes.append(PathClass(frozenset(cycle - {arc} for arc in cuts), cycle, types[w]))
    classes.sort(key=lambda c: sorted(c.cycle_arcs))
    return ClassPartition(a, tuple(classes))
