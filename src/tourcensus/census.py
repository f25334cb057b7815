"""Exact counting of oriented paths, cycles and their enumerations.

Two engines live here.  A subset DP counts the vertex sequences whose arc
signs spell a word, in two walks over one step, ``_advance``: a word set as
one trie, words sharing a prefix sharing its steps (``_word_set_walk``), or
every closed word of one length breadth first, one count lane per sign prefix
(``_every_word_walk``).  Paths halve the tally of symmetric types; cycles
close back to the start and divide by delta * t, the readings per cycle.
``_word_tallies`` walks a word set from every start, and from order 7 on a
spanning closed word there meets in the middle (``_spanning_readings``).

The census of m-vertex paths and m-arc cycles (``_length_census``), where
every sweep reads a run's word tallies, reads each cycle from its lowest
vertex: a closed walk from each start s over the vertices above it; the
spanning census is the walk from vertex 0.  Every path of m vertices closes
into exactly one m-arc cycle, through the arc between its ends, so cutting
each closed reading at each of its m arcs yields every path sequence exactly
once, and no open walk is needed.  Each cycle and each path leaves two
readings in its class, one per direction, so every class tally is halved.

Only the first step and the closing arc of the walk from vertex 0 touch it,
and no other walk touches it at all, so one census counts every tournament
that differs from T only in vertex 0's arcs: a run (``_Lanes``), given as the
starts of a closed walk in place of vertex 0.  Each count is then a packed
int with one lane per tournament: lane x is T with its serial bits 0..n-2,
vertex 0's arcs, flipped by x, and is ``n!.bit_length()`` bits wide, since a
lane counts at most n! vertex sequences.  The first step and the closing test
are masked per vertex by the lanes in which that arc has the wanted sign;
every step between runs on the shared arcs, unchanged.  A single tournament
is the one-lane case: its masks are just its own arcs at the start, so its
counts are plain ints.

The brute-force oracle classifies raw permutations and is kept deliberately
naive so the two engines can check each other.  Path classes are cut from
its Hamiltonian cycles, one class per cycle.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from math import factorial
from typing import Iterable, Iterator, NamedTuple, Sequence

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
    _cycle_word_classes,
    _cyclic_runs_from_word,
    _path_word_classes,
    _rotation_orbits,
    _runs_from_word,
    arc_sum,
    check_standard_cycle,
    check_standard_path,
    cycle_canonical,
    cycle_type_classes,
    delta,
    expand_signs,
    format_type,
    is_symmetric,
    path_type_classes,
    period_info,
    word_int,
)

ORACLE_MAX_ORDER = 8
CENSUS_MAX_ORDER = 10
_SPANNING_MEET_ORDER = 7  # a spanning cycle word meets in the middle from this order on

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


def _step_tables(step) -> tuple:
    """Per candidate byte, ``step(v)`` of each vertex v set in it: one table
    for the vertices 0..7 of the low byte, one for 8..15 of the high byte."""
    tables = []
    for low in (0, 8):
        table: list[tuple] = [()]
        for v in range(low, low + 8):  # the bytes with bit v - low as their top bit
            table += [steps + (step(v),) for steps in table]
        tables.append(tuple(table))
    return tuple(tables)


_LOW_STEPS, _HIGH_STEPS = _step_tables(lambda v: (1 << (v + 4)) + v)  # state key offsets


@lru_cache(maxsize=16)
def _fold_steps(width: int) -> tuple:
    """The (vertex bit, lane shift) pairs of ``_step_tables``, lanes ``width``
    bits wide: the fold of ``_spanning_readings``."""
    return _step_tables(lambda v: (1 << v, width * v))


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
def _trie(words: tuple[tuple[int, int], ...], closed: bool):
    """Trie of ``words``, (arc count, packed signs) pairs.  The last arc of
    a closed word is its closing bit, not a step."""
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


def _lane_ones(width: int, count: int) -> int:
    """A 1 in each of ``count`` lanes ``width`` bits wide, lane 0 lowest."""
    return int("1".zfill(width) * count, 2)


def _split_lanes(value: int, width: int, count: int) -> list[int]:
    """Lanes 0..count-1 of ``value``, ``width`` bits each, lane 0 lowest: one
    slice of its binary string each, where shifting the whole value once per
    lane would cost time quadratic in the count."""
    bits = format(value, "b").zfill(width * count)
    top = len(bits)
    return [int(bits[top - width * (i + 1):top - width * i], 2) for i in range(count)]


@lru_cache(maxsize=1 << 12)
def _arc_lanes(n: int, count: int, out_mask: int, in_mask: int) -> tuple:
    """Layout of ``count`` lanes at order n, and the lanes of the arcs at a
    start vertex with these out- and in-masks in lane 0: the lane width, the
    packed 1 of every lane, then per sign the first step, as (state key
    offset, packed 1s) of each vertex it reaches in some lane (seed), and
    per sign and vertex the full lanes in which the closing arc has that
    sign (close)."""
    width = factorial(n).bit_length()
    ones = _lane_ones(width, count)
    full = (1 << width) - 1
    flips = [sum(1 << width * i for i in range(count) if v and i >> (v - 1) & 1)
             for v in range(n)]  # lane i flips vertex 0's arc to v where bit v-1 of i is set
    fwd, back = (tuple((ones if mask >> v & 1 else 0) ^ flips[v] for v in range(n))
                 for mask in (out_mask, in_mask))
    seed = tuple(tuple(((1 << (v + 4)) + v, c) for v, c in enumerate(lanes) if c)
                 for lanes in (back, fwd))
    return width, ones, seed, (tuple(f * full for f in fwd), tuple(b * full for b in back))


class _Lanes:
    """Tournaments that differ only in vertex 0's arcs, one lane each of every
    packed count; as the starts of a closed walk, the walk from vertex 0.

    Lane i is ``T`` with vertex 0's arcs, serial bits 0..n-2, flipped by i:
    the tournament ``T.bits ^ i``.  It is bits [i*width, (i+1)*width) of a
    count.  ``seed`` and ``close`` hold, per sign, the lanes of the first
    step and of the closing arc.
    """

    __slots__ = ("T", "count", "width", "ones", "seed", "close")

    def __init__(self, T: Tournament, count: int = 1):
        self.T, self.count = T, count
        masks = (T.out_masks[0], T.in_masks[0]) if T.n else (0, 0)  # order 0 has no arcs
        self.width, self.ones, self.seed, self.close = _arc_lanes(T.n, count, *masks)

    def tournament(self, i: int) -> Tournament:
        return Tournament(self.T.n, self.T.bits ^ i) if i else self.T

    def unpack(self, value: int) -> list[int]:
        """Each lane's count; one lane's is the value itself, never masked."""
        return [value] if self.count == 1 else _split_lanes(value, self.width, self.count)


def _firsts(T: Tournament, starts: Iterable[int] | _Lanes) -> list:
    """(start, first-step seed, closing lanes) of each start of a closed walk:
    a run is vertex 0 over its lanes, and a vertex is T's one lane there."""
    if isinstance(starts, _Lanes):
        return [(0, starts.seed, starts.close)]
    return [(s, *_arc_lanes(T.n, 1, T.out_masks[s], T.in_masks[s])[2:]) for s in starts]


def _word_set_walk(T: Tournament, starts: Iterable[int] | _Lanes,
                   words: Iterable[tuple[int, int]], closed: bool = False) -> dict:
    """Vertex sequences from ``starts`` whose arc signs (bit i set when arc i
    runs forward) spell a word of ``words``, (arc count, packed signs) pairs of
    any lengths, walked as one trie: words that share a prefix share its DP
    steps, and a word's tally is read at the node where it ends.  With
    ``closed`` each start runs alone (``_firsts``) and a word's last arc is
    the closing test back to it rather than a step.  Returns per word a dict
    from used-vertex mask to tally; zero tallies are left out.
    """
    out_masks, in_masks = T.out_masks, T.in_masks
    root = _trie(tuple(words), closed)
    # depth-first over the trie; a node's states are dropped once its
    # children exist, so a single word holds two levels, not the whole path
    if closed:
        stack = [(child, {(1 << s + 4) + step: c for step, c in seed[bit]}, close)
                 for s, seed, close in _firsts(T, starts) for bit, child in root[0] if seed[bit]]
    else:  # every end of an open walk counts
        stack = [(root, {(1 << v + 4) + v: 1 for v in starts}, ((-1,) * 16,) * 2)]
    counts: dict = {}
    while stack:
        (children, ends), states, close = stack.pop()
        for bit, child in children:
            nxt = _advance(states, (in_masks, out_masks)[bit])
            if nxt:
                stack.append((child, nxt, close))
        for bit, word in ends:
            tally = counts.setdefault(word, {})
            ok = close[bit]
            for key, c in states.items():
                c &= ok[key & 15]
                if c:
                    k = key >> 4
                    tally[k] = tally.get(k, 0) + c
            if not tally:
                del counts[word]
    return counts


def _spanning_readings(T: Tournament, w: int) -> int:
    """Closed readings of the spanning sign word ``w`` (n arcs, order 3 and
    up), summed over every start, met in the middle.  From each start s a
    backward half steps arcs n-1..k+2 back, k = (n-1) // 2, the mask tables
    swapped: going back along a forward arc enters from an in-neighbour.  Its
    last step, over arc k+1, builds no layer: it adds each count into the
    count of its vertex set at the lane of its end, each candidate byte's
    ends read from a table (``_fold_steps``).  Then a forward half steps
    arcs 0..k-1, and each state (A, v) reads the set (V - A) + s, keeps the
    lanes arc k allows from v and adds them, times its count, into one packed
    total per call.  A lane of that total sums readings over every start, at
    most n! of them, so every lane is ``n!.bit_length()`` bits wide, and one
    ``_split_lanes`` at the end sums the lanes.  The layers of a walk are
    sparse early and full only in the middle, so two early halves do less
    work than one walk through the middle, and hold less at once.  Per word
    in ms, every start, in process on 2 cores (six spanning types of one
    random host per order, best of three rounds):

        order    5      6      7      8     9     10   11    12   13
        trie     0.024  0.056  0.139  0.41  1.4   4.5  13.9  40   113
        halves   0.025  0.048  0.103  0.26  0.77  2.4  6.8   24   68
    """
    n, out_masks, in_masks = T.n, T.out_masks, T.in_masks
    k = (n - 1) // 2
    width = factorial(n).bit_length()
    lane, full = (1 << width) - 1, (1 << n) - 1
    low, high = _fold_steps(width)
    meet = (in_masks, out_masks)[w >> k & 1]  # arc k, from the forward end
    allow = [sum(lane << width * u for u in range(n) if meet[v] >> u & 1) for v in range(n)]
    last = (out_masks, in_masks)[w >> k + 1 & 1]  # arc k+1, back from the backward end
    total = 0  # lane u: the readings whose arc k ends at u
    for s in range(n):
        sets: dict[int, int] = {}
        get = sets.get
        states = {(1 << s + 4) + s: 1}  # each half's layers are dropped before the next
        for i in range(n - 1, k + 1, -1):
            states = _advance(states, (out_masks, in_masks)[w >> i & 1])
        for key, c in states.items():
            used = key >> 4
            cand = last[key & 15] & ~used
            for bit, shift in low[cand & 255]:
                sets[used | bit] = get(used | bit, 0) + (c << shift)
            if cand > 255:
                for bit, shift in high[cand >> 8]:
                    sets[used | bit] = get(used | bit, 0) + (c << shift)
        states = {(1 << s + 4) + s: 1}
        for i in range(k):
            states = _advance(states, (in_masks, out_masks)[w >> i & 1])
        for key, c in states.items():
            x = get(full ^ key >> 4 | 1 << s, 0) & allow[key & 15]
            if x:
                total += c * x
    return sum(_split_lanes(total, width, n))


def _every_word_walk(T: Tournament, starts: Iterable[int] | _Lanes, length: int) -> dict[int, int]:
    """The closed walk of ``_word_set_walk`` over every word of ``length``
    arcs, breadth first: word lane p of a count, the lane width times the
    run's lane count bits wide, holds the sequences whose signs so far spell
    p, so a depth is one backward step and one forward step whose lanes are
    shifted above the backward ones; the closing test masks every word lane
    alike, its bit on top.  It steps only to vertices above its start, so each
    cycle is read from its lowest vertex.  Returns the tally per packed word,
    summed over starts; zero tallies are left out."""
    out_masks, in_masks = T.out_masks, T.in_masks
    stride = factorial(T.n).bit_length() * (starts.count if isinstance(starts, _Lanes) else 1)
    steps = length - 1  # the last arc is the closing test
    rep = _lane_ones(stride, 1 << steps)  # a 1 in every word lane
    total, states = 0, {}  # word lane w holds word w's tally, summed over starts
    for s, seed, close in _firsts(T, starts):
        for d in range(steps):
            if d:
                back, fwd = _advance(states, in_masks), _advance(states, out_masks)
            else:  # the first step, never to the vertices below s: they are marked used
                back, fwd = ({((2 << s) - 1 << 4) + step: c for step, c in seed[bit]
                              if not step >> 4 & (1 << s) - 1} for bit in (0, 1))
            for key, c in fwd.items():  # the forward lanes go above the backward ones
                back[key] = back.get(key, 0) + (c << (stride << d))
            states = back
        for key, c in states.items():  # the closing test, alike in every word lane
            last = key & 15
            total += (c & close[0][last] * rep) + ((c & close[1][last] * rep) << (stride << steps))
    if not total:  # no start, as for the starts above 0 of a spanning census
        return {}
    return {w: t for w, t in enumerate(_split_lanes(total, stride, 1 << length)) if t}


def _word_tallies(T: Tournament, words: tuple[tuple[int, int], ...], closed: bool = False) -> dict:
    """``_word_set_walk`` of ``words`` from every start, but a closed word of
    n arcs meets in the middle (``_spanning_readings``) from order 7 on, below
    which that is no faster: its tally is the walk's, on the full set."""
    n = T.n
    met = [wd for wd in words if closed and wd[0] == n >= _SPANNING_MEET_ORDER]
    rest = tuple(wd for wd in words if wd not in met)
    tallies = _word_set_walk(T, range(n), rest, closed) if rest else {}
    for wd in met:
        if readings := _spanning_readings(T, wd[1]):  # none is left out, as in the walk
            tallies[wd] = {(1 << n) - 1: readings}
    return tallies


def count_enumerations(T: Tournament, alpha: Iterable[int]) -> int:
    """Number of vertex sequences (over all subsets of the right size) whose
    arc-sign word spells out ``alpha`` exactly."""
    a = check_standard_path(alpha)
    if arc_sum(a) + 1 > T.n:
        raise TypeTooLongError(f"type {a} needs {arc_sum(a) + 1} vertices, host has {T.n}")
    word = (arc_sum(a), word_int(a))
    return sum(_word_tallies(T, (word,)).get(word, {}).values())


def enumeration_word_counts(T: Tournament, m: int) -> dict[int, int]:
    """Enumeration counts for every sign word of length m-1 in one sweep, as a
    dict from packed word to count; absent words have count 0."""
    if not 2 <= m <= T.n:
        raise TypeTooLongError(f"word sweep needs 2 <= m <= {T.n}, got {m}")
    return _length_census(_Lanes(T), m)[0]


def _halved(readings: int, tup: SignedTuple, lanes: _Lanes | None = None) -> int:
    """Half of every lane of ``readings``, each checked even first."""
    if readings & (1 if lanes is None else lanes.ones):
        odd = readings if lanes is None else next(r for r in lanes.unpack(readings) if r & 1)
        raise ParityViolationError(f"odd reading count {odd} for {tup}")
    return readings >> 1


def _per_path(e: int, alpha: SignedTuple) -> int:
    """Paths behind ``e`` enumerations: symmetric types read each from both ends."""
    return _halved(e, alpha) if is_symmetric(alpha) else e


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
    exactly; ``_word_tallies`` picks the walk.
    """
    b = check_standard_cycle(beta)
    m = arc_sum(b)
    if m > T.n:
        raise TypeTooLongError(f"type {b} needs {m} vertices, host has {T.n}")
    if m < 3:
        return 0  # tournaments are loopless and have no 2-cycles
    canon = cycle_canonical(b)
    word = (m, word_int(canon))
    readings = sum(_word_tallies(T, (word,), closed=True).get(word, {}).values())
    return _per_cycle(readings, canon)


def _orbit_sums(closed: dict[int, int], n: int) -> dict[int, int]:
    """Tallies of closed n-arc readings summed per rotation orbit, keyed by
    the orbit's least word."""
    least = _rotation_orbits(n)[0]
    sums: dict[int, int] = {}
    for w, c in closed.items():
        r = least[w]
        sums[r] = sums.get(r, 0) + c
    return sums


def _cut(sums: dict[int, int], n: int) -> dict[int, int]:
    """Path word tallies from closed n-arc readings, given as ``_orbit_sums``.

    Cutting a reading at each of its n arcs and reading the n-1 arcs from the
    cut gives its n rotations with the top bit dropped, every word of its
    orbit n / size times.  So path word p is cut S(p) + S(p | 2^(n-1)) times,
    where S of a word is its orbit's sum times n / size."""
    least, sizes = _rotation_orbits(n)
    per_word = {r: c * (n // sizes[r]) for r, c in sums.items()}
    top = 1 << (n - 1)
    return {p: t for p in range(top)
            if (t := per_word.get(least[p], 0) + per_word.get(least[p | top], 0))}


def _class_halves(tallies: dict[int, int], classes: Sequence[SignedTuple],
                  inventory: Iterable[SignedTuple], lanes: _Lanes) -> dict[SignedTuple, int]:
    """Half the tallies summed per class of ``inventory``, zeros included, in
    every lane of ``lanes``; ``classes`` maps each word to its class.  Every
    cycle and every path leaves two readings in its class, one per direction: a
    path's spell a word and its negated reversal."""
    readings = dict.fromkeys(inventory, 0)
    for w, c in tallies.items():
        readings[classes[w]] += c
    return {cls: _halved(r, cls, lanes) for cls, r in readings.items()}


def _length_census(lanes: _Lanes, m: int) -> tuple[dict[int, int], dict[SignedTuple, int]]:
    """Word tallies of the paths of m vertices and the count of every cycle
    type of m arcs, zeros included (2 <= m <= n), packed per lane of the run
    ``lanes`` over T.

    Each cycle has exactly two readings from its lowest vertex, one per
    direction, so the closed words of the walks from every start are bucketed
    by class and halved.  Only the walk from vertex 0 meets vertex 0's arcs;
    the walks from starts 1..n-m count the same in every lane.  Each path
    sequence closes, through the arc between its ends, into exactly one of
    these readings rotated, so cutting the closed words gives every path word.
    Two vertices close no cycle: each sign word is read off C(n, 2) pairs.
    """
    T, n, ones = lanes.T, lanes.T.n, lanes.ones
    if m == 2:
        return dict.fromkeys((0, 1), n * (n - 1) // 2 * ones), {}
    closed = _every_word_walk(T, lanes, m)
    for w, c in _every_word_walk(T, range(1, n - m + 1), m).items():
        closed[w] = closed.get(w, 0) + c * ones
    sums = _orbit_sums(closed, m)  # a rotation orbit's words are one cycle type's
    return _cut(sums, m), _class_halves(sums, _cycle_word_classes(m), cycle_type_classes(m), lanes)


def _spanning_path_counts(lanes: _Lanes, paths: Sequence[int]) -> dict[int, int]:
    """Enumeration tallies of the given Hamiltonian path words alone (order 2
    and up) per lane of the run ``lanes``, from its closed walk over just the
    readings that cut into them: the rotations of each path word closed by an
    arc of either sign.  One lane takes the open walk from every start over the
    words themselves instead, which expands about a third of the states."""
    T, n = lanes.T, lanes.T.n
    if lanes.count == 1:
        opened = _word_tallies(T, tuple((n - 1, p) for p in paths))
        return {p: sum(opened.get((n - 1, p), {}).values()) for p in paths}
    full = (1 << n) - 1
    rotations = {(w << j | w >> (n - j)) & full
                 for p in paths for w in (p, p | 1 << (n - 1)) for j in range(n)}
    closed = _word_set_walk(T, lanes, tuple((n, w) for w in sorted(rotations)), closed=True)
    cut = _cut(_orbit_sums({w: sum(t.values()) for (_, w), t in closed.items()}, n), n)
    return {p: cut.get(p, 0) for p in paths}


# ---------------------------------------------------------------------------
# census reports


class CensusReport(NamedTuple):
    """Full type-to-count maps for one tournament, explicit zeros included."""

    order: int
    path_counts: dict[SignedTuple, int]
    cycle_counts: dict[SignedTuple, int]

    def to_json_dict(self) -> dict:
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
    if n < 2:
        return CensusReport(n, {}, {})
    lanes = _Lanes(T)
    words, cycle_counts = _length_census(lanes, n)
    path_counts = _class_halves(words, _path_word_classes(n), path_type_classes(n - 1), lanes)
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
    last T alone: ``path_classes`` reads it once per path type of one T."""
    return tuple((_closed_word_of(T, vs), _closed_arcs(T, vs)) for vs in _closed_sequences(T.n))


def _oracle_guard(T: Tournament) -> None:
    if T.n > ORACLE_MAX_ORDER:
        raise ScopeTooLargeError(f"brute-force oracle capped at order {ORACLE_MAX_ORDER}")


def oracle_census(T: Tournament) -> CensusReport:
    """Brute-force census: classify every permutation, no DP involved.

    Paths are deduplicated by keeping the endpoint-ordered reading of each
    arc set; cycles fix vertex 0 first and keep one direction.  The two
    halves are ``_oracle_path_counts`` and ``_oracle_cycle_counts``; a check
    that compares one of them calls it alone.
    """
    return CensusReport(T.n, _oracle_path_counts(T), _oracle_cycle_counts(T))


def _oracle_path_counts(T: Tournament) -> dict[SignedTuple, int]:
    """The oracle's path half: every open permutation, read from its lower end."""
    _oracle_guard(T)
    n = T.n
    if n < 2:
        return {}
    path_counts = {cls: 0 for cls in path_type_classes(n - 1)}
    classes = _path_word_classes(n)
    for perm in permutations(range(n)):
        if perm[0] > perm[-1]:
            continue
        path_counts[classes[_word_of(T, perm)]] += 1
    return path_counts


def _oracle_cycle_counts(T: Tournament) -> dict[SignedTuple, int]:
    """The oracle's cycle half: every closed sequence, streamed and classified
    one at a time, so no cycle list is kept."""
    _oracle_guard(T)
    n = T.n
    if n < 3:
        return {}
    cycle_counts = {cls: 0 for cls in cycle_type_classes(n)}
    classes = _cycle_word_classes(n)
    for vs in _closed_sequences(n):
        cycle_counts[classes[_closed_word_of(T, vs)]] += 1
    return cycle_counts


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


class PathClass(NamedTuple):
    """All paths of one type that close into the same cycle."""

    paths: frozenset[frozenset[Arc]]
    cycle_arcs: frozenset[Arc]
    cycle_type: SignedTuple


class ClassPartition(NamedTuple):
    alpha: SignedTuple
    classes: tuple[PathClass, ...]


def _cycle_cuts(T: Tournament) -> Iterator[tuple[int, tuple[Arc, ...], dict[SignedTuple, list[Arc]]]]:
    """Every Hamiltonian cycle of T (order 3 and up) cut at each of its arcs
    for every path type at once, in the order of each cycle's sorted arcs: its
    closed word, its arcs, and per path class the arcs whose cut leaves a path
    of the class.  The cut at j reads the path from arc j on, as in ``_cut``;
    it drops arc j - 1."""
    n = T.n
    low = (1 << (n - 1)) - 1
    classes = _path_word_classes(n)
    for w, arcs in sorted(_hamiltonian_cycles(T), key=lambda cycle: sorted(cycle[1])):
        ww = w | w << n
        cuts: dict[SignedTuple, list[Arc]] = {}
        for j in range(n):
            cuts.setdefault(classes[ww >> j & low], []).append(arcs[j - 1])
        yield w, arcs, cuts


def path_classes(T: Tournament, alpha: Iterable[int]) -> ClassPartition:
    """Partition the spanning paths of type ``alpha`` by generated cycle.

    Each Hamiltonian path closes into one cycle via the arc between its
    endpoints; paths landing on the same cycle form a class.  The classes
    are cut from the oracle's cycles by ``_cycle_cuts``, so the order is
    capped like the oracle's.
    """
    _oracle_guard(T)
    a = check_standard_path(alpha)
    n = T.n
    if n < 3:
        raise TooShortError("generated cycles need at least 3 vertices")
    if arc_sum(a) + 1 != n:
        raise TypeTooLongError(f"type {a} is not spanning for order {n}")
    cls = _path_word_classes(n)[word_int(a)]  # a word and its negated reversal share it
    types = _cycle_word_classes(n)
    classes = []
    for w, arcs, cuts in _cycle_cuts(T):
        if cls in cuts:
            cycle = frozenset(arcs)
            classes.append(PathClass(frozenset(cycle - {arc} for arc in cuts[cls]), cycle, types[w]))
    return ClassPartition(a, tuple(classes))
