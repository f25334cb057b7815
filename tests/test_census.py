"""Unit tests for the counting engines.

The DP counters are checked three ways: frozen hand-computed values on the
two order-3 tournaments, the package's own permutation oracle, and a third
from-scratch brute force written here with no shared helpers.
"""

from collections import Counter
from functools import lru_cache
from itertools import combinations, permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tourcensus import (
    BadSubsetError,
    all_tournaments,
    ScopeTooLargeError,
    TooShortError,
    Tournament,
    TypeTooLongError,
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
    is_symmetric,
    neg_reverse,
    oracle_census,
    oracle_cycle_sets,
    path_classes,
    path_type_classes,
    random_tournaments,
    standard_tuples,
    transitive,
    word_int,
)
from tourcensus.census import (
    _Lanes, _advance, _f_from_words, _length_census, _spanning_path_counts, _word_dp,
)

TT3 = Tournament.parse("3:111")
C3 = Tournament.parse("3:101")
T4 = Tournament.parse("4:111011")  # contains the alternating 4-cycle 0,1,2,3


def random_small(max_n=6):
    return st.integers(3, max_n).flatmap(
        lambda n: st.builds(
            Tournament, st.just(n), st.integers(0, (1 << (n * (n - 1) // 2)) - 1)
        )
    )


def brute_paths(T, alpha):
    """Sequence sweep written independently of the package internals."""
    signs = []
    for block in alpha:
        signs += [1 if block > 0 else -1] * abs(block)
    hits = 0
    for perm in permutations(range(T.n), len(signs) + 1):
        ok = True
        for (u, v), s in zip(zip(perm, perm[1:]), signs):
            if T.has_arc(u, v) != (s > 0):
                ok = False
                break
        if ok:
            hits += 1
    if tuple(alpha) == neg_reverse(alpha):
        assert hits % 2 == 0
        return hits // 2
    return hits


# --- word plumbing ----------------------------------------------------------

def test_expand_signs():
    assert expand_signs((2, -1)) == (1, 1, -1)
    assert expand_signs((-1, 2)) == (-1, 1, 1)


def test_word_int():
    assert word_int((2, -1)) == 0b011
    assert word_int((1, -1)) == 0b001
    assert word_int((-2, 1)) == 0b100
    assert word_int((3,)) == 0b111


def test_classify_enumeration_raw_runs():
    assert classify_enumeration(C3, (0, 1, 2)) == (2,)
    assert classify_enumeration(C3, (2, 1, 0)) == (-2,)
    assert classify_enumeration(TT3, (0, 2, 1)) == (1, -1)
    assert classify_enumeration(TT3, (0, 1)) == (1,)


def test_classify_cycle_canonical():
    assert classify_cycle(TT3, (0, 1, 2)) == (1, -2)
    assert classify_cycle(C3, (0, 1, 2)) == (3,)
    assert classify_cycle(C3, (2, 1, 0)) == (3,)  # reversed reading, same type
    assert classify_cycle(T4, (0, 1, 2, 3)) == (1, -1, 1, -1)


def test_classify_rejects_bad_sequences():
    with pytest.raises(TooShortError):
        classify_enumeration(TT3, (0,))
    with pytest.raises(TooShortError):
        classify_cycle(TT3, (0, 1))
    with pytest.raises(BadSubsetError):
        classify_enumeration(TT3, (0, 0, 1))
    with pytest.raises(BadSubsetError):
        classify_cycle(TT3, (0, 1, 9))


# --- enumeration and path counts --------------------------------------------

def test_count_enumerations_frozen():
    assert count_enumerations(TT3, (2,)) == 1
    assert count_enumerations(TT3, (-2,)) == 1
    assert count_enumerations(TT3, (1, -1)) == 2  # one path read from both ends
    assert count_enumerations(C3, (2,)) == 3
    assert count_enumerations(C3, (1, -1)) == 0


def test_count_paths_frozen():
    assert count_paths(TT3, (2,)) == 1
    assert count_paths(TT3, (1, -1)) == 1
    assert count_paths(TT3, (-1, 1)) == 1
    assert count_paths(C3, (2,)) == 3
    assert count_paths(C3, (-2,)) == 3
    assert count_paths(C3, (1, -1)) == 0


def test_count_paths_non_spanning():
    # directed 2-arc paths in the transitive order-4 tournament
    assert count_paths(transitive(4), (2,)) == 4
    assert count_paths(transitive(4), (1,)) == 6
    assert count_paths(transitive(4), (-1,)) == 6


def test_transitive_unique_directed_path():
    for n in range(3, 8):
        assert count_paths(transitive(n), (n - 1,)) == 1


def test_count_enumerations_length_guard():
    with pytest.raises(TypeTooLongError):
        count_enumerations(TT3, (3,))
    with pytest.raises(TypeTooLongError):
        count_paths(TT3, (2, -1))


def test_enumeration_word_counts_partition():
    for T in (TT3, C3, T4, transitive(5)):
        words = enumeration_word_counts(T, T.n)
        assert sum(words.values()) == factorial(T.n)


def test_enumeration_word_counts_matches_count_enumerations():
    words = enumeration_word_counts(T4, 4)
    for alpha in standard_tuples(3, "path"):
        assert words.get(word_int(alpha), 0) == count_enumerations(T4, alpha)


def test_spanning_word_counts_cut_matches_open_walk():
    # path words of every length come from cutting closed readings; the open
    # walk from every start is the reference they must reproduce exactly
    hosts = [T for n in range(3, 6) for T in all_tournaments(n)]
    hosts += [T for n, k in ((6, 4), (7, 3), (8, 2), (9, 2), (10, 2))
              for T in random_tournaments(n, 90 + n, k)]
    for T in hosts:
        n = T.n
        for m in range(2, n + 1):
            words = enumeration_word_counts(T, m)
            assert words == _word_dp(T, range(n), m - 1), (T.serialize(), m)
            assert sum(words.values()) == factorial(n) // factorial(n - m), (T.serialize(), m)


def bit_loop_advance(states, masks):
    """One DP step peeling the candidate set one bit at a time."""
    nxt = {}
    for key, c in states.items():
        mask = key >> 4
        cand = masks[key & 15] & ~mask
        while cand:
            b = cand & -cand
            cand ^= b
            k2 = ((mask | b) << 4) | (b.bit_length() - 1)
            nxt[k2] = nxt.get(k2, 0) + c
    return nxt


def test_advance_byte_tables_match_bit_loop():
    # order 16: vertices 8-15 step through the high-byte table
    for T in random_tournaments(16, 33, 3):
        states = {((1 << v) << 4) | v: v + 1 for v in range(16)}
        for bit in (1, 0, 0, 1, 1):
            masks = T.out_masks if bit else T.in_masks
            got = _advance(states, masks)
            assert got == bit_loop_advance(states, masks), T.serialize()
            assert any(key & 15 >= 8 for key in got)
            states = got


def brute_word_tallies(T, words, closed):
    """(arc count, packed signs) -> {used mask: vertex sequences spelling it},
    by trying every sequence; a closed word's last arc runs back to the start."""
    out = {}
    for length, w in words:
        size = length if closed else length + 1
        for seq in permutations(range(T.n), size):
            ring = seq + seq[:1] if closed else seq
            if all(T.has_arc(u, v) == bool(w >> i & 1)
                   for i, (u, v) in enumerate(zip(ring, ring[1:]))):
                mask = sum(1 << v for v in seq)
                tally = out.setdefault((length, w), {})
                tally[mask] = tally.get(mask, 0) + 1
    return out


def test_word_set_walk_matches_brute_force():
    # words of several lengths in one trie, several of them prefixes of others
    paths = ((1, 0b1), (2, 0b11), (2, 0b01), (3, 0b101), (3, 0b001), (4, 0b1101), (1, 0b0))
    cycles = ((3, 0b111), (3, 0b011), (4, 0b0101), (4, 0b0011), (5, 0b00111), (5, 0b01011))
    for T in [*random_tournaments(6, 12, 2), *random_tournaments(7, 13, 1)]:
        for words, closed in ((paths, False), (cycles, True)):
            by_mask = _word_dp(T, range(T.n), words=words, closed=closed, by_mask=True)
            expect = brute_word_tallies(T, words, closed)
            assert by_mask == expect, T.serialize()
            totals = _word_dp(T, range(T.n), words=words, closed=closed)
            assert totals == {w: sum(t.values()) for w, t in expect.items()}


def test_enumeration_word_counts_guard():
    with pytest.raises(TypeTooLongError):
        enumeration_word_counts(TT3, 1)
    with pytest.raises(TypeTooLongError):
        enumeration_word_counts(TT3, 4)


@given(random_small(5))
@settings(max_examples=40, deadline=None)
def test_count_paths_matches_brute_force(T):
    for alpha in standard_tuples(T.n - 1, "path"):
        assert count_paths(T, alpha) == brute_paths(T, alpha)


@given(random_small(5))
@settings(max_examples=20, deadline=None)
def test_count_paths_non_spanning_matches_brute_force(T):
    for m in range(1, T.n - 1):
        for alpha in standard_tuples(m, "path"):
            assert count_paths(T, alpha) == brute_paths(T, alpha)


# --- cycle counts ------------------------------------------------------------

def test_count_cycles_frozen():
    assert count_cycles(TT3, (3,)) == 0
    assert count_cycles(TT3, (1, -2)) == 1
    assert count_cycles(C3, (3,)) == 1
    assert count_cycles(C3, (1, -2)) == 0
    assert count_cycles(T4, (1, -1, 1, -1)) == 1
    assert count_cycles(T4, (1, -2)) == 4  # every triangle here is non-directed


def test_count_cycles_short_sums_are_zero():
    assert count_cycles(TT3, (1, -1)) == 0
    assert count_cycles(T4, (2,)) == 0


def test_count_cycles_canonicalizes_input():
    assert count_cycles(T4, (2, -1)) == count_cycles(T4, (1, -2)) == 4
    assert count_cycles(C3, (-3,)) == 1


@given(random_small(5))
@settings(max_examples=25, deadline=None)
def test_census_matches_oracle(T):
    a = census(T)
    b = oracle_census(T)
    assert a.path_counts == b.path_counts
    assert a.cycle_counts == b.cycle_counts


@lru_cache(maxsize=None)
def _oracle_of(T):
    return oracle_census(T)


def _oracle_by_length(T, m):
    """Oracle path and cycle class counts summed over T's m-vertex subtournaments."""
    paths, cycles = Counter(), Counter()
    for S in combinations(range(T.n), m):
        report = _oracle_of(T.induced(S))
        paths.update(report.path_counts)
        cycles.update(report.cycle_counts)
    return dict(paths), dict(cycles)


def test_cycle_census_from_vertex_zero_matches_oracle():
    # the census reads each cycle from its lowest vertex only and paths by
    # cutting those readings; the oracle classifies every permutation of every
    # vertex subset
    hosts = [T for n in range(3, 6) for T in all_tournaments(n)]
    hosts += [T for n, k in ((6, 8), (7, 4), (8, 2)) for T in random_tournaments(n, 40 + n, k)]
    for T in hosts:
        ours, oracle = census(T), oracle_census(T)
        assert ours.cycle_counts == oracle.cycle_counts, T.serialize()
        assert ours.path_counts == oracle.path_counts, T.serialize()
        for m in range(3, T.n + 1):
            words, cycles = _length_census(T, m)
            paths = {cls: _f_from_words(words, cls) for cls in path_type_classes(m - 1)}
            assert (paths, cycles) == _oracle_by_length(T, m), (T.serialize(), m)


def _members(lanes):
    """The tournaments of a run's lanes, built from their serials."""
    return [Tournament(lanes.T.n, lanes.T.bits | x) for x in range(lanes.count)]


def _lane(lanes, words, cycles, x):
    """Lane x of a packed census: its nonzero word tallies and every cycle count."""
    return ({w: v for w, c in words.items() if (v := lanes.unpack(c)[x])},
            {cls: lanes.unpack(c)[x] for cls, c in cycles.items()})


def test_lane_walk_matches_single_tournaments():
    # one closed walk counts a whole run of tournaments that differ only in
    # vertex 0's arcs; lane x must hold exactly the counts of tournament x at
    # every length, and the spanning ones against the open walk (path words),
    # the oracle (orders 3-5) or the per-type cycle counts (orders 6-7, 32 and
    # 64 lanes)
    runs = []
    for n in (3, 4, 5):
        batch = [(lanes, _members(lanes)) for lanes in _Lanes.runs(n)]
        assert [T for _, members in batch for T in members] == list(all_tournaments(n))
        runs += batch
    for n, high in ((6, 0), (6, 677), (7, 21_845)):
        lanes = _Lanes(Tournament(n, high << (n - 1)), 1 << (n - 1))
        runs.append((lanes, _members(lanes)))
    for lanes, members in runs:
        n = lanes.T.n
        directed = (1 << (n - 1)) - 1
        paths = _spanning_path_counts(lanes.T, (directed,), lanes)[directed]
        assert lanes.count == len(members) == 1 << (n - 1)
        assert lanes.unpack(paths) == [count_enumerations(T, (n - 1,)) for T in members]
        for m in range(2, n + 1):
            words, cycles = _length_census(lanes.T, m, lanes)
            for x, T in enumerate(members):
                # the one-lane walk is the plain census of the same tournament
                assert _lane(lanes, words, cycles, x) == _length_census(T, m), (T.serialize(), m)
        for x, T in enumerate(members):  # words and cycles are the spanning census here
            assert lanes.tournament(x) == T
            lane_words, lane_cycles = _lane(lanes, words, cycles, x)
            assert lane_words == _word_dp(T, range(n), n - 1), T.serialize()
            if n <= 5:
                expect = oracle_census(T).cycle_counts
            else:
                expect = {cls: count_cycles(T, cls) for cls in cycle_type_classes(n)}
            assert lane_cycles == expect, T.serialize()
            assert _spanning_path_counts(T, (directed,)) == {directed: lanes.unpack(paths)[x]}


def test_census_report_shape():
    doc = census(TT3).to_json_dict()
    assert doc == {
        "n": 3,
        "paths": {"(1,-1)": 1, "(2)": 1, "(-1,1)": 1},
        "cycles": {"(1,-2)": 1, "(3)": 0},
    }


def test_census_scope_guards():
    with pytest.raises(ScopeTooLargeError):
        census(Tournament(11, 0))
    with pytest.raises(ScopeTooLargeError):
        oracle_census(Tournament(9, 0))


def test_oracle_cycle_sets_consistency():
    sets = oracle_cycle_sets(C3)
    assert set(sets) == {(3,)}
    assert len(sets[(3,)]) == 1
    sets = oracle_cycle_sets(T4)
    assert len(sets[(1, -1, 1, -1)]) == 1
    (arcset,) = sets[(1, -1, 1, -1)]
    assert arcset == frozenset({(0, 1), (2, 1), (2, 3), (0, 3)})


# --- type class inventories ---------------------------------------------------

def test_path_type_classes():
    assert path_type_classes(2) == ((-1, 1), (1, -1), (2,))
    for rep in path_type_classes(5):
        assert rep in standard_tuples(5, "path")


def test_cycle_type_classes():
    assert cycle_type_classes(3) == ((1, -2), (3,))
    assert cycle_type_classes(4) == ((1, -3), (1, -1, 1, -1), (2, -2), (4,))


# --- clones and path classes --------------------------------------------------

def test_clones_directed_triangle():
    assert clones(C3, [0, 1, 2]) == [[0], [1], [2]]


def test_clones_alternating_square():
    # block period 2 over 4 blocks: opposite corners are interchangeable
    assert clones(T4, [0, 1, 2, 3]) == [[0, 2], [1, 3]]


def test_clones_guards():
    with pytest.raises(TooShortError):
        clones(C3, [0, 1])
    with pytest.raises(BadSubsetError):
        clones(C3, [0, 1, 1])


def test_path_classes_directed_triangle():
    part = path_classes(C3, (2,))
    assert part.alpha == (2,)
    assert len(part.classes) == 1
    cls = part.classes[0]
    assert cls.cycle_type == (3,)
    assert len(cls.paths) == 3  # circuit class size equals the order


def test_path_classes_transitive_triangle():
    part = path_classes(TT3, (1, -1))
    assert len(part.classes) == 1
    assert part.classes[0].cycle_type == (1, -2)
    assert len(part.classes[0].paths) == 1

    assert path_classes(C3, (1, -1)).classes == ()  # no such path in a circuit


def test_path_classes_guards():
    with pytest.raises(TypeTooLongError):
        path_classes(C3, (1,))  # not spanning
    with pytest.raises(TooShortError):
        path_classes(Tournament.parse("2:1"), (1,))
    with pytest.raises(ScopeTooLargeError):
        path_classes(Tournament(9, 0), (8,))  # the oracle's cap


@given(random_small(5))
@settings(max_examples=15, deadline=None)
def test_path_classes_cover_all_paths(T):
    for alpha in path_type_classes(T.n - 1):
        part = path_classes(T, alpha)
        total = sum(len(c.paths) for c in part.classes)
        assert total == count_paths(T, alpha)
        seen = set()
        for c in part.classes:
            assert not (seen & c.paths)
            seen |= c.paths
        # from scratch: the arc set of every sequence spelling alpha, grouped
        # by the arc set it closes into through the arc between its ends
        signs = []
        for block in alpha:
            signs += [block > 0] * abs(block)
        expect = {}
        for perm in permutations(range(T.n)):
            if all(T.has_arc(u, v) == s for (u, v), s in zip(zip(perm, perm[1:]), signs)):
                ring = zip(perm, perm[1:] + perm[:1])
                arcs = [(u, v) if T.has_arc(u, v) else (v, u) for u, v in ring]
                expect.setdefault(frozenset(arcs), set()).add(frozenset(arcs[:-1]))
        assert {c.cycle_arcs: c.paths for c in part.classes} == expect, T.serialize()
        order = [sorted(c.cycle_arcs) for c in part.classes]
        assert order == sorted(order)
