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
    Scope,
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
    generated_cycle_types,
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
    CensusReport, ClassPartition, PathClass, _Lanes, _advance, _class_halves, _cut, _cycle_cuts,
    _halved, _hamiltonian_cycles, _lane_ones,
    _length_census, _oracle_cycle_counts, _oracle_path_counts, _orbit_sums, _per_cycle, _spanning_path_counts,
    _spanning_readings, _split_lanes, _every_word_walk, _word_set_walk, _word_tallies,
)
from tourcensus.errors import DivisibilityViolationError, ParityViolationError
from tourcensus.type_algebra import (
    _cycle_word_classes, _cyclic_runs_from_word, _path_word_classes, _runs_from_word,
    cycle_canonical, delta, path_canonical, period_info,
)
from tourcensus import verifier as verifier_mod
from tourcensus.verifier import _runs

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


def open_word_tallies(T, length):
    """Per packed word of ``length`` arcs, its vertex sequences from the open
    word-set walk over every such word from every start, summed over masks."""
    every = _word_set_walk(T, range(T.n), tuple((length, w) for w in range(1 << length)))
    return {w: sum(t.values()) for (_, w), t in every.items()}


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
            assert words == open_word_tallies(T, m - 1), (T.serialize(), m)
            assert sum(words.values()) == factorial(n) // factorial(n - m), (T.serialize(), m)


def cut_at_every_arc(closed, n):
    """Path word tallies cut word by word: each closed reading cut at each of
    its n arcs, the n-1 arcs read from the cut."""
    low = (1 << (n - 1)) - 1
    paths = {}
    for w, c in closed.items():
        ww = w | w << n
        for j in range(n):
            p = ww >> j & low
            paths[p] = paths.get(p, 0) + c
    return paths


def test_orbit_cut_matches_the_cut_at_every_arc():
    # dense one-lane tallies, 8-lane packed tallies, and the sparse tallies of
    # the rotations that _spanning_path_counts walks
    for n in range(3, 10):
        for T in random_tournaments(n, 60 + n, 2):
            full = (1 << n) - 1
            paths = ((1 << (n - 1)) - 1, 0b0101010101 & (1 << (n - 1)) - 1)
            rotations = {(w << j | w >> (n - j)) & full
                         for p in paths for w in (p, p | 1 << (n - 1)) for j in range(n)}
            lanes = _Lanes(T, 8)
            closed = _word_set_walk(T, lanes, tuple((n, w) for w in sorted(rotations)),
                                    closed=True)
            for tallies in (_every_word_walk(T, _Lanes(T), n),
                            _every_word_walk(T, lanes, n),
                            {w: sum(t.values()) for (_, w), t in closed.items()}):
                assert tallies
                assert _cut(_orbit_sums(tallies, n), n) == cut_at_every_arc(tallies, n), \
                    (T.serialize(), n)


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


def brute_word_tallies(T, words, closed, starts=None):
    """(arc count, packed signs) -> {used mask: vertex sequences spelling it},
    by trying every sequence (from ``starts`` only, if given); a closed
    word's last arc runs back to the start."""
    out = {}
    for length, w in words:
        size = length if closed else length + 1
        for seq in permutations(range(T.n), size):
            if starts is not None and seq[0] not in starts:
                continue
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
            by_mask = _word_set_walk(T, range(T.n), words, closed)
            assert by_mask == brute_word_tallies(T, words, closed), T.serialize()


def test_every_word_walk_matches_brute_force():
    # the packed closed walk over every word of one length, one word lane per
    # sign prefix, against the brute tallies of the listed words of that length
    def totals(tallies, keep):
        out = {w: sum(c for mask, c in t.items() if keep(mask)) for (_, w), t in tallies.items()}
        return {w: c for w, c in out.items() if c}

    for T in [*random_tournaments(5, 61, 2), *random_tournaments(6, 62, 1),
              *random_tournaments(7, 63, 1)]:
        n = T.n
        assert _every_word_walk(T, range(n), 1) == {}  # no loops
        for m in range(2, n + 1):
            every = [(m, w) for w in range(1 << m)]
            for s in range(n - m + 1):
                # the walk from s never visits the vertices below it
                brute = brute_word_tallies(T, every, True, starts=(s,))
                expect = totals(brute, lambda mask: not mask & (1 << s) - 1)
                assert _every_word_walk(T, (s,), m) == expect, (T.serialize(), m, s)


def test_every_word_lane_run_matches_its_members():
    # 64 tournament lanes nested in each of the 2^(m-1) word lanes
    lanes = _Lanes(Tournament(7, 21_845 << 6), 64)
    for m in range(3, 8):
        packed = _every_word_walk(lanes.T, lanes, m)
        for x, T in enumerate(_members(lanes)):
            lane = {w: v for w, c in packed.items() if (v := lanes.unpack(c)[x])}
            assert lane == _every_word_walk(T, (0,), m), (T.serialize(), m)


def test_word_set_lane_run_matches_its_members():
    # the trie over closed words of several lengths, some prefixes of others,
    # with 64 tournament lanes in every per-mask tally
    lanes = _Lanes(Tournament(7, 21_845 << 6), 64)
    words = ((3, 0b011), (3, 0b111), (4, 0b0101), (5, 0b00111), (6, 0b010101), (7, 0b0110011))
    packed = _word_set_walk(lanes.T, lanes, words, closed=True)
    assert packed.keys() == set(words)
    for x, T in enumerate(_members(lanes)):
        lane = {word: tally for word, t in packed.items()
                if (tally := {mask: v for mask, c in t.items() if (v := lanes.unpack(c)[x])})}
        assert lane == _word_set_walk(T, (0,), words, closed=True), T.serialize()


def test_open_walks_refuse_a_run():
    # a run is the start of a closed walk from vertex 0; an open walk takes vertices
    lanes = _Lanes(T4, 8)
    with pytest.raises(TypeError):
        _word_set_walk(T4, lanes, ((3, 0b101),))


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


def test_count_cycles_length_guard():
    with pytest.raises(TypeTooLongError):
        count_cycles(C3, (1, -1, 1, -1))  # four arcs need four vertices
    with pytest.raises(TypeTooLongError):
        count_cycles(Tournament.parse("2:1"), (3,))


def test_per_cycle_refuses_a_tally_its_readings_do_not_divide():
    assert _per_cycle(6, (3,)) == 2  # a 3-circuit is read from each of its 3 starts
    with pytest.raises(DivisibilityViolationError, match="4 closed readings of"):
        _per_cycle(4, (3,))


def closed_readings(T, w):
    """Closed readings of the spanning word ``w`` from the trie walk, every start."""
    word = (T.n, w)
    return sum(_word_set_walk(T, range(T.n), (word,), closed=True).get(word, {}).values())


def test_spanning_readings_match_the_closed_trie_walk():
    # called directly, so it is checked below the order count_cycles routes from
    hosts = [T for n in range(3, 6) for T in all_tournaments(n)]
    hosts += [T for n, k in ((6, 3), (7, 2), (8, 2), (9, 1)) for T in random_tournaments(n, 30 + n, k)]
    for T in hosts:
        for beta in standard_tuples(T.n, "cycle"):
            w = word_int(beta)
            assert _spanning_readings(T, w) == closed_readings(T, w), (T.serialize(), beta)


@pytest.mark.parametrize("n", [7, 8])
def test_count_cycles_of_spanning_classes_matches_oracle(n):
    for T in random_tournaments(n, 20 + n, 2):
        expected = oracle_census(T).cycle_counts
        assert {beta: count_cycles(T, beta) for beta in cycle_type_classes(n)} == expected, (
            T.serialize())


@pytest.mark.parametrize("n", [7, 8])
def test_word_tallies_match_the_every_start_trie_walk(n):
    # closed spanning words meet in the middle here, the shorter ones walk the
    # trie, and both must read as the trie walk over the whole set, mask for mask
    spanning = [(n, word_int(t)) for t in cycle_type_classes(n)]
    words = tuple(spanning + [(m, word_int(t)) for m in (3, 5, n - 1) for t in cycle_type_classes(m)])
    for T in [*random_tournaments(n, 70 + n, 2), transitive(n)]:
        tallies = _word_tallies(T, words, closed=True)
        assert tallies == _word_set_walk(T, range(n), words, closed=True), T.serialize()
        assert any(word in tallies for word in spanning), T.serialize()
    circuit = (n, (1 << n) - 1)
    assert circuit in spanning and circuit not in tallies  # the transitive host has none


def test_halved_names_the_odd_lane():
    lanes = _Lanes(C3, 4)
    packed = sum(c << lanes.width * i for i, c in enumerate((2, 4, 7, 6)))
    assert lanes.unpack(packed) == [2, 4, 7, 6]
    with pytest.raises(ParityViolationError, match=r"odd reading count 7 for \(3,\)"):
        _halved(packed, (3,), lanes)
    with pytest.raises(ParityViolationError, match="odd reading count 5 "):
        _halved(5, (3,))
    assert lanes.unpack(_halved(packed - (1 << 2 * lanes.width), (3,), lanes)) == [1, 2, 3, 3]


def test_a_single_lane_unpacks_to_its_own_value():
    (T,) = random_tournaments(5, 3, 1)
    lanes = _Lanes(T)
    assert lanes.width == 7  # 5! fits in 7 bits, a single count need not
    assert lanes.unpack(1 << 40) == [1 << 40]


def test_lane_split_matches_the_shift_unpack():
    for width in (1, 3, 7, 8, 13, 22, 64, 65):
        full = (1 << width) - 1
        for count in (1, 2, 5, 8, 33):
            assert _lane_ones(width, count) == sum(1 << width * i for i in range(count))
            lanes = [(i * 2_654_435_761 + 7) & full for i in range(count)]
            lanes[-1] = full  # a full top lane, and zero lanes where the pattern gives them
            value = sum(c << width * i for i, c in enumerate(lanes))
            shifted = [value >> width * i & full for i in range(count)]
            assert _split_lanes(value, width, count) == shifted == lanes, (width, count)
            # bits above the top lane are not part of any lane
            assert _split_lanes(value | 5 << width * count, width, count) == lanes
    assert _split_lanes(0, 3, 4) == [0, 0, 0, 0]


def test_closed_walk_over_every_word_reads_each_cycle_from_its_lowest_vertex():
    # only _length_census relies on this: a walk over every word from s sees
    # the subtournament on s..n-1, where the same word list walked from its
    # vertex 0 may use every vertex
    for n in (6, 7):
        for T in random_tournaments(n, 50 + n, 2):
            for m in range(3, n + 1):
                every = [(m, w) for w in range(1 << m)]
                for s in range(n - m + 1):
                    listed = _word_set_walk(T.induced(range(s, n)), (0,), every, closed=True)
                    assert (_every_word_walk(T, (s,), m)
                            == {w: sum(t.values()) for (_, w), t in listed.items()}), (
                                T.serialize(), m, s)


@given(random_small(5))
@settings(max_examples=25, deadline=None)
def test_census_matches_oracle(T):
    a = census(T)
    b = oracle_census(T)
    assert a.path_counts == b.path_counts
    assert a.cycle_counts == b.cycle_counts


@pytest.mark.parametrize("n", range(5))
def test_oracle_census_is_its_two_halves(n):
    for T in all_tournaments(n):
        assert oracle_census(T) == CensusReport(n, _oracle_path_counts(T),
                                                _oracle_cycle_counts(T))


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


def _f_from_words(words, alpha, lanes):
    """Reference path count of ``alpha`` from a table of word tallies: the
    tally of its one word, halved for a symmetric type alone."""
    e = words.get(word_int(alpha), 0)
    return _halved(e, alpha, lanes) if is_symmetric(alpha) else e


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
            words, cycles = _length_census(_Lanes(T), m)
            paths = {cls: _f_from_words(words, cls, _Lanes(T)) for cls in path_type_classes(m - 1)}
            assert (paths, cycles) == _oracle_by_length(T, m), (T.serialize(), m)


def _members(lanes):
    """The tournaments of a run's lanes, built from their serials."""
    return [Tournament(lanes.T.n, lanes.T.bits ^ x) for x in range(lanes.count)]


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
        batch = [(lanes, _members(lanes)) for _, lanes in _runs(Scope("exhaustive", n))]
        serials = sorted(T.bits for _, members in batch for T in members)
        assert serials == [T.bits for T in all_tournaments(n)]
        runs += batch
    for n, high in ((6, 0), (6, 677), (7, 21_845)):
        lanes = _Lanes(Tournament(n, high << (n - 1)), 1 << (n - 1))
        runs.append((lanes, _members(lanes)))
    for lanes, members in runs:
        n = lanes.T.n
        directed = (1 << (n - 1)) - 1
        paths = _spanning_path_counts(lanes, (directed,))[directed]
        assert lanes.count == len(members) == 1 << (n - 1)
        assert lanes.unpack(paths) == [count_enumerations(T, (n - 1,)) for T in members]
        for m in range(2, n + 1):
            words, cycles = _length_census(lanes, m)
            for x, T in enumerate(members):
                # the one-lane walk is the plain census of the same tournament
                assert (_lane(lanes, words, cycles, x)
                        == _length_census(_Lanes(T), m)), (T.serialize(), m)
        for x, T in enumerate(members):  # words and cycles are the spanning census here
            assert lanes.tournament(x) == T
            lane_words, lane_cycles = _lane(lanes, words, cycles, x)
            assert lane_words == open_word_tallies(T, n - 1), T.serialize()
            if n <= 5:
                expect = oracle_census(T).cycle_counts
            else:
                expect = {cls: count_cycles(T, cls) for cls in cycle_type_classes(n)}
            assert lane_cycles == expect, T.serialize()
            assert (_spanning_path_counts(_Lanes(T), (directed,))
                    == {directed: lanes.unpack(paths)[x]})


def test_path_classes_halve_like_the_one_word_reading():
    # the census sums each path class over its words and halves the sum; the
    # reference reads one word per class and halves only the symmetric ones
    for n in range(2, 11):
        for T in random_tournaments(n, 60 + n, 2):
            words = _length_census(_Lanes(T), n)[0]
            assert census(T).path_counts == {cls: _f_from_words(words, cls, _Lanes(T))
                                             for cls in path_type_classes(n - 1)}
    lanes = _Lanes(Tournament(7, 21_845 << 6), 64)
    words = _length_census(lanes, 7)[0]
    halves = _class_halves(words, _path_word_classes(7), path_type_classes(6), lanes)
    assert halves == {cls: _f_from_words(words, cls, lanes) for cls in path_type_classes(6)}
    for x, T in enumerate(_members(lanes)):
        assert {cls: lanes.unpack(c)[x] for cls, c in halves.items()} == census(T).path_counts


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


@pytest.mark.parametrize("n", range(3))
def test_oracle_cycle_sets_below_order_three_are_empty(n):
    for T in all_tournaments(n):
        assert oracle_cycle_sets(T) == {}


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
    assert cycle_type_classes(1) == ((1,),)
    assert cycle_type_classes(2) == ((1, -1), (2,))
    counts = [len(cycle_type_classes(n)) for n in range(3, 13)]
    assert counts == [2, 4, 4, 9, 10, 22, 30, 62, 94, 192]


def test_path_type_class_counts_follow_burnside():
    # words of m arcs under w ~ its negated reversal: 2^m words, and
    # 2^(m/2) of them fixed when m is even
    for m in range(1, 16):
        fixed = 1 << m // 2 if m % 2 == 0 else 0
        assert len(path_type_classes(m)) == ((1 << m) + fixed) // 2, m


def test_word_class_tables_match_the_canonical_type_of_each_word():
    # the tables share one canonical call per orbit; each word's own call is
    # the reference
    for n in range(1, 13):
        assert _cycle_word_classes(n) == tuple(
            cycle_canonical(_cyclic_runs_from_word(w, n)) for w in range(1 << n)), n
        assert cycle_type_classes(n) == tuple(sorted(
            {cycle_canonical(t) for t in standard_tuples(n, "cycle")})), n
    for n in range(2, 13):
        assert _path_word_classes(n) == tuple(
            path_canonical(_runs_from_word(w, n - 1)) for w in range(1 << (n - 1))), n
        assert path_type_classes(n - 1) == tuple(sorted(
            {path_canonical(t) for t in standard_tuples(n - 1, "path")})), n


@pytest.mark.parametrize("inventory", [path_type_classes, cycle_type_classes])
@pytest.mark.parametrize("total", [0, -1])
def test_type_inventories_refuse_arc_sums_below_one(inventory, total):
    with pytest.raises(ValueError, match="^arc sum must be at least 1$"):
        inventory(total)


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


@pytest.mark.parametrize("n", range(3, 6))
def test_path_classes_close_only_into_the_generated_types(n):
    # the oracle's cycles, cut into paths of alpha, close into exactly the two
    # types that type arithmetic derives from alpha's sign word
    alphas = standard_tuples(n - 1, "path")
    closed = {alpha: set() for alpha in alphas}
    for T in all_tournaments(n):  # each T's cycles are listed once for all its types
        for alpha in alphas:
            closed[alpha].update(c.cycle_type for c in path_classes(T, alpha).classes)
    for alpha in alphas:
        first, second, _ = generated_cycle_types(alpha)
        assert closed[alpha] == {first, second}, alpha


def _path_classes_by_type(T, alpha):
    """Reference ``path_classes``: one scan of T's cycles for the one type,
    matching the cuts that spell its word or the word's negated reversal,
    then the classes sorted by their cycles' arcs."""
    n = T.n
    words = {word_int(alpha), word_int(neg_reverse(alpha))}
    low = (1 << (n - 1)) - 1
    types = _cycle_word_classes(n)
    classes = []
    for w, arcs in _hamiltonian_cycles(T):
        ww = w | w << n
        cuts = [arcs[j - 1] for j in range(n) if (ww >> j & low) in words]
        if cuts:
            cycle = frozenset(arcs)
            classes.append(PathClass(frozenset(cycle - {arc} for arc in cuts), cycle, types[w]))
    classes.sort(key=lambda c: sorted(c.cycle_arcs))
    return ClassPartition(tuple(alpha), tuple(classes))


def _cut_hosts():
    """Every tournament of orders 3-5 and seeded ones of orders 6-8."""
    hosts = [T for n in range(3, 6) for T in all_tournaments(n)]
    return hosts + [T for n, k in ((6, 3), (7, 2), (8, 1)) for T in random_tournaments(n, 25 + n, k)]


def test_path_classes_match_the_per_type_cut():
    # every standard tuple, the non-canonical phase included, e.g. (-2,)
    for T in _cut_hosts():
        for alpha in standard_tuples(T.n - 1, "path"):
            assert path_classes(T, alpha) == _path_classes_by_type(T, alpha), (T.serialize(), alpha)


def test_class_sizes_stream_matches_per_type_path_classes(monkeypatch):
    # the sweep's (alpha, beta) keys and sides, read off its compare, against
    # the classes of per-type ``path_classes`` calls in type order
    compares = {}

    def sweep(scope, compare, *args, **kwargs):
        compares[scope.order] = compare
        return 0, [], None
    monkeypatch.setattr(verifier_mod, "_sweep", sweep)
    for n in range(3, 9):
        verifier_mod._check_class_sizes(Scope("random", n, 1), None)
    for T in _cut_hosts():
        expect = [((alpha, c.cycle_type), len(c.paths), delta(c.cycle_type) * period_info(c.cycle_type).t)
                  for alpha in path_type_classes(T.n - 1) for c in path_classes(T, alpha).classes]
        assert list(compares[T.n](_Lanes(T))) == expect, T.serialize()


def test_cycle_cuts_come_in_sorted_arc_order():
    # every cycle once, read off the oracle's list, in the order of its sorted arcs
    for T in _cut_hosts():
        cycles = [(w, arcs) for w, arcs, _ in _cycle_cuts(T)]
        assert sorted(cycles) == sorted(_hamiltonian_cycles(T)), T.serialize()
        keys = [sorted(arcs) for _, arcs in cycles]
        assert keys == sorted(keys), T.serialize()
