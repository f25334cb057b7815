"""Unit tests for pattern digraph copy counting."""

import hashlib
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tourcensus import (
    CopyCounter,
    Digraph2Spec,
    DivisibilityViolationError,
    IllFormedError,
    ParseError,
    Tournament,
    TypeTooLongError,
    all_digraph_specs,
    check_complement_invariance,
    count_copies,
    cycle_canonical,
    cycle_type_classes,
    count_cycles,
    count_paths,
    oracle_census,
    path_canonical,
    path_type_classes,
    random_digraph_spec,
    random_tournaments,
    star_counterexample,
    transitive,
)
import tourcensus.digraphs as digraphs_mod
from tourcensus.census import _per_cycle, _word_set_walk
from tourcensus.digraphs import _canonical_component, _negated, _span_table, _span_tables
from tourcensus.type_algebra import _cycle_word_classes, _path_word_classes, arc_sum, word_int

TT3 = Tournament.parse("3:111")
TT4 = transitive(4)


def random_small(max_n=5):
    return st.integers(3, max_n).flatmap(
        lambda n: st.builds(
            Tournament, st.just(n), st.integers(0, (1 << (n * (n - 1) // 2)) - 1)
        )
    )


# --- spec text form -----------------------------------------------------------

def test_parse_render_roundtrip():
    for text in ["V", "P(1)", "C(3)", "P(1,-1);C(1,-2);V;V"]:
        assert Digraph2Spec.parse(text).render() == text


def test_parse_sorts_components():
    assert Digraph2Spec.parse("V;C(1,-2);P(1,-1)").render() == "P(1,-1);C(1,-2);V"


def test_parse_canonicalizes_types():
    # (2,-1) read backwards is (1,-2); both name the same path class
    assert Digraph2Spec.parse("P(2,-1)").render() == "P(1,-2)"
    assert Digraph2Spec.parse("C(-1,2)").render() == "C(1,-2)"


def test_construction_canonicalizes_too():
    a = Digraph2Spec((("P", (2, -1)), ("P", (1, -2))))
    assert a.components == (("P", (1, -2)), ("P", (1, -2)))


def test_order_and_isolated():
    d = Digraph2Spec.parse("P(1,-1);C(1,-2);V;V")
    assert d.order == 8
    assert d.isolated == 2
    assert d.core() == (("P", (1, -1)), ("C", (1, -2)))


def test_parse_errors():
    with pytest.raises(ParseError):
        Digraph2Spec.parse("")
    with pytest.raises(ParseError):
        Digraph2Spec.parse("X(1)")
    with pytest.raises(ParseError):
        Digraph2Spec.parse("P(1,2)")  # same-sign adjacency
    with pytest.raises(ParseError):
        Digraph2Spec.parse("C(1,-1)")  # only 2 arcs, no such cycle
    with pytest.raises(ParseError):
        Digraph2Spec.parse("P(1);Q(2)")
    with pytest.raises(ParseError) as exc:
        Digraph2Spec.parse("P(x)")
    assert "byte" in str(exc.value)


def test_construction_rejects_garbage():
    with pytest.raises(IllFormedError):
        Digraph2Spec((("P",),))
    with pytest.raises(IllFormedError):
        Digraph2Spec((("C", (1, -1)),))


# --- copy counting -------------------------------------------------------------

def test_isolated_vertices_choose():
    assert count_copies(TT4, Digraph2Spec.parse("V;V")) == 6
    assert count_copies(TT4, Digraph2Spec.parse("V")) == 4
    assert count_copies(TT4, Digraph2Spec.parse("V;V;V;V")) == 1


def test_single_arc_copies():
    # every edge carries exactly one oriented arc, whatever its direction
    assert count_copies(TT4, Digraph2Spec.parse("P(1)")) == 6
    assert count_copies(TT3, Digraph2Spec.parse("P(1)")) == 3


def test_disjoint_arc_pairs():
    spec = Digraph2Spec.parse("P(1);P(1)")
    for T in (TT4, Tournament.parse("4:111011"), Tournament.parse("4:000000")):
        assert count_copies(T, spec) == 3  # one per perfect matching of K4


def test_triangle_copies_in_transitive():
    assert count_copies(TT4, Digraph2Spec.parse("C(1,-2)")) == 4
    assert count_copies(TT4, Digraph2Spec.parse("C(3)")) == 0
    assert count_copies(TT4, Digraph2Spec.parse("C(1,-2);V")) == 4


def test_pattern_larger_than_host():
    with pytest.raises(TypeTooLongError):
        count_copies(TT3, Digraph2Spec.parse("P(1,-1);P(1,-1)"))


@given(random_small())
@settings(max_examples=25, deadline=None)
def test_single_component_matches_direct_counts(T):
    # one-component patterns reduce to the plain path and cycle counters
    for tup in [(1,), (2,), (1, -1), (2, -1)]:
        if sum(abs(x) for x in tup) + 1 <= T.n:
            spec = Digraph2Spec((("P", tup),))
            assert count_copies(T, spec) == count_paths(T, tup)
    for tup in [(3,), (1, -2), (1, -3), (2, -2)]:
        if sum(abs(x) for x in tup) <= T.n:
            spec = Digraph2Spec((("C", tup),))
            assert count_copies(T, spec) == count_cycles(T, tup)


@given(random_small())
@settings(max_examples=25, deadline=None)
def test_counter_reuse_matches_one_shot(T):
    counter = CopyCounter(T)
    for text in ["P(1);V", "P(1,-1)", "C(1,-2);V", "P(1);P(1)"]:
        spec = Digraph2Spec.parse(text)
        if spec.order <= T.n:
            assert counter.count(spec) == count_copies(T, spec)


def reference_span_table(T, comp):
    """One induced subtournament and one fresh count per vertex subset."""
    kind, tup = comp
    size = sum(abs(x) for x in tup) + (kind == "P")
    counter = count_paths if kind == "P" else count_cycles
    table = {}
    for subset in combinations(range(T.n), size):
        c = counter(T.induced(subset), tup)
        if c:
            table[sum(1 << v for v in subset)] = c
    return table


def test_span_table_matches_per_subset_counts():
    comps = [("P", t) for m in range(1, 5) for t in path_type_classes(m)]
    comps += [("C", t) for m in range(3, 6) for t in cycle_type_classes(m)]
    for n in range(5, 10):
        (T,) = random_tournaments(n, 70 + n, 1)
        for comp in comps:
            assert _span_table(T, comp) == reference_span_table(T, comp), (T.serialize(), comp)


def test_span_table_spanning_cycle():
    (T,) = random_tournaments(8, 3, 1)
    comp = ("C", cycle_canonical((1, -2, 3, -2)))
    table = _span_table(T, comp)
    assert table == reference_span_table(T, comp)
    assert set(table) <= {(1 << 8) - 1}
    assert sum(table.values()) == count_cycles(T, comp[1])


def test_batched_span_tables_match_single_and_per_subset():
    # every component of order <= 6 in one batch: paths share one open walk,
    # cycles one closed walk, and many words are prefixes of others
    comps = [("P", t) for m in range(1, 6) for t in path_type_classes(m)]
    comps += [("C", t) for m in range(3, 7) for t in cycle_type_classes(m)]
    for n in range(6, 10):
        (T,) = random_tournaments(n, 170 + n, 1)
        tables = _span_tables(T, tuple(comps))
        assert set(tables) == set(comps)
        for comp in comps:
            single = _span_table(T, comp)
            assert tables[comp] == single, (T.serialize(), comp)
            assert single == reference_span_table(T, comp), (T.serialize(), comp)


def test_batched_span_tables_prefix_words_and_spanning_cycle():
    (T,) = random_tournaments(7, 8, 1)
    comps = (("P", (1,)), ("P", path_canonical((2,))), ("P", path_canonical((1, -1))),
             ("C", cycle_canonical((1, -2))), ("C", cycle_canonical((1, -2, 3, -1))))
    tables = _span_tables(T, comps)
    for comp in comps:
        assert tables[comp] == reference_span_table(T, comp), comp
    assert set(tables[comps[-1]]) <= {(1 << 7) - 1}


def trie_span_table(T, comp):
    """The span table of a cycle component from the closed trie walk alone."""
    word = (arc_sum(comp[1]), word_int(comp[1]))
    tally = _word_set_walk(T, range(T.n), (word,), closed=True).get(word, {})
    return {mask: _per_cycle(r, comp[1]) for mask, r in tally.items()}


@pytest.mark.parametrize("n", [7, 8])
def test_spanning_cycle_tables_meet_in_the_middle_as_the_trie_walk_reads_them(n):
    for T in random_tournaments(n, 110 + n, 2):
        reversed_counts = oracle_census(T.complement()).cycle_counts
        for tup in cycle_type_classes(n):
            comp = ("C", tup)
            assert _span_table(T, comp) == trie_span_table(T, comp), (T.serialize(), tup)
            H = Digraph2Spec((comp,))
            assert CopyCounter(T).count(_negated(H)) == reversed_counts[tup], (T.serialize(), tup)


def test_spanning_cycle_table_of_a_host_without_one_is_empty():
    T = transitive(8)
    assert _span_table(T, ("C", (8,))) == {}
    assert count_copies(T, Digraph2Spec.parse("C(8)")) == 0


@pytest.mark.parametrize("n, meets", [(6, False), (7, True)])
def test_spanning_cycles_meet_in_the_middle_from_order_7(monkeypatch, n, meets):
    # the rule lives in census._word_tallies; ``import tourcensus.census`` would
    # give the function of that name, so the module comes from sys.modules
    census_mod = sys.modules["tourcensus.census"]
    seen = []
    real = census_mod._spanning_readings

    def counting(T, w):
        seen.append(w)
        return real(T, w)
    monkeypatch.setattr(census_mod, "_spanning_readings", counting)
    specs = all_digraph_specs(6) + [Digraph2Spec((("C", t),)) for t in cycle_type_classes(n)]
    (T,) = random_tournaments(n, 9, 1)
    expect = sorted(word_int(t) for t in cycle_type_classes(n) if meets)
    CopyCounter(T).counts(specs)
    # once per spanning component at order 7, never at order 6
    assert sorted(seen) == expect
    seen.clear()
    for t in cycle_type_classes(n):
        count_cycles(T, t)
    assert sorted(seen) == expect  # and once per spanning class from count_cycles


def test_counts_match_count_per_pattern():
    specs = all_digraph_specs(6)
    for T in random_tournaments(7, 21, 2):
        batched = CopyCounter(T).counts(specs)
        assert batched == [CopyCounter(T).count(spec) for spec in specs], T.serialize()
        assert batched == [count_copies(T, spec) for spec in specs]


def test_counts_reject_patterns_larger_than_the_host():
    with pytest.raises(TypeTooLongError):
        CopyCounter(TT3).counts([Digraph2Spec.parse("P(1)"), Digraph2Spec.parse("C(4)")])


@pytest.mark.parametrize("oversize", ["P(3000)", "C(40000)"])
@pytest.mark.parametrize("before", [[], ["P(1)"]], ids=["alone", "after-a-fitting-one"])
def test_counts_refuse_a_huge_pattern_before_building_its_tables(before, oversize):
    # its tables would take one trie level per arc; only count's check runs
    (T,) = random_tournaments(5, 4, 1)
    specs = [Digraph2Spec.parse(text) for text in before + [oversize]]
    order = specs[-1].order
    with pytest.raises(TypeTooLongError, match=f"pattern needs {order} vertices, host has 5"):
        CopyCounter(T).counts(specs)


def test_counts_of_fitting_patterns_are_unchanged_by_an_oversize_neighbour():
    (T,) = random_tournaments(5, 4, 1)
    specs = [Digraph2Spec.parse(text) for text in ("P(1)", "C(1,-2)", "P(2,-1);V")]
    counter = CopyCounter(T)
    with pytest.raises(TypeTooLongError):
        counter.counts(specs + [Digraph2Spec.parse("P(3000)")])
    assert counter.counts(specs) == [count_copies(T, spec) for spec in specs]


def test_count_refuses_placements_the_repetitions_do_not_divide(monkeypatch):
    # a faulty table source answers the two lookups of the repeated arc
    # component differently, so one ordered placement is left for 2! orders
    answers = iter([{0b0011: 1}, {0b1100: 1}])
    monkeypatch.setattr(CopyCounter, "_table", lambda self, comp: next(answers))
    with pytest.raises(DivisibilityViolationError, match="1 ordered placements not divisible by 2"):
        CopyCounter(TT4).count(Digraph2Spec.parse("P(1);P(1)"))


def test_pattern_invariants_fixed_at_construction():
    d = Digraph2Spec.parse("P(1);C(1,-2);P(1);V")
    assert (d.order, d.isolated, d._repetitions) == (8, 1, 2)
    assert d.core() == (("P", (1,)), ("P", (1,)), ("C", (1, -2)))
    same = Digraph2Spec((("V",), ("P", (1,)), ("C", (2, -1)), ("P", (1,))))
    assert d == same and hash(d) == hash(same)
    assert repr(d) == f"Digraph2Spec(components={d.components!r})"


def test_check_complement_invariance_example():
    assert check_complement_invariance(TT3, Digraph2Spec.parse("P(1,-1)")) == (1, 1)


@given(random_small())
@settings(max_examples=20, deadline=None)
def test_complement_invariance_holds(T):
    for text in ["P(1)", "P(2)", "P(1,-1)", "C(1,-2)", "C(3)", "P(1);P(1)", "P(1);V"]:
        spec = Digraph2Spec.parse(text)
        if spec.order <= T.n:
            a, b = check_complement_invariance(T, spec)
            assert a == b



# --- the reversed host's copies of H are the host's copies of -H ------------------

@pytest.mark.parametrize("n", range(5, 9))
def test_reversal_counts_match_a_counter_on_the_complement(n):
    specs = all_digraph_specs(min(n, 6))
    negations = [_negated(H) for H in specs]
    for T in random_tournaments(n, 40 + n, 2):
        expected = CopyCounter(T.complement()).counts(specs)
        assert CopyCounter(T).counts(negations) == expected, T.serialize()
        forward = CopyCounter(T)
        forward.counts(specs)  # -H then reads tables built already
        assert forward.counts(negations) == expected, T.serialize()


def test_reversal_count_matches_a_counter_on_the_complement():
    (T,) = random_tournaments(8, 9, 1)
    counter = CopyCounter(T)
    for seed in range(20):
        H = random_digraph_spec(8, seed)
        expected = CopyCounter(T.complement()).count(H)
        assert counter.count(_negated(H)) == expected, H.render()
        assert CopyCounter(T).count(_negated(H)) == expected, H.render()


def test_negations_build_no_tables_of_their_own(monkeypatch):
    (T,) = random_tournaments(7, 5, 1)
    specs = all_digraph_specs(6)
    H = Digraph2Spec.parse("C(1,-1,1,-4)")  # order 7: a table the host lacks
    expected = count_copies(T.complement(), H)
    hosts = []
    real = digraphs_mod._span_tables

    def counting(host, comps):
        hosts.append(host)
        return real(host, comps)
    monkeypatch.setattr(digraphs_mod, "_span_tables", counting)
    counter = CopyCounter(T)
    counter.counts(specs)
    counter.counts([_negated(spec) for spec in specs])  # every negation was in the walk
    assert hosts == [T]
    assert counter.count(_negated(H)) == expected
    assert hosts == [T, T]


@pytest.mark.parametrize("n", [7, 8])
def test_negated_components_are_canonical_and_their_tables_are_the_complements(n):
    specs = all_digraph_specs(7)
    assert all(_negated(_negated(H)) == H for H in specs)
    comps = tuple(dict.fromkeys(c for H in specs for c in H.core()))
    negated = tuple(_negated(Digraph2Spec((c,))).core()[0] for c in comps)
    for c, neg in zip(comps, negated):
        assert _canonical_component(*neg) == neg, c
        # a walk on the reversal with c's word is the walk on the host with
        # the complemented word, whose class is the negation's; the tables
        # below agree mask by mask for c itself too, by the theorem
        m = arc_sum(c[1])
        flipped = word_int(c[1]) ^ ((1 << m) - 1)
        classes = _path_word_classes(m + 1) if c[0] == "P" else _cycle_word_classes(m)
        assert classes[flipped] == neg[1], c
    (T,) = random_tournaments(n, 60 + n, 1)
    on_host = _span_tables(T, tuple(dict.fromkeys(negated)))
    on_complement = _span_tables(T.complement(), comps)
    for c, neg in zip(comps, negated):
        assert on_host[neg] == on_complement[c], c


@pytest.mark.parametrize("n", range(7, 11))
@pytest.mark.parametrize("text, own_negation", [
    ("P(2)", True),
    ("P(1,-1);P(-1,1)", True),
    ("P(2,-1);C(1,-2)", False),
    ("P(1,-1);C(1,-1,2,-2);V", False),  # order 10: counted on the order-10 host
])
def test_complement_invariance_counts_h_on_the_host_and_on_its_complement(n, text, own_negation):
    H = Digraph2Spec.parse(text)
    assert (_negated(H) == H) == own_negation
    for T in random_tournaments(n, 70 + n, 2):
        if H.order > n:
            with pytest.raises(TypeTooLongError):
                check_complement_invariance(T, H)
            continue
        # the second count from its own walk on the complement
        expected = (count_copies(T, H), count_copies(T.complement(), H))
        assert check_complement_invariance(T, H) == expected, T.serialize()

# --- inventories and sampling ---------------------------------------------------

def test_all_digraph_specs_small():
    assert [s.render() for s in all_digraph_specs(3)] == [
        "P(1)", "P(1);V", "P(1,-1)", "P(2)", "P(-1,1)",
        "C(1,-2)", "C(3)", "V", "V;V", "V;V;V",
    ]


def test_all_digraph_specs_bounded_and_unique():
    specs = all_digraph_specs(5)
    assert len(specs) == len({s.render() for s in specs})
    assert all(1 <= s.order <= 5 for s in specs)


def test_random_digraph_spec_deterministic():
    a = random_digraph_spec(6, 99)
    b = random_digraph_spec(6, 99)
    assert a == b
    assert a.order == 6
    assert random_digraph_spec(1, 3).order == 1


def test_random_digraph_spec_renders_unchanged():
    # sha256 of the renders for orders 1..12 and seeds 0..99, recorded when the
    # sign-word helpers of digraphs.py were replaced by those of census.py
    renders = "\n".join(random_digraph_spec(order, seed).render()
                        for order in range(1, 13) for seed in range(100))
    digest = hashlib.sha256(renders.encode()).hexdigest()
    assert digest == "1353f7134186c323f60dce27040d8992e5d468151f865d46c75b63c20ef24187"
    assert [random_digraph_spec(9, seed).render() for seed in range(3)] == [
        "P(4,-2,1);V", "C(2,-4);C(3)", "P(1);P(4);V;V",
    ]


def test_random_digraph_spec_varies():
    seen = {random_digraph_spec(5, seed).render() for seed in range(30)}
    assert len(seen) > 3


# --- the one-sided counterexample -----------------------------------------------

def test_star_counterexample_values():
    assert star_counterexample(3) == (1, 0)
    assert star_counterexample(4) == (1, 0)
    assert star_counterexample(5) == (1, 0)


def test_star_counterexample_guard():
    with pytest.raises(TypeTooLongError):
        star_counterexample(2)
