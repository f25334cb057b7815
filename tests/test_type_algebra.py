"""Unit tests for signed block tuple arithmetic."""

import sys
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tourcensus import (
    EmptyTypeError,
    IllFormedError,
    ParseError,
    arc_sum,
    check_standard_cycle,
    check_standard_path,
    cycle_canonical,
    cycle_orbit,
    cycle_type_symmetric,
    delta,
    expand_signs,
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
    word_int,
)
from tourcensus.type_algebra import _cyclic_runs_from_word, _runs_from_word


def standard_paths(max_sum=6):
    return st.integers(1, max_sum).flatmap(
        lambda m: st.sampled_from(standard_tuples(m, "path"))
    )


def standard_cycles(max_sum=6):
    return st.integers(1, max_sum).flatmap(
        lambda m: st.sampled_from(standard_tuples(m, "cycle"))
    )


# --- basic predicates -------------------------------------------------------

def test_arc_sum():
    assert arc_sum((2, -1)) == 3
    assert arc_sum(()) == 0
    assert arc_sum((-4,)) == 4


def test_negate_and_neg_reverse():
    assert negate((2, -1)) == (-2, 1)
    assert neg_reverse((2, -1)) == (1, -2)
    assert neg_reverse((1, -1)) == (1, -1)


def test_standard_path_predicate():
    assert is_standard_path((2, -1))
    assert is_standard_path((-3,))
    assert not is_standard_path(())
    assert not is_standard_path((1, 2))  # same sign adjacent
    assert not is_standard_path((1, 0, -1))


def test_standard_cycle_predicate():
    assert is_standard_cycle((3,))
    assert is_standard_cycle((1, -2))
    assert not is_standard_cycle((1, -1, 1))  # odd length > 1 cannot close
    assert not is_standard_cycle((1, 2))
    assert not is_standard_cycle(())


def test_check_raises():
    with pytest.raises(EmptyTypeError):
        check_standard_path(())
    with pytest.raises(IllFormedError):
        check_standard_path((1, 1))
    with pytest.raises(EmptyTypeError):
        check_standard_cycle(())
    with pytest.raises(IllFormedError):
        check_standard_cycle((1, -1, 1))


@given(standard_paths())
def test_neg_reverse_involution(alpha):
    assert neg_reverse(neg_reverse(alpha)) == alpha


@given(standard_paths())
def test_negate_preserves_standard(alpha):
    assert is_standard_path(negate(alpha))
    assert arc_sum(negate(alpha)) == arc_sum(alpha)


# --- normalization ----------------------------------------------------------

def test_normalize_path_passthrough():
    assert normalize_path((2, -1)) == (2, -1)
    assert normalize_path((1, -1)) == (1, -1)


def test_normalize_path_merges_interior_zero():
    assert normalize_path((2, 0, 3)) == (5,)
    assert normalize_path((1, 0, 1)) == (2,)
    assert normalize_path((-1, 0, -2, 1)) == (-3, 1)


def test_normalize_path_drops_edge_zeros():
    assert normalize_path((0, 2, -1)) == (2, -1)
    assert normalize_path((2, -1, 0)) == (2, -1)
    assert normalize_path((0, -2, 0)) == (-2,)


def test_normalize_path_rejects_bad_input():
    with pytest.raises(EmptyTypeError):
        normalize_path(())
    with pytest.raises(EmptyTypeError):
        normalize_path((0, 0))
    with pytest.raises(IllFormedError):
        normalize_path((1, 0, -2))  # opposite signs across the zero
    with pytest.raises(IllFormedError):
        normalize_path((1, 2))  # merging needs an explicit zero


def test_normalize_cycle_passthrough():
    assert normalize_cycle((1, -2)) == (1, -2)
    assert normalize_cycle((4,)) == (4,)


def test_normalize_cycle_two_entry_collapse():
    # the survivor closes into a circuit
    assert normalize_cycle((0, -3)) == (-3,)
    assert normalize_cycle((3, 0)) == (3,)


def test_normalize_cycle_wrap_merges():
    # a leading zero fuses the second and last blocks
    assert normalize_cycle((0, 2, -1, 3)) == (5, -1)
    # a trailing zero fuses the first and next-to-last blocks
    assert normalize_cycle((2, -1, 3, 0)) == (5, -1)
    # interior zero
    assert normalize_cycle((1, -2, 0, -1, 2, -3)) == (1, -3, 2, -3)


def test_normalize_cycle_rejects_bad_input():
    with pytest.raises(EmptyTypeError):
        normalize_cycle(())
    with pytest.raises(EmptyTypeError):
        normalize_cycle((0,))
    with pytest.raises(EmptyTypeError):
        normalize_cycle((0, 0))
    with pytest.raises(IllFormedError):
        normalize_cycle((0, 2, -2))  # wrap merge hits opposite signs
    with pytest.raises(IllFormedError):
        normalize_cycle((1, 0, -1, 1))


@given(standard_cycles())
def test_normalize_cycle_fixed_point(beta):
    assert normalize_cycle(beta) == beta


def _outcome(normalize, raw):
    try:
        return normalize(raw)
    except (EmptyTypeError, IllFormedError) as exc:
        return type(exc)


def test_path_and_cycle_agree_when_the_ends_fix_the_wrap():
    # nonzero ends of opposite sign: the wrap pair passes and merges nothing
    checked = 0
    for length in range(2, 7):
        for raw in product(range(-3, 4), repeat=length):
            if raw[0] * raw[-1] < 0:
                checked += 1
                assert _outcome(normalize_cycle, raw) == _outcome(normalize_path, raw), raw
    assert checked == 50418


def test_zeroing_a_one_arc_block_deletes_that_arc_from_the_word():
    inputs = 0
    for kind, normalize, runs in (("path", normalize_path, _runs_from_word),
                                  ("cycle", normalize_cycle, _cyclic_runs_from_word)):
        for m in range(2, 9):
            for tup in standard_tuples(m, kind):
                w, k = word_int(tup), 0
                for i, x in enumerate(tup):
                    if abs(x) == 1:
                        inputs += 1
                        rest = w & ((1 << k) - 1) | w >> (k + 1) << k
                        assert normalize(tup[:i] + (0,) + tup[i + 1:]) == runs(rest, m - 1)
                    k += abs(x)
    assert inputs == 1726


@pytest.mark.parametrize("raw, path, cycle", [
    ((1, 0, 0, 1), (2,), IllFormedError),  # around the wrap 1, 1 are side by side
    ((-3, 0, 0, 1), IllFormedError, IllFormedError),  # zeros cancel nothing
    ((-3, -3, 0), IllFormedError, IllFormedError),  # no zero between the two
    ((0, 0, -3, 1), (-3, 1), IllFormedError),  # around the wrap 1, -3 lie across zeros
])
def test_one_zero_rule_examples(raw, path, cycle):
    assert _outcome(normalize_path, raw) == path
    assert _outcome(normalize_cycle, raw) == cycle


def test_zero_rule_errors_name_the_raw_entries():
    with pytest.raises(IllFormedError, match="opposite signs 2, -1"):
        normalize_path((1, 0, 2, 0, -1))
    with pytest.raises(IllFormedError, match="same-sign entries -3, -3"):
        normalize_cycle((-3, -3, 0))
    with pytest.raises(IllFormedError, match="opposite signs 1, -3"):
        normalize_cycle((0, 0, -3, 1))


# --- symmetry and canonical forms -------------------------------------------

def test_is_symmetric():
    assert is_symmetric((1, -1))
    assert is_symmetric((2, -2))
    assert is_symmetric((1, -2, 2, -1))
    assert not is_symmetric((2, -1))
    assert not is_symmetric((3,))


def test_path_canonical_picks_smaller_reading():
    assert path_canonical((2, -1)) == (1, -2)
    assert path_canonical((1, -2)) == (1, -2)
    assert path_canonical((-1, 2)) == (-1, 2)
    assert path_canonical((1, -1)) == (1, -1)


@given(standard_paths())
def test_path_canonical_is_orbit_invariant(alpha):
    assert path_canonical(alpha) == path_canonical(neg_reverse(alpha))
    assert path_canonical(alpha) in (alpha, neg_reverse(alpha))


def test_cycle_orbit_contents():
    # positives before negatives, small magnitudes first
    assert cycle_orbit((2, -1)) == [(1, -2), (2, -1), (-1, 2), (-2, 1)]


def test_cycle_orbit_returns_a_fresh_list():
    # the orbit is cached; mutating one caller's list must not reach the next
    orbit = cycle_orbit((2, -1))
    orbit.clear()
    assert cycle_orbit([2, -1]) == [(1, -2), (2, -1), (-1, 2), (-2, 1)]
    assert cycle_orbit((2, -1)) is not cycle_orbit((2, -1))
    assert cycle_canonical((2, -1)) == (1, -2)


def test_cycle_canonical_examples():
    assert cycle_canonical((2, -1)) == (1, -2)
    assert cycle_canonical((-2, 1)) == (1, -2)
    assert cycle_canonical((3,)) == (3,)
    assert cycle_canonical((-3,)) == (3,)  # reversal of a circuit
    assert cycle_canonical((2, -1, 1, -2)) == (1, -2, 2, -1)


@given(standard_cycles())
def test_cycle_canonical_is_orbit_invariant(beta):
    canon = cycle_canonical(beta)
    for member in cycle_orbit(beta):
        assert cycle_canonical(member) == canon
    assert canon in cycle_orbit(beta)


def test_cycle_type_symmetric():
    assert cycle_type_symmetric((1, -1))
    assert cycle_type_symmetric((1, -1, 2, -2))  # symmetric member appears rotated
    assert not cycle_type_symmetric((1, -2, 1, -2))
    # a circuit is never direction-symmetric as a tuple; delta special-cases it
    assert not cycle_type_symmetric((3,))


# --- period, delta, star ----------------------------------------------------

def test_period_info():
    assert period_info((1, -2)) == (2, 1)
    assert period_info((1, -1, 1, -1)) == (2, 2)
    assert period_info((1, -2, 1, -2, 1, -2)) == (2, 3)
    assert period_info((4,)) == (1, 1)
    with pytest.raises(EmptyTypeError):
        period_info(())


@pytest.mark.parametrize("fn, tup", [
    (cycle_canonical, (2, -1, 1, -2)),
    (period_info, (1, -2, 1, -2)),
    (delta, (1, -1, 1, -1)),
    (delta, (5,)),
])
def test_cached_type_functions_take_any_iterable(fn, tup):
    assert fn(list(tup)) == fn(x for x in tup) == fn(tup)
    assert fn.__name__ == fn.__wrapped__.__name__  # the public name, as tracers see it


def test_period_info_of_an_empty_iterable_raises():
    for empty in ([], (), iter(())):
        with pytest.raises(EmptyTypeError):
            period_info(empty)


def test_delta_cases():
    assert delta((4,)) == 4  # circuit: the arc count
    assert delta((-4,)) == 4
    assert delta((1, -1)) == 2  # symmetric
    assert delta((1, -1, 2, -2)) == 2  # symmetric via a rotation
    assert delta((1, -2)) == 1
    with pytest.raises(IllFormedError):
        delta((1, -1, 1))


def test_star_one():
    assert star_one((2, -1), 1) == 1
    assert star_one((2, -1), 2) == -2
    assert star_one((-2, 1), 1) == -1  # negative lead shifts the other way
    assert star_one((-2, 1), 2) == 2
    assert star_one((1, -2), 1) == 0  # a block may vanish
    with pytest.raises(IndexError):
        star_one((2, -1), 3)
    with pytest.raises(IndexError):
        star_one((2, -1), 0)


# --- generated cycles -------------------------------------------------------

def test_generated_cycles_even_count():
    got = generated_cycle_types((1, -1))
    assert got.first == got.second == (1, -2)
    assert got.coincide

    got = generated_cycle_types((1, -2))
    assert got.first == cycle_canonical((2, -2))
    assert got.second == cycle_canonical((1, -3))
    assert not got.coincide


def test_generated_cycles_odd_count():
    got = generated_cycle_types((1, -1, 1))
    assert got.first == (1, -1, 1, -1)
    assert got.second == (1, -3)
    assert not got.coincide

    got = generated_cycle_types((3,))
    assert got.first == (1, -3)
    assert got.second == (4,)
    assert not got.coincide


def test_generated_cycles_direction_free():
    # both readings of a path close into the same unordered pair of types
    for alpha in [(1, -1, 1), (2, -1), (1, -2, 1), (3,), (-2, 3)]:
        a = generated_cycle_types(alpha)
        b = generated_cycle_types(neg_reverse(alpha))
        assert {a.first, a.second} == {b.first, b.second}


@given(standard_paths())
def test_generated_cycles_arc_sum(alpha):
    got = generated_cycle_types(alpha)
    assert arc_sum(got.first) == arc_sum(alpha) + 1
    assert arc_sum(got.second) == arc_sum(alpha) + 1


@given(standard_paths())
def test_generated_cycles_odd_never_coincide(alpha):
    got = generated_cycle_types(alpha)
    if len(alpha) % 2:
        # block counts s+1 and s-1 (or 1) can never match after canonicalizing
        assert not got.coincide
    else:
        assert got.coincide == is_symmetric(alpha)


# --- inventories ------------------------------------------------------------

def test_standard_tuples_path():
    assert set(standard_tuples(1, "path")) == {(1,), (-1,)}
    assert set(standard_tuples(2, "path")) == {(2,), (-2,), (1, -1), (-1, 1)}
    assert len(standard_tuples(4, "path")) == 16  # 2 * 2^(4-1)


def test_standard_tuples_cycle():
    assert set(standard_tuples(3, "cycle")) == {
        (3,), (-3,), (1, -2), (2, -1), (-1, 2), (-2, 1),
    }
    for beta in standard_tuples(6, "cycle"):
        assert is_standard_cycle(beta)


def test_standard_tuples_errors():
    with pytest.raises(ValueError):
        standard_tuples(0, "path")
    with pytest.raises(ValueError):
        standard_tuples(2, "loop")


def test_standard_tuples_sorted_and_complete():
    for m in range(1, 7):
        tuples = standard_tuples(m, "path")
        assert len(tuples) == len(set(tuples))
        assert all(arc_sum(t) == m for t in tuples)
        assert len(tuples) == 2 ** m  # 2 phases x 2^(m-1) compositions


def test_symmetric_tuples():
    assert symmetric_tuples(1) == ()
    assert set(symmetric_tuples(2)) == {(1, -1), (-1, 1)}
    assert set(symmetric_tuples(4)) == {
        (1, -1), (-1, 1), (2, -2), (-2, 2), (1, -1, 1, -1), (-1, 1, -1, 1),
    }
    for t in symmetric_tuples(8):
        assert is_symmetric(t)
        assert arc_sum(t) <= 8
    # every symmetric standard tuple with arc sum 4 appears
    all4 = [t for t in standard_tuples(4, "path") if is_symmetric(t)]
    assert set(all4) <= set(symmetric_tuples(4))


def _signed_compositions(total):
    """Every tuple of nonzero integers whose magnitudes sum to ``total``."""
    if total == 0:
        return [()]
    out = []
    for head in range(1, total + 1):
        for rest in _signed_compositions(total - head):
            out.append((head,) + rest)
            out.append((-head,) + rest)
    return out


def _positive_first_key(tup):
    return [(x < 0, abs(x)) for x in tup]


@pytest.mark.parametrize("kind,standard", [
    ("path", is_standard_path), ("cycle", is_standard_cycle),
])
def test_standard_tuples_match_a_from_scratch_inventory(kind, standard):
    for m in range(1, 9):
        expected = sorted(
            (t for t in _signed_compositions(m) if standard(t)), key=_positive_first_key
        )
        assert len(expected) == len(set(expected))
        if kind == "path":
            assert len(expected) == 2 ** m
        assert list(standard_tuples(m, kind)) == expected


def test_every_sign_word_round_trips_through_its_runs():
    for m in range(11):
        for w in range(1 << m):
            runs = _runs_from_word(w, m)
            assert word_int(runs) == w
            assert expand_signs(runs) == tuple(1 if w >> i & 1 else -1 for i in range(m))


# --- text form --------------------------------------------------------------

def test_format_type():
    assert format_type((2, -1)) == "(2,-1)"
    assert format_type((5,)) == "(5)"


def test_parse_type_roundtrip():
    for tup in [(2, -1), (1, -1, 1), (-4,), (1, -2, 2, -1)]:
        assert parse_type(format_type(tup)) == tup


def test_parse_type_tolerates_spaces():
    assert parse_type(" ( 2 , -1 ) ") == (2, -1)


def test_parse_type_errors():
    with pytest.raises(ParseError):
        parse_type("2,-1")
    with pytest.raises(ParseError):
        parse_type("(2,-1")
    with pytest.raises(ParseError):
        parse_type("()")
    with pytest.raises(ParseError) as exc:
        parse_type("(2,x)")
    assert "byte" in str(exc.value)


@pytest.mark.parametrize("limit", [0, 640, 4300])
def test_parse_type_refuses_a_long_integer_whatever_the_int_limit(limit):
    # interpreters before the limit existed convert any length: nothing to set
    set_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    old = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit(limit)
    try:
        for text, offset in (("(" + "1" * 5000 + ")", 1), ("(2, -" + "0" * 641 + ")", 3)):
            with pytest.raises(ParseError) as exc:
                parse_type(text)
            assert exc.value.offset == offset
            assert len(str(exc.value)) < 80  # the digits are not echoed
        assert parse_type("(" + "7" * 640 + ",-1)") == (int("7" * 640), -1)
    finally:
        set_limit(old)


def test_parse_type_rejects_non_ascii_digit_grammar():
    # the grammar is ASCII: '-', digits, commas, parentheses and ASCII spaces;
    # int() and str.strip() alone would accept '1_0', '+1', '\u0663' and '\u3000'
    for text, offset in (("(1_0)", 1), ("(2,+1)", 3), ("(\u0663)", 1), ("(2,\u00b2)", 3),
                         ("(2)\u00e9", 3), ("\u3000(2)", 0), ("(2, \u0661)", 4)):
        with pytest.raises(ParseError) as exc:
            parse_type(text)
        assert exc.value.offset == offset, text


@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=8),
       st.sampled_from(["", " ", "\t", "  \n"]))
def test_parse_type_format_roundtrip_property(tup, pad):
    text = format_type(tup)
    assert parse_type(text) == tuple(tup)
    assert parse_type(pad + text.replace(",", pad + "," + pad) + pad) == tuple(tup)

