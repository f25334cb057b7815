"""Unit tests for the bit-packed tournament representation."""

import io
import re
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tourcensus import (
    MAX_ORDER,
    BadSubsetError,
    ParseError,
    ScopeTooLargeError,
    Tournament,
    all_tournaments,
    load_tournaments,
    pair_index,
    random_tournament,
    random_tournaments,
    seed_stream,
    transitive,
)


def tournaments(max_n=6):
    return st.integers(2, max_n).flatmap(
        lambda n: st.builds(
            Tournament, st.just(n), st.integers(0, (1 << (n * (n - 1) // 2)) - 1)
        )
    )


def test_pair_index_layout():
    # row-major over i < j: (0,1) (0,2) ... (0,n-1) (1,2) ...
    n = 5
    seen = [pair_index(i, j, n) for i in range(n) for j in range(i + 1, n)]
    assert seen == list(range(n * (n - 1) // 2))


@pytest.mark.parametrize("i, j", [(1, 0), (2, 2), (-1, 2), (0, 5)])
def test_pair_index_rejects_bad_pairs(i, j):
    with pytest.raises(ValueError, match="bad pair"):
        pair_index(i, j, 5)


def test_has_arc_is_false_off_the_vertex_set():
    T = transitive(3)
    assert not T.has_arc(0, 3)
    assert not T.has_arc(-1, 2)
    assert not T.has_arc(1, 1)


def test_arc_semantics():
    T = Tournament.parse("3:101")
    assert T.has_arc(0, 1)
    assert T.has_arc(1, 2)
    assert T.has_arc(2, 0)  # bit 0 for pair (0,2) means the arc points back
    assert not T.has_arc(0, 2)
    assert sorted(T.arcs()) == [(0, 1), (1, 2), (2, 0)]


def test_out_degrees_sum():
    T = Tournament.parse("4:110100")
    assert sum(T.out_degree(v) for v in range(4)) == 6


def test_serialize_roundtrip():
    for text in ["2:0", "2:1", "3:111", "4:010011", "5:0000000000"]:
        assert Tournament.parse(text).serialize() == text


@given(tournaments())
def test_parse_serialize_roundtrip(T):
    assert Tournament.parse(T.serialize()) == T


@given(st.integers(0, 8).flatmap(
    lambda n: st.text("01", min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)
    .map(lambda bits: f"{n}:{bits}")))
def test_serialize_parse_text_roundtrip(text):
    assert Tournament.parse(text).serialize() == text


def test_parse_rejects_non_ascii_orders():
    # str.isdigit() passes both; int() reads the first and rejects the second
    for text in ("\u0663:111", "\u00b2:", "3\u0661:1"):
        with pytest.raises(ParseError, match="bad order") as exc:
            Tournament.parse(text)
        assert exc.value.offset == 0


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError, match="missing ':'"):
        Tournament.parse("3111")
    with pytest.raises(ParseError, match="bad order"):
        Tournament.parse("x:1")
    with pytest.raises(ParseError, match="expected 3 relation bits"):
        Tournament.parse("3:11")
    with pytest.raises(ParseError, match="byte 3"):
        Tournament.parse("3:1x1")
    with pytest.raises(ParseError, match="maximum"):
        Tournament.parse("17:" + "0" * 136)


def test_complement_reverses_every_arc():
    T = Tournament.parse("4:110100")
    R = T.complement()
    for u, v in T.arcs():
        assert R.has_arc(v, u)
    assert T.complement().complement() == T


def test_transitive_is_low_to_high():
    T = transitive(3)
    assert sorted(T.arcs()) == [(0, 1), (0, 2), (1, 2)]
    assert transitive(3).serialize() == "3:111"
    assert transitive(1).serialize() == "1:"


def test_transitive_complement_reversed():
    # reversing the transitive tournament turns 0->1,0->2,1->2 into its mirror
    R = transitive(3).complement()
    assert sorted(R.arcs()) == [(1, 0), (2, 0), (2, 1)]


@given(tournaments(5))
def test_induced_keeps_relative_orientation(T):
    vs = list(range(0, T.n, 2))
    S = T.induced(vs)
    assert S.n == len(vs)
    for a in range(len(vs)):
        for b in range(len(vs)):
            if a != b:
                assert S.has_arc(a, b) == T.has_arc(vs[a], vs[b])


def test_induced_subset_handling():
    T = transitive(4)
    assert T.induced([0, 0, 1]).n == 2  # duplicates collapse, set semantics
    with pytest.raises(BadSubsetError):
        T.induced([0, 9])


@pytest.mark.parametrize("head, shown", [
    ("9" * 5000, "of 5000 digits"),
    ("0" * 5000 + "17", "17"),
    ("123", "123"),
])
def test_parse_refuses_a_long_order_unconverted(head, shown):
    set_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    old = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit(640)  # the smallest limit an interpreter accepts
    try:
        with pytest.raises(ParseError) as exc:
            Tournament.parse(head + ":")
    finally:
        set_limit(old)
    assert str(exc.value) == f"order {shown} exceeds supported maximum 16 (byte 0)"
    assert Tournament.parse("0" * 5000 + "3:111") == Tournament.parse("3:111")


def test_load_tournaments_names_the_line_of_a_long_order():
    with pytest.raises(ParseError, match=r"^line 2: order of 5000 digits exceeds"):
        load_tournaments(["3:111\n", "9" * 5000 + ":\n"])


def test_load_tournaments_skips_blank_and_comments():
    lines = ["# header", "", "3:111", "  3:101  ", "# done"]
    ts = load_tournaments(lines)
    assert [t.serialize() for t in ts] == ["3:111", "3:101"]


@pytest.mark.parametrize("text, line, offset", [
    ("  3:1x1\n", 1, 5),  # leading blanks
    ("3:111\n3:1x1\n", 2, 9),
    ("3:111\r\n3:1x1\r\n", 2, 10),  # CRLF, read with newline=""
    ("# note\n3:1x1\n", 2, 10),  # a comment line
    ("\n\n3:1x1", 3, 5),  # blank lines
    ("# \u00e9\n \t3:1x1\n", 2, 10),  # a two-byte character before
])
def test_load_tournaments_error_offsets_are_in_the_file(text, line, offset):
    with pytest.raises(ParseError) as info:
        load_tournaments(io.StringIO(text, newline=""))
    assert info.value.offset == offset
    assert str(info.value) == f"line {line}: bad relation character 'x' (byte {offset})"
    assert text.encode()[offset:offset + 1] == b"x"


def test_load_tournaments_short_line_offset_is_its_end():
    text = "3:111\r\n\t3:10\r\n"
    with pytest.raises(ParseError, match=r"^line 2: expected 3 relation bits, got 2 \(byte 12\)$"):
        load_tournaments(io.StringIO(text, newline=""))
    assert text[12:14] == "\r\n"


def test_all_tournaments_counts():
    assert len(list(all_tournaments(2))) == 2
    assert len(list(all_tournaments(3))) == 8
    assert len(list(all_tournaments(4))) == 64
    with pytest.raises(ScopeTooLargeError):
        list(all_tournaments(7))
    # the override admits order 7 without materializing all 2^21 here
    first = next(all_tournaments(7, allow_large=True))
    assert first.n == 7 and first.bits == 0


def test_seed_stream_is_splitmix64():
    # first outputs for seed 0 of the widely used splitmix64 sequence
    s = seed_stream(0)
    assert next(s) == 0xE220A8397B1DCDAF
    assert next(s) == 0x6E789E6AA1B965F4
    assert next(s) == 0x06C45D188009454F


@pytest.mark.parametrize("seed", [-1, 1 << 64, -(1 << 64), 1 << 200])
def test_seed_stream_refuses_a_seed_outside_64_bits_on_its_first_draw(seed):
    stream = seed_stream(seed)
    with pytest.raises(ValueError, match=r"^seed outside supported range "
                                         r"0\.\.18446744073709551615$"):
        next(stream)


def test_seed_stream_draws_from_the_largest_seed():
    top = (1 << 64) - 1
    first = next(seed_stream(top))
    assert 0 <= first <= top
    # not the stream of a seed reduced mod 2^64
    assert first != next(seed_stream(top & 0xFFFF))
    assert random_tournament(6, top) == random_tournament(6, top)


def test_random_tournament_determinism():
    a = random_tournament(8, 123)
    b = random_tournament(8, 123)
    c = random_tournament(8, 124)
    assert a == b
    assert a != c  # 1 in 2^28 chance of a false alarm, fixed seeds


def test_random_tournaments_sequence():
    ts = list(random_tournaments(6, 5, 4))
    assert len(ts) == 4
    assert list(random_tournaments(6, 5, 4)) == ts
    # prefix property: the first k draws do not depend on the count
    assert list(random_tournaments(6, 5, 2)) == ts[:2]


def test_max_order_cap():
    assert MAX_ORDER == 16
    with pytest.raises(ScopeTooLargeError):
        Tournament(17, 0)
    with pytest.raises(ValueError):
        Tournament(3, 8)  # only 3 relation bits exist at order 3


@pytest.mark.parametrize("n", [6000, -6000, 17, -1])
def test_random_order_refused_before_any_draw(monkeypatch, n):
    def refuse(seed):
        raise AssertionError("drew a random word for an unsupported order")

    monkeypatch.setattr("tourcensus.tournaments.seed_stream", refuse)
    message = f"order {n} outside supported range 0..16"
    with pytest.raises(ScopeTooLargeError, match=re.escape(message)):
        random_tournament(n, 0)
    with pytest.raises(ScopeTooLargeError, match=re.escape(message)):
        next(random_tournaments(n, 0, 1))


@pytest.mark.parametrize("n", [20000, -20000])
def test_transitive_order_refused_before_the_relation_is_built(n):
    tracemalloc.start()
    try:
        with pytest.raises(ScopeTooLargeError, match="outside supported range"):
            transitive(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # the order-20000 relation alone is about 25 MB


def test_readme_serialization_example():
    # the README's order-4 example states its pair order and arcs; both must
    # be what parse() reads
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    text = " ".join(readme.split())
    m = re.search(r"`(4:[01]{6})` reads the pairs `([^`]*)` and has the arcs `([^`]*)`", text)
    assert m, "README lost its order-4 serialization example"
    T = Tournament.parse(m.group(1))
    pairs = [tuple(map(int, p)) for p in re.findall(r"\((\d),(\d)\)", m.group(2))]
    assert [pair_index(i, j, 4) for i, j in pairs] == list(range(6))
    arcs = {tuple(map(int, a.split("->"))) for a in m.group(3).split(", ")}
    assert arcs == set(T.arcs())
