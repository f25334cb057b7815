"""Arithmetic on the signed block tuples that classify oriented paths and cycles.

An oriented path or cycle in a tournament decomposes into maximal directed
runs (blocks).  Its type is the tuple of block lengths, signed by direction
relative to the traversal: ``(2, -1)`` means two forward arcs then one
backward arc.  Standard tuples contain no zeros and strictly alternate in
sign; standard cycle tuples additionally have a single block or an even
number of blocks, so the alternation closes up around the wrap.

Zeros appear transiently in calculations (an empty block).  The normalize
functions remove them under one rule: two consecutive nonzero entries must
share a sign exactly when zeros lie between them, and those across zeros
merge.  A cycle reads the rule around the wrap as well.

A type is also read arc by arc as a sign word, an int with bit i set when
arc i runs forward (``word_int((2, -1)) == 0b011``); ``_runs_from_word``
splits a word back into blocks, and every inventory here is built from words.
The word tables are built one rotation orbit at a time: ``_rotation_orbits``
gives every n-bit cyclic word its orbit's least word and every orbit its
size, so the cycle table makes one ``cycle_canonical`` call per orbit and the
orbit of its negated reversal, and the path table one ``path_canonical`` call
per word and its negated reversal.  The type inventories are the sorted sets
of the two tables.  The orbits only decide which words share a result; each
result is still the canonical function's.
"""

from __future__ import annotations

import re
from collections import Counter
from functools import lru_cache, wraps
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import EmptyTypeError, IllFormedError, ParseError, TooShortError, _shown

SignedTuple = tuple[int, ...]

_SPACE = " \t\n\r\f\v"
_INTEGER = re.compile(r"-?[0-9]+")
_MAX_DIGITS = 640  # int() converts this many digits under any sys.set_int_max_str_digits

__all__ = [
    "SignedTuple",
    "PeriodInfo",
    "GeneratedCycles",
    "arc_sum",
    "negate",
    "neg_reverse",
    "is_standard_path",
    "is_standard_cycle",
    "check_standard_path",
    "check_standard_cycle",
    "normalize_path",
    "normalize_cycle",
    "is_symmetric",
    "path_canonical",
    "cycle_orbit",
    "cycle_canonical",
    "cycle_type_symmetric",
    "period_info",
    "delta",
    "star_one",
    "generated_cycle_types",
    "standard_tuples",
    "symmetric_tuples",
    "expand_signs",
    "word_int",
    "path_type_classes",
    "cycle_type_classes",
    "parse_type",
    "format_type",
]


def _memo(fn: Callable[[SignedTuple], object]) -> Callable[[Iterable[int]], object]:
    """``fn`` of one block tuple, taking any iterable of ints, with a cache
    sized for every standard tuple of arc sum <= 16."""
    cached = lru_cache(maxsize=1 << 16)(fn)
    return wraps(fn)(lambda tup: cached(tuple(tup)))


def arc_sum(tup: Iterable[int]) -> int:
    """Total number of arcs described by a block tuple."""
    return sum(abs(x) for x in tup)


def negate(tup: Iterable[int]) -> SignedTuple:
    return tuple(-x for x in tup)


def neg_reverse(tup: Iterable[int]) -> SignedTuple:
    """Reverse the tuple and flip every sign: the same object walked backwards."""
    return tuple(-x for x in reversed(tuple(tup)))


def _alternates(tup: SignedTuple) -> bool:
    return all(a * b < 0 for a, b in zip(tup, tup[1:]))


def is_standard_path(tup: Iterable[int]) -> bool:
    t = tuple(tup)
    return bool(t) and all(x != 0 for x in t) and _alternates(t)


def is_standard_cycle(tup: Iterable[int]) -> bool:
    t = tuple(tup)
    if not t or any(x == 0 for x in t):
        return False
    # wrap sign condition closes the alternation, forcing an even length
    return len(t) == 1 or len(t) % 2 == 0 and _alternates(t) and t[-1] * t[0] < 0


def check_standard_path(tup: Iterable[int]) -> SignedTuple:
    t = tuple(tup)
    if not t:
        raise EmptyTypeError("path type has no blocks")
    if not is_standard_path(t):
        raise IllFormedError(f"not a standard path tuple: {t}")
    return t


def check_standard_cycle(tup: Iterable[int]) -> SignedTuple:
    t = tuple(tup)
    if not t:
        raise EmptyTypeError("cycle type has no blocks")
    if not is_standard_cycle(t):
        raise IllFormedError(f"not a standard cycle tuple: {t}")
    return t


def _zero_free(seq: Sequence[int], cyclic: bool) -> list[int]:
    """The nonzero entries of a raw tuple, once every two consecutive ones
    share a sign exactly when zeros lie between them; for a cycle the pair
    around the wrap is read too, when two or more entries remain."""
    kept = [(i, x) for i, x in enumerate(seq) if x]
    if not kept:
        raise EmptyTypeError("all entries vanished")
    pairs = list(zip(kept, kept[1:]))
    if cyclic and len(kept) > 1:
        pairs.append((kept[-1], kept[0]))
    for (i, a), (j, b) in pairs:
        zeros = (j - i) % len(seq) > 1  # the step from a to b; the wrap pair's runs around
        if ((a > 0) == (b > 0)) != zeros:
            raise IllFormedError(
                f"zero elimination would merge opposite signs {a}, {b}" if zeros
                else f"adjacent same-sign entries {a}, {b}")
    return [x for _, x in kept]


def _blocks(entries: Iterable[int], cyclic: bool) -> SignedTuple:
    """Sum same-sign neighbours into one block; with ``cyclic`` the last
    block also joins the first when the two share a sign."""
    out: list[int] = []
    for x in entries:
        if out and (out[-1] > 0) == (x > 0):
            out[-1] += x
        else:
            out.append(x)
    if cyclic and len(out) > 1 and (out[0] > 0) == (out[-1] > 0):
        out[0] += out.pop()
    return tuple(out)


def normalize_path(raw: Iterable[int]) -> SignedTuple:
    """Remove zero entries from a path tuple by merging across them.

    Two consecutive nonzero entries must share a sign exactly when zeros lie
    between them; those across zeros merge, and leading and trailing zeros
    drop.
    """
    return _blocks(_zero_free(tuple(raw), False), False)


def normalize_cycle(raw: Iterable[int]) -> SignedTuple:
    """Remove zero entries from a cycle tuple: the path rule read around the
    wrap, so the last entry also merges into the first across zeros, and a
    lone surviving entry closes into a circuit."""
    return _blocks(_zero_free(tuple(raw), True), True)


def is_symmetric(tup: Iterable[int]) -> bool:
    """True when the tuple equals its own negated reversal."""
    t = tuple(tup)
    return t == neg_reverse(t)


# Canonical representatives are lexicographic minima under an entry order that
# puts positive blocks before negative ones and smaller magnitudes first, so
# e.g. (1, -2) beats (2, -1) and both beat (-1, 2).
def _entry_key(x: int) -> tuple[int, int]:
    return (0, x) if x > 0 else (1, -x)


def _tuple_key(tup: SignedTuple) -> tuple[tuple[int, int], ...]:
    return tuple(_entry_key(x) for x in tup)


def path_canonical(alpha: Iterable[int]) -> SignedTuple:
    """Canonical representative of the path-type pair {alpha, neg_reverse(alpha)}."""
    a = check_standard_path(alpha)
    return min(a, neg_reverse(a), key=_tuple_key)


def cycle_orbit(beta: Iterable[int]) -> list[SignedTuple]:
    """All tuples describing the same cycle type: rotations of beta and of its
    negated reversal (at most 2s of them, deduplicated, deterministic order)."""
    b = check_standard_cycle(beta)
    s = len(b)
    seen: dict[SignedTuple, None] = {}
    for base in (b, neg_reverse(b)):
        for i in range(s):
            seen.setdefault(base[i:] + base[:i], None)
    return sorted(seen, key=_tuple_key)


@_memo
def cycle_canonical(beta: SignedTuple) -> SignedTuple:
    return cycle_orbit(beta)[0]  # the orbit itself is not kept: several times the memory


def cycle_type_symmetric(beta: Iterable[int]) -> bool:
    """True when the cycle type admits a representative equal to its own
    negated reversal, i.e. the cycle reads the same in both directions."""
    return any(is_symmetric(g) for g in cycle_orbit(beta))


class PeriodInfo(NamedTuple):
    r: int  # smallest cyclic rotation fixing the tuple
    t: int  # number of similar-block groups, len(tuple) // r


@_memo
def period_info(t: SignedTuple) -> PeriodInfo:
    """Least cyclic period of the block tuple and the derived repetition count.

    The minimum always divides the length, but every offset is scanned so the
    definition is applied literally.
    """
    if not t:
        raise EmptyTypeError("empty tuple has no period")
    s = len(t)
    for r in range(1, s + 1):
        if all(t[i] == t[(i + r) % s] for i in range(s)):
            return PeriodInfo(r, s // r)
    raise AssertionError("unreachable: s is always a period")


@_memo
def delta(gamma: SignedTuple) -> int:
    """Class-size multiplier for a cycle type: the cycle's arc count for a
    circuit, 2 for a direction-symmetric type, 1 otherwise."""
    g = check_standard_cycle(gamma)
    if len(g) == 1:
        return abs(g[0])  # arc count divided by t, and t = 1 for circuits
    if cycle_type_symmetric(g):
        return 2
    return 1


def star_one(beta: Iterable[int], pos: int) -> int:
    """Shift the entry at 1-based ``pos`` one step against the leading block's
    direction: minus one when the first entry is positive, plus one otherwise."""
    b = check_standard_cycle(beta)
    if not 1 <= pos <= len(b):
        raise IndexError(f"position {pos} out of range for {b}")
    return b[pos - 1] - 1 if b[0] > 0 else b[pos - 1] + 1


class GeneratedCycles(NamedTuple):
    first: SignedTuple  # closing arc against the last block
    second: SignedTuple  # closing arc along the last block
    coincide: bool


def generated_cycle_types(alpha: Iterable[int]) -> GeneratedCycles:
    """The two canonical cycle types a Hamiltonian path of type ``alpha`` can
    close into, depending on the orientation of the arc between its endpoints.

    The cycle's sign word is the path's word followed by the closing arc's
    bit, read cyclically: against the last block, then along it.
    """
    a = check_standard_path(alpha)
    m, w, along = arc_sum(a), word_int(a), int(a[-1] > 0)
    first, second = (cycle_canonical(_cyclic_runs_from_word(w | bit << m, m + 1))
                     for bit in (1 - along, along))
    return GeneratedCycles(first, second, first == second)


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
    return _blocks((1 if w >> i & 1 else -1 for i in range(length)), False)


def _cyclic_runs_from_word(w: int, length: int) -> SignedTuple:
    return _blocks((1 if w >> i & 1 else -1 for i in range(length)), True)


@lru_cache(maxsize=None)
def _rotation_orbits(n: int) -> tuple[tuple[int, ...], dict[int, int]]:
    """The rotation orbits of the n-bit cyclic words: for every word the least
    word of its orbit, and the size of each orbit keyed by that least word."""
    full = (1 << n) - 1
    least = [-1] * (1 << n)
    for w in range(1 << n):
        r = w
        while least[r] < 0:  # runs only when w starts an orbit not yet met: its least word
            least[r] = w
            r = (r << 1 | r >> (n - 1)) & full
    return tuple(least), Counter(least)


@lru_cache(maxsize=None)
def _path_word_classes(n: int) -> tuple[SignedTuple, ...]:
    """Canonical path type for every (n-1)-arc sign word, indexed by word;
    one ``path_canonical`` call per word and its negated reversal."""
    classes: list = [None] * (1 << (n - 1))
    for w in range(1 << (n - 1)):
        if classes[w] is None:
            runs = _runs_from_word(w, n - 1)
            classes[w] = classes[word_int(neg_reverse(runs))] = path_canonical(runs)
    return tuple(classes)


@lru_cache(maxsize=None)
def _cycle_word_classes(n: int) -> tuple[SignedTuple, ...]:
    """Canonical cycle type for every n-arc cyclic sign word; one
    ``cycle_canonical`` call per rotation orbit and the orbit of its negated
    reversal, which reads the same cycles the other way round."""
    least, sizes = _rotation_orbits(n)
    by_orbit: dict[int, SignedTuple] = {}
    for w in sizes:
        if w not in by_orbit:  # the reversal's runs spell a word of the reversed orbit
            runs = _cyclic_runs_from_word(w, n)
            by_orbit[w] = by_orbit[least[word_int(neg_reverse(runs))]] = cycle_canonical(runs)
    return tuple(map(by_orbit.__getitem__, least))


def _check_arc_sum(total: int) -> None:
    if total < 1:
        raise TooShortError("arc sum must be at least 1")


@lru_cache(maxsize=None)
def path_type_classes(total: int) -> tuple[SignedTuple, ...]:
    """Canonical representatives of all path types with the given arc sum."""
    _check_arc_sum(total)
    return tuple(sorted(set(_path_word_classes(total + 1))))


@lru_cache(maxsize=None)
def cycle_type_classes(total: int) -> tuple[SignedTuple, ...]:
    """Canonical representatives of all cycle types with the given arc sum."""
    _check_arc_sum(total)
    return tuple(sorted(set(_cycle_word_classes(total))))


@lru_cache(maxsize=None)
def standard_tuples(total: int, kind: str) -> tuple[SignedTuple, ...]:
    """Every standard tuple with the given arc sum, both sign phases.

    ``kind`` is ``"path"`` (any block count) or ``"cycle"`` (one block or an
    even number of blocks).
    """
    _check_arc_sum(total)
    if kind not in ("path", "cycle"):
        raise ValueError(f"unknown kind {kind!r}")
    runs = (_runs_from_word(w, total) for w in range(1 << total))
    out = [r for r in runs if kind == "path" or len(r) == 1 or len(r) % 2 == 0]
    return tuple(sorted(out, key=_tuple_key))


@lru_cache(maxsize=None)
def symmetric_tuples(max_total: int) -> tuple[SignedTuple, ...]:
    """Every symmetric standard tuple with arc sum at most ``max_total``.

    A symmetric tuple is a standard half followed by that half's negated
    reversal, so the arc sum is always even.
    """
    return tuple(t for m in range(2, max_total + 1, 2)
                 for t in standard_tuples(m, "path") if is_symmetric(t))


def format_type(tup: Iterable[int]) -> str:
    return "(" + ",".join(str(x) for x in tup) + ")"


def parse_type(text: str) -> SignedTuple:
    """Parse ``"(2,-1, 1)"`` into ``(2, -1, 1)``; ASCII whitespace is tolerated.

    Entries are an optional ``-`` and ASCII digits, nothing else: ``int``
    alone would also take ``1_0``, ``+1`` and non-ASCII digits.
    """
    if not text.isascii():  # so every offset below is a byte offset
        bad = next(i for i, ch in enumerate(text) if not ch.isascii())
        raise ParseError(f"non-ASCII character {text[bad]!r}", bad)
    stripped = text.strip(_SPACE)
    base = text.index(stripped[0]) if stripped else 0
    if not stripped.startswith("("):
        raise ParseError("expected '('", base)
    if not stripped.endswith(")"):
        raise ParseError("expected ')'", base + len(stripped))
    body = stripped[1:-1]
    if not body.strip(_SPACE):
        raise ParseError("empty tuple", base + 1)
    entries = []
    offset = base + 1
    for piece in body.split(","):
        token = piece.strip(_SPACE)
        if not _INTEGER.fullmatch(token):
            raise ParseError(f"bad integer {_shown(token)}", offset)
        digits = len(token.lstrip("-"))
        if digits > _MAX_DIGITS:
            raise ParseError(f"integer of {digits} digits is too long", offset)
        entries.append(int(token))
        offset += len(piece) + 1
    return tuple(entries)
