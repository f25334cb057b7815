"""Tournaments on up to 16 vertices stored as a bit relation.

The textual form is ``n:bits`` where ``bits`` has one character per unordered
pair.  The bit for the pair (i, j) with i < j sits at position
``i*(2n-i-1)/2 + (j-i-1)`` and is 1 exactly when the arc points i -> j.
A 0 orients the arc j -> i; there are no ties.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import BadSubsetError, ParseError, ScopeTooLargeError

MAX_ORDER = 16
EXHAUSTIVE_MAX_ORDER = 6
EXHAUSTIVE_HARD_MAX = 7  # with ``allow_large``: the count doubles per pair, 2^21 at n = 7

_MASK64 = (1 << 64) - 1

__all__ = [
    "MAX_ORDER",
    "EXHAUSTIVE_MAX_ORDER",
    "EXHAUSTIVE_HARD_MAX",
    "Tournament",
    "pair_index",
    "parse",
    "load_tournaments",
    "transitive",
    "all_tournaments",
    "random_tournament",
    "random_tournaments",
    "seed_stream",
]


def pair_index(i: int, j: int, n: int) -> int:
    """Bit position of the pair (i, j), i < j, in the serialized relation."""
    if not 0 <= i < j < n:
        raise ValueError(f"bad pair ({i}, {j}) for order {n}")
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


class Tournament:
    """Immutable complete orientation of K_n."""

    __slots__ = ("n", "bits", "out_masks", "in_masks")

    def __init__(self, n: int, bits: int):
        if not 0 <= n <= MAX_ORDER:
            raise ScopeTooLargeError(f"order {n} outside supported range 0..{MAX_ORDER}")
        m = n * (n - 1) // 2
        if not 0 <= bits < (1 << m):
            raise ValueError(f"bit relation out of range for order {n}")
        self.n = n
        self.bits = bits
        out = [0] * n
        inn = [0] * n
        k = 0
        for i in range(n):
            for j in range(i + 1, n):
                if bits >> k & 1:
                    out[i] |= 1 << j
                    inn[j] |= 1 << i
                else:
                    out[j] |= 1 << i
                    inn[i] |= 1 << j
                k += 1
        self.out_masks = tuple(out)
        self.in_masks = tuple(inn)

    def has_arc(self, u: int, v: int) -> bool:
        if u == v or not (0 <= u < self.n and 0 <= v < self.n):
            return False
        return bool(self.out_masks[u] >> v & 1)

    def out_degree(self, v: int) -> int:
        return self.out_masks[v].bit_count()

    def arcs(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in range(u + 1, self.n):
                yield (u, v) if self.has_arc(u, v) else (v, u)

    def complement(self) -> "Tournament":
        """Reverse every arc.  An involution that fixes no arc."""
        m = self.n * (self.n - 1) // 2
        return Tournament(self.n, self.bits ^ ((1 << m) - 1))

    def induced(self, vertices: Iterable[int]) -> "Tournament":
        """Subtournament on the given vertices, relabeled in sorted order."""
        verts = sorted(set(vertices))
        if not all(0 <= v < self.n for v in verts):
            raise BadSubsetError(f"vertices {verts} not all in 0..{self.n - 1}")
        k = len(verts)
        bits = 0
        pos = 0
        for a in range(k):
            for b in range(a + 1, k):
                if self.has_arc(verts[a], verts[b]):
                    bits |= 1 << pos
                pos += 1
        return Tournament(k, bits)

    def serialize(self) -> str:
        m = self.n * (self.n - 1) // 2
        return f"{self.n}:" + "".join(str(self.bits >> k & 1) for k in range(m))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Tournament) and self.n == other.n and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __repr__(self) -> str:
        return f"Tournament.parse({self.serialize()!r})"

    @staticmethod
    def parse(text: str) -> "Tournament":
        return parse(text)


def parse(text: str) -> Tournament:
    """Parse the ``n:bits`` form; errors carry the byte offset.

    The order is one or more ASCII digits; ``str.isdigit`` alone would also
    pass digits such as ``'٣'`` or ``'²'``, which ``int`` reads or rejects.
    """
    colon = text.find(":")
    if colon < 0:
        raise ParseError("missing ':'", len(text.encode()))
    head = text[:colon]
    if not (head.isascii() and head.isdigit()):
        raise ParseError(f"bad order {head!r}", 0)
    n = int(head)
    if n > MAX_ORDER:
        raise ParseError(f"order {n} exceeds supported maximum {MAX_ORDER}", 0)
    body = text[colon + 1 :]
    m = n * (n - 1) // 2
    if len(body) != m:
        raise ParseError(f"expected {m} relation bits, got {len(body)}", len(text.encode()))
    bits = 0
    for k, ch in enumerate(body):
        if ch == "1":
            bits |= 1 << k
        elif ch != "0":
            raise ParseError(f"bad relation character {ch!r}", colon + 1 + k)
    return Tournament(n, bits)


def load_tournaments(lines: Iterable[str]) -> list[Tournament]:
    """Read one tournament per line; blank lines and ``#`` comments skipped."""
    out = []
    for line in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        out.append(parse(stripped))
    return out


def transitive(n: int) -> Tournament:
    """The transitive tournament: every arc points from lower to higher label."""
    m = n * (n - 1) // 2
    return Tournament(n, (1 << m) - 1 if m else 0)


def all_tournaments(n: int, allow_large: bool = False) -> Iterator[Tournament]:
    """Every order-n tournament as raw bit patterns, in increasing bit order.

    No isomorphism reduction is applied.  Capped at ``EXHAUSTIVE_MAX_ORDER``,
    or ``EXHAUSTIVE_HARD_MAX`` with ``allow_large``.
    """
    cap = EXHAUSTIVE_HARD_MAX if allow_large else EXHAUSTIVE_MAX_ORDER
    if n > cap:
        raise ScopeTooLargeError(f"exhaustive enumeration capped at order {cap}")
    m = n * (n - 1) // 2
    for bits in range(1 << m):
        yield Tournament(n, bits)


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def seed_stream(seed: int) -> Iterator[int]:
    """The splitmix64 output stream for ``seed``: the package's only
    randomness source, fixed here for reproducibility."""
    state = seed & _MASK64
    while True:
        state, word = _splitmix64(state)
        yield word


def random_tournament(n: int, seed: int) -> Tournament:
    """Deterministic pseudo-random tournament: pair bit k is bit k of the
    concatenated splitmix64 stream for ``seed``."""
    m = n * (n - 1) // 2
    words = seed_stream(seed)
    bits = 0
    filled = 0
    while filled < m:
        bits |= next(words) << filled
        filled += 64
    return Tournament(n, bits & ((1 << m) - 1) if m else 0)


def random_tournaments(n: int, seed: int, count: int) -> Iterator[Tournament]:
    """A reproducible sample stream: sample k is seeded with the k-th
    splitmix64 output for ``seed``."""
    words = seed_stream(seed)
    for _ in range(count):
        yield random_tournament(n, next(words))
