"""Reference computations that share no code with tourcensus.

Everything the benchmark compares the program's output against comes from
here: its own reading of the ``n:bits`` format, its own seeded generator, its
own orbit enumeration of sign words, brute-force permutation loops and
counting formulas derived from what each verified property quantifies over.
Nothing in this module imports the package under test.

A tournament is ``(n, out)`` where ``out[u]`` is the bitmask of the vertices
that ``u`` beats.  A sign word is a tuple of +1 (arc read forward) and -1.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import permutations, product
from math import comb, factorial

# OEIS A038375: the largest number of directed Hamiltonian paths in a
# tournament of order n (index n).  Used for the szele-floor maximum.
A038375 = (1, 1, 1, 3, 5, 15, 45, 189, 661, 3357, 15745, 95095)


# ---------------------------------------------------------------------------
# tournaments


def pairs(n: int) -> list[tuple[int, int]]:
    """Vertex pairs in serialization order: (0,1), (0,2), ..., (0,n-1), (1,2), ...

    This is the order ``tournaments.py`` documents (bit i*(2n-i-1)/2 + j-i-1
    for the pair i < j).
    """
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def from_bits(n: int, bits: str) -> tuple[int, list[int]]:
    """Tournament from its relation string: '1' orients the pair i -> j."""
    if len(bits) != n * (n - 1) // 2 or set(bits) - {"0", "1"}:
        raise ValueError(f"bad relation string for order {n}: {bits!r}")
    out = [0] * n
    for (i, j), ch in zip(pairs(n), bits):
        if ch == "1":
            out[i] |= 1 << j
        else:
            out[j] |= 1 << i
    return n, out


def parse(text: str) -> tuple[int, list[int]]:
    head, _, bits = text.partition(":")
    return from_bits(int(head), bits)


def serialize(t: tuple[int, list[int]]) -> str:
    n, out = t
    return f"{n}:" + "".join("1" if out[i] >> j & 1 else "0" for i, j in pairs(n))


def random_tournament(n: int, rng: random.Random) -> tuple[int, list[int]]:
    return from_bits(n, "".join(rng.choice("01") for _ in pairs(n)))


def complement(t: tuple[int, list[int]]) -> tuple[int, list[int]]:
    n, out = t
    full = (1 << n) - 1
    return n, [full & ~out[v] & ~(1 << v) for v in range(n)]


def transitive(n: int) -> tuple[int, list[int]]:
    return from_bits(n, "1" * (n * (n - 1) // 2))


def is_strong(t: tuple[int, list[int]]) -> bool:
    """Every vertex reaches vertex 0 and is reached from it."""
    n, out = t
    into = [sum(1 << u for u in range(n) if out[u] >> v & 1) for v in range(n)]
    full = (1 << n) - 1
    for adj in (out, into):
        seen = frontier = 1
        while frontier:
            nxt = 0
            for v in range(n):
                if frontier >> v & 1:
                    nxt |= adj[v]
            frontier = nxt & ~seen
            seen |= frontier
        if seen != full:
            return False
    return True


# ---------------------------------------------------------------------------
# sign words and their orbits


def parse_key(key: str) -> tuple[int, ...]:
    """Block tuple from the program's printed key, e.g. '(2,-1)'."""
    if not (key.startswith("(") and key.endswith(")")):
        raise ValueError(f"bad type key {key!r}")
    return tuple(int(x) for x in key[1:-1].split(","))


def signs(blocks: tuple[int, ...]) -> tuple[int, ...]:
    """Block tuple to sign word: (2, -1) -> (1, 1, -1)."""
    return tuple(s for b in blocks for s in [1 if b > 0 else -1] * abs(b))


def rev_neg(word: tuple[int, ...]) -> tuple[int, ...]:
    """The same walk read backwards: every arc flips, the order reverses."""
    return tuple(-s for s in reversed(word))


def path_class(word: tuple[int, ...]) -> tuple[int, ...]:
    """Orbit representative of a path word: its two readings."""
    return min(word, rev_neg(word))


def cycle_class(word: tuple[int, ...]) -> tuple[int, ...]:
    """Orbit representative of a cyclic word: rotations of both readings."""
    back = rev_neg(word)
    return min(w[i:] + w[:i] for w in (word, back) for i in range(len(word)))


@lru_cache(maxsize=None)
def path_classes(m: int) -> frozenset[tuple[int, ...]]:
    """Every path type with m arcs, as orbit representatives."""
    return frozenset(path_class(w) for w in product((1, -1), repeat=m))


@lru_cache(maxsize=None)
def cycle_classes(m: int) -> frozenset[tuple[int, ...]]:
    """Every cycle type with m arcs, as orbit representatives."""
    return frozenset(cycle_class(w) for w in product((1, -1), repeat=m))


def directed(m: int) -> tuple[int, ...]:
    """The all-forward word: a directed path or cycle with m arcs."""
    return (1,) * m


# ---------------------------------------------------------------------------
# brute-force counts


def _word(out: list[int], seq: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(1 if out[a] >> b & 1 else -1 for a, b in zip(seq, seq[1:]))


def brute_census(t: tuple[int, list[int]]) -> tuple[dict, dict]:
    """Hamiltonian path and cycle counts by class, from permutation loops.

    A path is one vertex order up to reversal; a cycle is one cyclic order
    through vertex 0 up to reversal.  Classes with no member are absent.
    """
    n, out = t
    paths: dict[tuple[int, ...], int] = {}
    for seq in permutations(range(n)):
        if seq[0] < seq[-1]:
            cls = path_class(_word(out, seq))
            paths[cls] = paths.get(cls, 0) + 1
    cycles: dict[tuple[int, ...], int] = {}
    if n >= 3:
        for rest in permutations(range(1, n)):
            if rest[0] < rest[-1]:
                seq = (0,) + rest + (0,)
                cls = cycle_class(_word(out, seq))
                cycles[cls] = cycles.get(cls, 0) + 1
    return paths, cycles


def _embeddings(pattern_out: list[int], host_out: list[int], host_n: int) -> int:
    """Injective maps of the pattern's vertices into the host that send every
    pattern arc u -> v onto a host arc.  Pattern pairs without an arc are
    unconstrained."""
    k = len(pattern_out)
    host_in = [sum(1 << u for u in range(host_n) if host_out[u] >> v & 1)
               for v in range(host_n)]
    # constraints[x]: arcs between x and earlier pattern vertices
    constraints = [[(y, bool(pattern_out[y] >> x & 1)) for y in range(x)
                    if (pattern_out[y] >> x | pattern_out[x] >> y) & 1]
                   for x in range(k)]
    image = [0] * k

    def place(x: int, used: int) -> int:
        if x == k:
            return 1
        cand = ((1 << host_n) - 1) & ~used
        for y, y_to_x in constraints[x]:
            cand &= host_out[image[y]] if y_to_x else host_in[image[y]]
        total = 0
        while cand:
            b = cand & -cand
            cand ^= b
            image[x] = b.bit_length() - 1
            total += place(x + 1, used | b)
        return total

    return place(0, 0)


def pattern_digraph(spec: str) -> list[int]:
    """Out-masks of the pattern ``P(..);C(..);V`` on consecutive vertices."""
    out: list[int] = []
    for part in spec.split(";"):
        base = len(out)
        if part == "V":
            out.append(0)
            continue
        word = signs(parse_key(part[1:]))
        if part[0] == "P":
            size = len(word) + 1
        elif part[0] == "C":
            size = len(word)
        else:
            raise ValueError(f"bad component {part!r}")
        out.extend([0] * size)
        for i, s in enumerate(word):
            a, b = base + i, base + (i + 1) % size
            if s > 0:
                out[a] |= 1 << b
            else:
                out[b] |= 1 << a
    return out


def brute_copies(t: tuple[int, list[int]], spec: str) -> int:
    """Subgraphs of the host isomorphic to the pattern: embeddings divided by
    the pattern's automorphisms."""
    n, out = t
    pattern = pattern_digraph(spec)
    total = _embeddings(pattern, out, n)
    autos = _embeddings(pattern, pattern, len(pattern))
    if total % autos:
        raise AssertionError(f"{total} embeddings not divisible by {autos} automorphisms")
    return total // autos


# ---------------------------------------------------------------------------
# how many instances each verified property checks


def path_identity_checked(n: int) -> int:
    """Every tournament, every spanning path type paired with its negation."""
    return 2 ** comb(n, 2) * 2 ** (n - 2)


def cycle_identity_checked(n: int) -> int:
    """Every tournament, every spanning cycle block tuple paired with its
    negation: the one-block circuit plus each composition into an even
    number of blocks."""
    return 2 ** comb(n, 2) * (1 + sum(comb(n - 1, k - 1) for k in range(2, n + 1, 2)))


def complement_bridge_checked(n: int) -> int:
    """Every tournament, every path block tuple (one per sign word) plus every
    cycle type."""
    return 2 ** comb(n, 2) * (2 ** (n - 1) + len(cycle_classes(n)))


def count_formula_checked(n: int, samples: int) -> int:
    """Every sample, every cycle block tuple with an even number of blocks."""
    return samples * 2 * sum(comb(n - 1, k - 1) for k in range(2, n + 1, 2))


def class_sizes_checked(n: int) -> int:
    """Sum over all tournaments and their Hamiltonian cycles of the number of
    distinct path types among the paths that the cycle contains."""
    per_word: dict[tuple[int, ...], int] = {}
    total = 0
    for bits in range(2 ** comb(n, 2)):
        _, out = from_bits(n, format(bits, f"0{comb(n, 2)}b"))
        for rest in permutations(range(1, n)):
            if rest[0] < rest[-1]:
                w = _word(out, (0,) + rest + (0,))
                if w not in per_word:
                    per_word[w] = len({path_class(w[i + 1:] + w[:i]) for i in range(n)})
                total += per_word[w]
    return total


def pattern_count(max_order: int) -> int:
    """Patterns of order at most max_order: nonempty multisets of components,
    a component being an isolated vertex, a path type or a cycle type of at
    least 3 arcs."""
    weights = [1]
    weights += [m + 1 for m in range(1, max_order) for _ in path_classes(m)]
    weights += [m for m in range(3, max_order + 1) for _ in cycle_classes(m)]
    ways = [1] + [0] * max_order
    for w in weights:
        for total in range(w, max_order + 1):
            ways[total] += ways[total - w]
    return sum(ways[1:])


def h_invariance_checked(n: int) -> int:
    return 2 ** comb(n, 2) * pattern_count(n)


def szele_floor(n: int) -> int:
    return -(-factorial(n) // 2 ** (n - 1))
