"""The pace child: a fixed piece of pure-Python work that measures how fast
the machine runs Python code right now.

    python3 perfbench/pace.py

It starts an interpreter, runs a subset DP over (used-vertex mask, last
vertex) states on a fixed order-13 tournament, a permutation-loop census of
a fixed order-7 tournament and a path-type count over the Hamiltonian cycles
of all order-5 tournaments, then exits.  That is the kind of work the
tourcensus CLI does (about 0.2 s of it on the development machine), but it uses
only the benchmark's own ``reference`` module, so no change to the program
changes it.  ``run.py`` runs a pace child before every CLI call and after
the last call of a round, and divides each call's wall time by the round's
median pace.
"""

import random

import reference as ref


def subset_dp(n: int, seed: int) -> int:
    """Directed Hamiltonian paths of a fixed random tournament."""
    _, out = ref.random_tournament(n, random.Random(seed))
    states = {((1 << v) << 4) | v: 1 for v in range(n)}
    for _ in range(n - 1):
        nxt: dict[int, int] = {}
        get = nxt.get
        for key, count in states.items():
            mask = key >> 4
            cand = out[key & 15] & ~mask
            while cand:
                b = cand & -cand
                cand ^= b
                k2 = ((mask | b) << 4) | (b.bit_length() - 1)
                nxt[k2] = get(k2, 0) + count
        states = nxt
    return sum(states.values())


if __name__ == "__main__":
    subset_dp(13, 7)
    ref.brute_census(ref.random_tournament(7, random.Random(3)))
    ref.class_sizes_checked(5)
