"""Acceptance criteria: the package's headline identities at desk scale.

One test per criterion.  Each runs the full stated scope, asserts exact
integer agreement, and enforces the runtime budget.  A PASS/FAIL line per
criterion is printed for log scraping; `pytest -v` shows the same verdicts.
"""

import time
from math import factorial

from tourcensus import (
    Scope,
    census,
    count_paths,
    generated_cycle_types,
    is_symmetric,
    oracle_census,
    period_info,
    random_tournaments,
    standard_tuples,
    star_counterexample,
    symmetric_tuples,
    transitive,
    verify,
)


class _Budget:
    """Context manager asserting the wall-clock budget and printing a verdict."""

    def __init__(self, label: str, seconds: float):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] {verdict} {self.label} ({elapsed:.2f}s / {self.seconds}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.label}: {elapsed:.2f}s exceeded the {self.seconds}s budget"
            )
        return False


def _sweep(pid: str, scope: Scope, **kw):
    report = verify(pid, scope, **kw)
    assert report.passed, (pid, scope, report.violations[:3])
    assert report.checked > 0
    return report


def test_c01_path_identity_exhaustive():
    with _Budget("1 path identity, all orders 4 and 5", 5):
        r4 = _sweep("path-identity", Scope(mode="exhaustive", order=4))
        r5 = _sweep("path-identity", Scope(mode="exhaustive", order=5))
        assert r4.checked == 64 * 4  # 64 tournaments x 4 sign-paired types
        assert r5.checked == 1024 * 8


def test_c02_cycle_identity_exhaustive():
    with _Budget("2 cycle identity, all orders 4 and 5", 10):
        r4 = _sweep("cycle-identity", Scope(mode="exhaustive", order=4))
        r5 = _sweep("cycle-identity", Scope(mode="exhaustive", order=5))
        assert r4.checked == 64 * 5
        assert r5.checked == 1024 * 9


def test_c03_non_spanning_identities():
    with _Budget("3 non-spanning identities, 100 random order 6 and all of order 6", 30):
        scope = Scope(mode="random", order=6, samples=100, seed=2026)
        _sweep("path-identity", scope, max_arc_sum=4)
        _sweep("cycle-identity", scope, max_arc_sum=4)
        scope = Scope(mode="exhaustive", order=6)
        assert _sweep("path-identity", scope, max_arc_sum=5).checked == 1_015_808
        assert _sweep("cycle-identity", scope, max_arc_sum=6).checked == 1_114_112


def test_c04_count_formula():
    with _Budget("4 count formula, 200 random orders 6..8", 120):
        total = 0
        for order, samples, seed in ((6, 67, 61), (7, 67, 71), (8, 66, 81)):
            scope = Scope(mode="random", order=order, samples=samples, seed=seed)
            _sweep("count-formula", scope)
            total += samples
        assert total == 200


def test_c05_class_size_law():
    with _Budget("5 class sizes, exhaustive orders 3..5", 30):
        for order in (3, 4, 5):
            _sweep("class-sizes", Scope(mode="exhaustive", order=order))


def test_c06_eqsym():
    with _Budget("6 eqsym, types to arc sum 12 and sets to order 5", 5):
        for m in range(1, 13):
            for alpha in standard_tuples(m, "path"):
                got = generated_cycle_types(alpha)
                if len(alpha) % 2 == 0:
                    assert got.coincide == is_symmetric(alpha), alpha
                else:
                    assert not got.coincide, alpha
        for order in (3, 4, 5):
            _sweep("eqsym", Scope(mode="exhaustive", order=order))


def test_c07_t_one():
    with _Budget("7 generated cycles of symmetric types have t=1, arc sum 14", 1):
        count = 0
        for alpha in symmetric_tuples(14):
            got = generated_cycle_types(alpha)
            assert got.coincide, alpha
            assert period_info(got.first).t == 1, alpha
            count += 1
        assert count == sum(2 ** h for h in range(1, 8))  # halves of arc sum 1..7


def test_c08_oracle_equivalence():
    with _Budget("8 census equals oracle census, orders 1..5 and 200 random 6", 60):
        for order in range(1, 6):
            for T in Scope(mode="exhaustive", order=order).tournaments():
                a, b = census(T[1]), oracle_census(T[1])
                assert a.path_counts == b.path_counts, T[1].serialize()
                assert a.cycle_counts == b.cycle_counts, T[1].serialize()
        for T in random_tournaments(6, 2468, 200):
            a, b = census(T), oracle_census(T)
            assert a.path_counts == b.path_counts, T.serialize()
            assert a.cycle_counts == b.cycle_counts, T.serialize()


def test_c09_partition_identity():
    with _Budget("9 enumeration counts partition n!, orders 2..5 and 100 random 7", 20):
        for order in (2, 3, 4, 5):
            _sweep("enumeration-partition", Scope(mode="exhaustive", order=order))
        _sweep("enumeration-partition", Scope(mode="random", order=7, samples=100, seed=99))


def test_c10_h_invariance():
    with _Budget("10 pattern copy counts survive arc reversal", 60):
        for order in (1, 2, 3, 4, 5):
            _sweep("h-invariance", Scope(mode="exhaustive", order=order))
        _sweep("h-invariance", Scope(mode="random", order=7, samples=100, seed=77))


def test_c11_star_counterexample():
    with _Budget("11 out-star count drops to zero under reversal", 1):
        for n in (3, 4, 5):
            assert star_counterexample(n) == (1, 0), n


def test_c12_szele_floor():
    with _Budget("12 directed-path maximum meets the n!/2^(n-1) floor", 10):
        r4 = _sweep("szele-floor", Scope(mode="exhaustive", order=4))
        assert r4.details["floor"] == 3 and r4.details["max"] >= 3
        r5 = _sweep("szele-floor", Scope(mode="exhaustive", order=5))
        assert r5.details["floor"] == 8 and r5.details["max"] >= 8
        assert r5.details["floor"] == -(-factorial(5) // 16)
        r6 = _sweep("szele-floor", Scope(mode="exhaustive", order=6))
        assert r6.checked == 2 ** 15
        assert r6.details == {"floor": 23, "max": 45}  # OEIS A038375


def test_c13_transitive_baseline():
    with _Budget("13 transitive tournaments carry one directed spanning path", 1):
        for n in range(3, 9):
            assert count_paths(transitive(n), (n - 1,)) == 1, n
