"""Unit tests for property sweeps and their reports."""

import json
import tracemalloc
from importlib import import_module
from itertools import permutations

import pytest

import tourcensus.digraphs as digraphs_mod
import tourcensus.verifier as verify_mod
from tourcensus import (
    PROPERTY_IDS,
    RANDOM_MAX_SAMPLES,
    Scope,
    ScopeTooLargeError,
    TooShortError,
    TourCensusError,
    TypeTooLongError,
    UnknownPropertyError,
    list_types,
    rosenfeld_check,
    verify,
)
from tourcensus.census import _Lanes, count_paths, path_type_classes
from tourcensus.digraphs import CopyCounter, _negated, all_digraph_specs
from tourcensus.tournaments import Tournament, all_tournaments, random_tournaments, transitive
from tourcensus.type_algebra import (
    format_type,
    generated_cycle_types,
    normalize_path,
    path_canonical,
    standard_tuples,
    star_one,
    symmetric_tuples,
)

census_mod = import_module("tourcensus.census")  # the package name ``census`` is the function


# --- scopes ---------------------------------------------------------------------

def test_scope_exhaustive_caps():
    Scope(mode="exhaustive", order=6)
    with pytest.raises(ScopeTooLargeError):
        Scope(mode="exhaustive", order=7)
    Scope(mode="exhaustive", order=7, allow_large=True)
    with pytest.raises(ScopeTooLargeError):
        Scope(mode="exhaustive", order=8, allow_large=True)


def test_scope_random_caps():
    Scope(mode="random", order=12, samples=3, seed=0)
    with pytest.raises(ScopeTooLargeError):
        Scope(mode="random", order=13, samples=3)
    with pytest.raises(ValueError):
        Scope(mode="random", order=5, samples=0)
    Scope(mode="random", order=3, samples=RANDOM_MAX_SAMPLES)
    with pytest.raises(ScopeTooLargeError, match="samples"):
        Scope(mode="random", order=3, samples=RANDOM_MAX_SAMPLES + 1)
    with pytest.raises(ValueError, match="allow_large"):
        Scope(mode="random", order=5, samples=1, allow_large=True)
    with pytest.raises(ValueError):
        Scope(mode="unknown", order=4)


@pytest.mark.parametrize("seed", [-1, 1 << 64, -(1 << 70)])
def test_scope_refuses_a_seed_outside_64_bits(seed):
    # even where the sweep is vacuous, so no draw would ever see the seed
    with pytest.raises(ValueError, match="0..18446744073709551615"):
        Scope(mode="random", order=1, samples=1, seed=seed)
    Scope(mode="random", order=1, samples=1, seed=(1 << 64) - 1)


@pytest.mark.parametrize("fields", [{"samples": 5}, {"seed": 7}, {"samples": 5, "seed": 7}])
def test_scope_exhaustive_refuses_random_fields(fields):
    # the report would echo neither field, so the scope must not accept them
    with pytest.raises(ValueError, match="random scopes"):
        Scope(mode="exhaustive", order=3, **fields)
    Scope(mode="exhaustive", order=3, samples=0, seed=0)


def test_scope_tournament_streams():
    assert sum(1 for _ in Scope(mode="exhaustive", order=3).tournaments()) == 8
    pairs = list(Scope(mode="random", order=6, samples=5, seed=11).tournaments())
    assert [i for i, _ in pairs] == [0, 1, 2, 3, 4]
    again = list(Scope(mode="random", order=6, samples=5, seed=11).tournaments())
    assert [t.serialize() for _, t in pairs] == [t.serialize() for _, t in again]


def test_scope_json_echo():
    assert Scope(mode="exhaustive", order=4).to_json_dict() == {
        "mode": "exhaustive", "order": 4,
    }
    assert Scope(mode="random", order=6, samples=9, seed=3).to_json_dict() == {
        "mode": "random", "order": 6, "samples": 9, "seed": 3,
    }


# --- dispatch -------------------------------------------------------------------

def test_unknown_property():
    with pytest.raises(UnknownPropertyError):
        verify("no-such-thing", Scope(mode="exhaustive", order=3))


def test_every_property_passes_small_exhaustive():
    scope = Scope(mode="exhaustive", order=4)
    for pid in PROPERTY_IDS:
        report = verify(pid, scope)
        assert report.passed, (pid, report.violations)
        assert report.checked > 0
        assert report.property_id == pid


def test_report_json_shape():
    report = verify("path-identity", Scope(mode="exhaustive", order=3))
    doc = report.to_json_dict()
    assert set(doc) == {"property", "scope", "checked", "pass", "violations"}
    assert doc["pass"] is True
    assert doc["violations"] == []


def test_vacuous_report_flagged():
    for pid, order in (("path-identity", 1), ("szele-floor", 0), ("complement-bridge", 1),
                       ("path-identity", 0), ("cycle-identity", 0)):
        report = verify(pid, Scope(mode="exhaustive", order=order))
        assert report.checked == 0 and report.passed and report.vacuous
        assert report.to_json_dict()["vacuous"] is True
    assert not verify("path-identity", Scope(mode="exhaustive", order=3)).vacuous


def test_szele_floor_details():
    report = verify("szele-floor", Scope(mode="exhaustive", order=4))
    assert report.details == {"max": 5, "floor": 3}
    assert "details" in report.to_json_dict()
    with pytest.raises(ScopeTooLargeError):
        verify("szele-floor", Scope(mode="random", order=4, samples=2))


def test_max_arc_sum_gating():
    scope = Scope(mode="exhaustive", order=4)
    report = verify("path-identity", scope, max_arc_sum=2)
    assert report.passed and report.checked == 64 * (2 + 4) // 2
    with pytest.raises(TourCensusError):
        verify("eqsym", scope, max_arc_sum=2)
    with pytest.raises(TypeTooLongError):
        verify("path-identity", scope, max_arc_sum=4)
    with pytest.raises(TypeTooLongError):
        verify("cycle-identity", scope, max_arc_sum=5)


def test_cycle_arc_sum_bound_below_three_rejected():
    # no cycle has fewer than 3 arcs: bounds 1 and 2 would check nothing
    scope = Scope(mode="random", order=6, samples=3, seed=0)
    for bound in (1, 2):
        with pytest.raises(TypeTooLongError, match=r"3\.\.6"):
            verify("cycle-identity", scope, max_arc_sum=bound)
    # three (beta, -beta) pairs of arc sum 3 per sample
    assert verify("cycle-identity", scope, max_arc_sum=3).checked == 3 * 3


def test_oracle_backed_properties_reject_large_orders():
    big = Scope(mode="random", order=9, samples=1, seed=0)
    for pid in ("pe-ratio", "class-sizes", "eqsym", "count-formula"):
        with pytest.raises(ScopeTooLargeError):
            verify(pid, big)


def test_random_mode_reproducible():
    scope = Scope(mode="random", order=6, samples=10, seed=21)
    a = verify("enumeration-partition", scope).to_json_dict()
    b = verify("enumeration-partition", scope).to_json_dict()
    assert a == b
    assert a["checked"] == 10


def test_random_mode_beyond_exhaustive_cap():
    report = verify("complement-bridge", Scope(mode="random", order=9, samples=2, seed=5))
    assert report.passed and report.checked > 0


# --- violation reporting (artificial checker, the real ones cannot fail) ---------

def _always_fails(scope, _):
    return verify_mod._sweep(scope, lambda lanes: [(None, 0, 1)], lambda _: {}, single=True)


def test_violations_capped_and_tagged(monkeypatch):
    monkeypatch.setitem(verify_mod._PROPERTIES, "always-fails",
                        verify_mod._Property(_always_fails))
    report = verify("always-fails", Scope(mode="exhaustive", order=4))
    assert not report.passed
    assert report.checked == 64
    assert len(report.violations) == 10  # capped
    assert "sample" not in report.violations[0]
    assert report.to_json_dict()["pass"] is False

    report = verify("always-fails", Scope(mode="random", order=4, samples=3, seed=1))
    assert [v["sample"] for v in report.violations] == [0, 1, 2]
    assert all("tournament" in v for v in report.violations)


# --- batched sweeps report like single tournaments --------------------------------

# three runs of 32 lanes of the exhaustive order-6 scope (serial bits >> 5),
# and 12 of their tournaments to corrupt, several sharing a run, so that the
# cap of 10 cuts inside a run
_HIGHS = (0, 3, 700)
_FAULTY = (1, 6, 7, 16, 31, 3 << 5, 3 << 5 | 1, 3 << 5 | 20,
           700 << 5 | 2, 700 << 5 | 3, 700 << 5 | 4, 700 << 5 | 30)


def _corrupt(name, bump):
    """The count source ``name`` of the verifier, with ``bump(result, i, lanes)``
    applied to every lane i that holds a tournament in _FAULTY."""
    real = getattr(verify_mod, name)

    def faulty(*args):
        result = real(*args)
        lanes = next(arg for arg in args if isinstance(arg, _Lanes))
        for i in range(lanes.count):
            if lanes.tournament(i).bits in _FAULTY:
                bump(result, i, lanes)
        return result
    return faulty


def _bump_words(words, i, lanes):
    directed = (1 << (lanes.T.n - 1)) - 1  # type (n-1) only: one violation per lane
    words[directed] = words.get(directed, 0) + (2 << lanes.width * i)


def _bump_census_words(result, i, lanes):
    _bump_words(result[0], i, lanes)


def _bump_census(result, i, lanes):
    words, cycles = result
    _bump_words(words, i, lanes)
    for k, cls in enumerate(cycles):
        cycles[cls] += (k + 1) << lanes.width * i


@pytest.mark.parametrize("pid, source, bump", [
    ("path-identity", "_length_census", _bump_census_words),
    ("enumeration-partition", "_length_census", _bump_census_words),
    ("cycle-identity", "_length_census", _bump_census),
    ("complement-bridge", "_length_census", _bump_census),
])
def test_batched_violations_match_single_tournaments(monkeypatch, pid, source, bump):
    scope = Scope(mode="exhaustive", order=6)
    monkeypatch.setattr(verify_mod, source, _corrupt(source, bump))
    runs = verify_mod._runs
    monkeypatch.setattr(verify_mod, "_runs", lambda scope: (
        (i, lanes) for i, lanes in runs(scope) if i >> 5 in _HIGHS))
    batched = verify(pid, scope)
    # the same checker fed one tournament per batch, in scope order
    monkeypatch.setattr(verify_mod, "_runs", lambda scope: (
        (i, _Lanes(T)) for i, T in scope.tournaments() if i >> 5 in _HIGHS))
    single = verify(pid, scope)
    assert batched.checked == single.checked and single.checked % 96 == 0
    assert len(batched.violations) == 10  # capped
    assert batched.violations == single.violations
    serials = [v["tournament"] for v in batched.violations]
    bits = [Tournament.parse(t).bits for t in serials]
    assert bits == sorted(bits) and set(bits) <= set(_FAULTY)
    if pid in ("path-identity", "enumeration-partition"):
        assert bits == sorted(_FAULTY)[:10]


# --- the small-order contract of every property ----------------------------------

# checked at exhaustive orders 0..3; None: the property raises TooShortError
_SMALL_CHECKED = {
    "path-identity": (0, 0, 2, 16),
    "cycle-identity": (0, 0, 0, 24),
    "enumeration-partition": (0, 0, 2, 8),
    "pe-ratio": (0, 0, 4, 32),
    "class-sizes": (0, 0, 0, 20),
    "eqsym": (0, 0, 0, 20),
    "count-formula": (0, 0, 0, 32),
    "t-one": (0, 0, 0, 2),
    "h-invariance": (0, 1, 6, 80),
    "complement-bridge": (0, 0, 4, 48),
    "szele-floor": (0, 0, 2, 8),
    "rosenfeld": (None, None, 2, 8),
}


@pytest.mark.parametrize("order", range(4))
@pytest.mark.parametrize("pid", PROPERTY_IDS)
def test_small_order_contract(pid, order):
    expected = _SMALL_CHECKED[pid][order]
    scope = Scope(mode="exhaustive", order=order)
    if expected is None:
        with pytest.raises(TooShortError):
            verify(pid, scope)
        return
    report = verify(pid, scope)
    assert report.passed and report.checked == expected
    assert report.vacuous == (expected == 0)
    assert report.to_json_dict().get("vacuous", False) == (expected == 0)


# checked at random orders 0..3 (3 samples, seed 1), or the error raised
_SMALL_RANDOM_CHECKED = {
    "path-identity": (0, 0, 3, 6),
    "cycle-identity": (0, 0, 0, 9),
    "enumeration-partition": (0, 0, 3, 3),
    "pe-ratio": (0, 0, 6, 12),
    "class-sizes": (0, 0, 0, 9),
    "eqsym": (0, 0, 0, 10),
    "count-formula": (0, 0, 0, 12),
    "t-one": (0, 0, 0, 2),
    "h-invariance": (0, 3, 3, 3),
    "complement-bridge": (0, 0, 6, 18),
    "szele-floor": (ScopeTooLargeError,) * 4,
    "rosenfeld": (TooShortError, TooShortError, 3, 3),
}


@pytest.mark.parametrize("order", range(4))
@pytest.mark.parametrize("pid", PROPERTY_IDS)
def test_small_order_contract_random(pid, order):
    expected = _SMALL_RANDOM_CHECKED[pid][order]
    scope = Scope(mode="random", order=order, samples=3, seed=1)
    if not isinstance(expected, int):
        with pytest.raises(expected):
            verify(pid, scope)
        return
    report = verify(pid, scope)
    assert report.passed and report.checked == expected
    assert report.vacuous == (expected == 0)


# --- violation records of the oracle and copy checkers ------------------------------

# the sample indices to corrupt: 12 of them, so that the cap of 10 cuts
_FAULTY_INDICES = (1, 2, 5, 8, 9, 13, 14, 17, 20, 21, 22, 23)
_SCOPES = {
    "exhaustive": Scope(mode="exhaustive", order=5),
    "random": Scope(mode="random", order=6, samples=24, seed=5),
}


# h-invariance finds a fault only in a sample whose pattern differs from its
# negation, and just 2 of the shared random scope's 24 samples draw one.  Here
# 12 of 32 samples do (0, 5, 7, 9, 10, 12, 13, 17, 19, 26, 29, 31); every host
# but the first is corrupt, so 11 samples give a record and the cap of 10 cuts
_OWN_CASES = {
    ("h-invariance", "random"): (Scope(mode="random", order=8, samples=32, seed=6), range(1, 32)),
}


def _faulty_bits(scope, indices=_FAULTY_INDICES):
    ts = [T for _, T in scope.tournaments()]
    return {ts[i].bits for i in indices}


def _expected(scope, records_of):
    """The first ten records ``records_of(index, T)`` gives over the scope,
    each tagged with its tournament, and with its sample on random scopes."""
    out = []
    for index, T in scope.tournaments():
        for fields in records_of(index, T):
            record = {"tournament": T.serialize(), **fields}
            if scope.is_random:
                record["sample"] = index
            out.append(record)
    return out[:10]


def _pe_ratio_fault(monkeypatch, scope, faulty):
    # the oracle finds one directed Hamiltonian path too many
    directed = (scope.order - 1,)
    real = verify_mod._oracle_path_counts

    def oracle_path_counts(T):
        counts = real(T)
        if T.bits in faulty:
            counts[path_canonical(directed)] += 1
        return counts
    monkeypatch.setattr(verify_mod, "_oracle_path_counts", oracle_path_counts)

    def records_of(index, T):
        if T.bits not in faulty:
            return
        f = count_paths(T, directed)
        for alpha in standard_tuples(scope.order - 1, "path"):
            if path_canonical(alpha) == path_canonical(directed):
                yield {"type": format_type(alpha), "lhs": f, "rhs": f + 1}
    return records_of


def _count_formula_fault(monkeypatch, scope, faulty):
    # the oracle finds no Hamiltonian cycle of any type
    real = verify_mod._oracle_cycle_counts

    def oracle_cycle_counts(T):
        counts = real(T)
        return dict.fromkeys(counts, 0) if T.bits in faulty else counts
    monkeypatch.setattr(verify_mod, "_oracle_cycle_counts", oracle_cycle_counts)

    def records_of(index, T):
        if T.bits not in faulty:
            return
        for beta in standard_tuples(scope.order, "cycle"):
            if len(beta) % 2 == 0:
                f = count_paths(T, normalize_path((star_one(beta, 1),) + beta[1:]))
                if f:
                    yield {"type": format_type(beta), "lhs": f, "rhs": 0}
    return records_of


class _SharedCycle(dict):
    """Cycle sets that all hold one extra, shared cycle."""

    def get(self, key, default=None):
        return super().get(key, frozenset()) | {frozenset({(-1, -1)})}


def _eqsym_sets_fault(monkeypatch, scope, faulty):
    # distinct cycle types share a cycle
    real = verify_mod.oracle_cycle_sets

    def oracle_cycle_sets(T):
        sets = real(T)
        return _SharedCycle(sets) if T.bits in faulty else sets
    monkeypatch.setattr(verify_mod, "oracle_cycle_sets", oracle_cycle_sets)

    def records_of(index, T):
        if T.bits not in faulty:
            return
        sets = real(T)
        for alpha in standard_tuples(scope.order - 1, "path"):
            first, second, coincide = generated_cycle_types(alpha)
            if len(alpha) % 2 == 0 and not coincide:
                yield {"type": format_type(alpha), "first": format_type(first),
                       "second": format_type(second),
                       "lhs": 1, "rhs": 0}  # the one shared cycle, against none
    return records_of


def _eqsym_types_fault(monkeypatch, scope, faulty):
    # odd block counts claim coinciding cycle types, in every tournament
    real = verify_mod.generated_cycle_types

    def generated(alpha):
        gen = real(alpha)
        return gen._replace(coincide=True) if len(alpha) % 2 else gen
    monkeypatch.setattr(verify_mod, "generated_cycle_types", generated)

    def records_of():  # a type-only check: once per scope, not per tournament
        for alpha in standard_tuples(scope.order - 1, "path"):
            if len(alpha) % 2:
                first, second, _ = real(alpha)
                yield {"type": format_type(alpha), "first": format_type(first),
                       "second": format_type(second), "lhs": True, "rhs": False}
    return records_of


def _class_sizes_fault(monkeypatch, scope, faulty):
    # the first class of every type loses a path: its first cycle with cuts
    # of the type loses one of them
    real = verify_mod._cycle_cuts

    def cycle_cuts(T):
        cut = set()  # the types whose first class has lost its path
        for w, arcs, cuts in real(T):
            if T.bits in faulty:
                cuts = {alpha: dropped[alpha not in cut:] for alpha, dropped in cuts.items()}
                cut.update(cuts)
            yield w, arcs, cuts
    monkeypatch.setattr(verify_mod, "_cycle_cuts", cycle_cuts)

    def records_of(index, T):
        if T.bits not in faulty:
            return
        for alpha in path_type_classes(scope.order - 1):
            classes = census_mod.path_classes(T, alpha).classes
            if classes:
                size = len(classes[0].paths)
                yield {"type": format_type(alpha),
                       "cycle_type": format_type(classes[0].cycle_type),
                       "lhs": size - 1, "rhs": size}
    return records_of


def _first_unlike_its_negation(pool):
    return next((H for H in pool if _negated(H) != H), None)


def _h_invariance_fault(monkeypatch, scope, faulty):
    # a faulty host's counts call finds one copy too many of X, the first
    # pattern of its pool that is not its own negation; the host's reversed
    # side reads that count as the reversal's count of -X
    calls = []

    class FaultyCounter(CopyCounter):
        def counts(self, patterns):
            out = super().counts(patterns)
            calls.append((self.T.bits, patterns))
            X = _first_unlike_its_negation(patterns)
            if self.T.bits in faulty and X is not None:
                out[patterns.index(X)] += 1
            return out
    monkeypatch.setattr(digraphs_mod, "CopyCounter", FaultyCounter)

    def records_of(index, T):
        # sample k is counted in call k, its pattern first in the pool; on an
        # exhaustive scope a host not counted takes its reversal's sides
        # swapped, so there the corrupt count is its count of -X
        if scope.is_random:
            host, pool = calls[index]
            specs = pool[:1]
        else:
            pools = dict(calls)
            host = T.bits if T.bits in pools else T.complement().bits
            pool, specs = pools[host], all_digraph_specs(scope.order)
        X = _first_unlike_its_negation(pool)
        if host not in faulty or X is None:
            return
        Y = X if host == T.bits else _negated(X)
        for H in specs:
            neg = _negated(H)
            if Y in (H, neg):
                yield {"digraph": H.render(), "lhs": CopyCounter(T).count(H) + (H == Y),
                       "rhs": CopyCounter(T).count(neg) + (neg == Y)}
    return records_of


_FAULTS = {  # fault: (property, corruption, record fields besides tournament and sides)
    "pe-ratio": ("pe-ratio", _pe_ratio_fault, {"type"}),
    "count-formula": ("count-formula", _count_formula_fault, {"type"}),
    "eqsym-sets": ("eqsym", _eqsym_sets_fault, {"type", "first", "second"}),
    "eqsym-types": ("eqsym", _eqsym_types_fault, {"type", "first", "second"}),
    "class-sizes": ("class-sizes", _class_sizes_fault, {"type", "cycle_type"}),
    "h-invariance": ("h-invariance", _h_invariance_fault, {"digraph"}),
}


@pytest.mark.parametrize("mode", sorted(_SCOPES))
@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_oracle_and_copy_violation_records(monkeypatch, fault, mode):
    scope, indices = _OWN_CASES.get((fault, mode), (_SCOPES[mode], _FAULTY_INDICES))
    pid, make_fault, fields = _FAULTS[fault]
    records_of = make_fault(monkeypatch, scope, _faulty_bits(scope, indices))
    report = verify(pid, scope)
    if fault == "eqsym-types":
        # one record per odd type, with no tournament or sample
        assert report.violations == list(records_of())[:10]
        # the check compares booleans and reports them as JSON booleans
        assert '"lhs": true, "rhs": false' in json.dumps(report.violations[0])
        return
    assert len(report.violations) == 10  # capped
    keys = {"tournament", "lhs", "rhs"} | fields | ({"sample"} if scope.is_random else set())
    assert all(set(v) == keys for v in report.violations)
    assert report.violations == _expected(scope, records_of)
    # in scope order: serial order when exhaustive, sample order when random
    order = [v["sample"] if scope.is_random else Tournament.parse(v["tournament"]).bits
             for v in report.violations]
    assert order == sorted(order)


def test_eqsym_type_records_come_before_tournament_records(monkeypatch):
    scope = _SCOPES["exhaustive"]
    types = list(_eqsym_types_fault(monkeypatch, scope, set())())
    sets = _eqsym_sets_fault(monkeypatch, scope, _faulty_bits(scope))
    report = verify("eqsym", scope)
    assert len(types) == 8 and not report.passed
    assert report.violations == (types + _expected(scope, sets))[:10]


def test_class_sizes_holds_no_arc_sets_per_type():
    # at the oracle's cap the sweep keeps a cycle type and a size per class;
    # every type's ``path_classes`` of one such tournament, held at once, peak at
    # about 32 MiB
    tracemalloc.start()
    try:
        report = verify("class-sizes", Scope("random", 8, 1, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and report.checked
    assert peak < 4 << 20


# --- every sweep visits its scope through _runs, in complement pairs ----------------

@pytest.mark.parametrize("order", range(7))
def test_runs_pair_each_run_with_its_reversal(order):
    m = order * (order - 1) // 2
    runs = list(verify_mod._runs(Scope(mode="exhaustive", order=order)))
    lanes = [(index ^ i, run.tournament(i)) for index, run in runs for i in range(run.count)]
    assert sorted(index for index, _ in lanes) == list(range(1 << m))  # every serial once
    assert all(T.bits == index for index, T in lanes)
    if order < 3:  # one lane per tournament, in scope order
        assert [(index, run.count) for index, run in runs] == [(b, 1) for b in range(1 << m)]
        return
    width = 1 << (order - 1)
    assert all(run.count == width and index == run.T.bits for index, run in runs)
    assert len(runs) % 2 == 0
    for (index, first), (_, second) in zip(runs[::2], runs[1::2]):
        assert index >> (m - 1) == 0  # the first run's high part has its top bit clear
        for i in range(width):  # lane for lane
            assert second.tournament(i) == first.tournament(i).complement()


def test_runs_keep_random_sample_order():
    scope = Scope(mode="random", order=6, samples=24, seed=5)
    runs = [(index, lanes.T) for index, lanes in verify_mod._runs(scope)]
    assert all(lanes.count == 1 for _, lanes in verify_mod._runs(scope))
    assert runs == list(scope.tournaments())


def _count_counts_calls(monkeypatch):
    calls, pools = [], []

    class CountingCounter(CopyCounter):
        def counts(self, patterns):
            calls.append(self.T.bits)
            pools.append(patterns)
            return super().counts(patterns)
    monkeypatch.setattr(digraphs_mod, "CopyCounter", CountingCounter)
    return calls, pools


@pytest.mark.parametrize("order", range(2, 6))
def test_h_invariance_counts_each_host_once(monkeypatch, order):
    calls, pools = _count_counts_calls(monkeypatch)
    report = verify("h-invariance", Scope(mode="exhaustive", order=order))
    assert report.passed
    m = order * (order - 1) // 2
    # one host of each complement pair, each pattern placed once: the
    # exhaustive list is closed under negation, so it is the pool itself
    assert len(calls) == 1 << (m - 1)
    reversals = [Tournament(order, b).complement().bits for b in calls]
    assert sorted(calls + reversals) == list(range(1 << m))
    assert all(pool == all_digraph_specs(order) for pool in pools)


def test_h_invariance_counts_the_first_run_of_each_pair(monkeypatch):
    scope = Scope(mode="exhaustive", order=5)
    firsts = list(verify_mod._runs(scope))[::2]
    calls, _ = _count_counts_calls(monkeypatch)
    assert verify("h-invariance", scope).passed
    # each tournament of a first run, in _runs order; its reversal reads
    # the same call
    assert calls == [run.tournament(i).bits for _, run in firsts for i in range(run.count)]
    assert len(calls) == 512


def test_h_invariance_builds_tables_once_per_complement_pair(monkeypatch):
    hosts = []
    real = digraphs_mod._span_tables

    def counting(T, comps):
        hosts.append(T.bits)
        return real(T, comps)
    monkeypatch.setattr(digraphs_mod, "_span_tables", counting)
    scope = Scope(mode="exhaustive", order=5)
    assert verify("h-invariance", scope).passed
    # one batched walk on each tournament of a first run, the reversal's
    # tables read from it
    firsts = list(verify_mod._runs(scope))[::2]
    assert hosts == [run.tournament(i).bits for _, run in firsts for i in range(run.count)]
    assert len(hosts) == 512

def test_complement_bridge_walks_each_run_once(monkeypatch):
    calls = []
    real = verify_mod._length_census

    def counting(lanes, *args):
        calls.append(lanes.T.bits)
        return real(lanes, *args)
    monkeypatch.setattr(verify_mod, "_length_census", counting)
    scope = Scope(mode="exhaustive", order=5)
    assert verify("complement-bridge", scope).passed
    runs = [index for index, _ in verify_mod._runs(scope)]
    assert len(runs) == 64
    assert sorted(calls) == sorted(runs)


@pytest.mark.parametrize("scope", [
    Scope(mode="exhaustive", order=5),
    Scope(mode="random", order=8, samples=1, seed=3),
], ids=["exhaustive-5", "random-8"])
@pytest.mark.parametrize("pid, unread", [
    ("count-formula", "_oracle_path_counts"),
    ("pe-ratio", "_oracle_cycle_counts"),
])
def test_oracle_sweeps_compute_only_the_half_they_compare(monkeypatch, pid, unread, scope):
    def refused(T):
        raise AssertionError(f"{pid} must not call the oracle's whole census or {unread}")
    for name in ("oracle_census", unread):
        monkeypatch.setattr(census_mod, name, refused)
        monkeypatch.setattr(verify_mod, name, refused, raising=False)
    report = verify(pid, scope)
    assert report.passed and report.checked > 0


def test_count_formula_works_out_its_types_once_per_scope(monkeypatch):
    calls = []
    real = verify_mod.generated_cycle_types

    def counting(alpha):
        calls.append(alpha)
        return real(alpha)
    monkeypatch.setattr(verify_mod, "generated_cycle_types", counting)
    report = verify("count-formula", Scope(mode="random", order=7, samples=3, seed=4))
    betas = [beta for beta in standard_tuples(7, "cycle") if len(beta) % 2 == 0]
    assert report.passed and report.checked == 3 * len(betas)
    # one call per even-block beta, for the path type its lead block shrinks to
    assert calls == [normalize_path((star_one(beta, 1),) + beta[1:]) for beta in betas]


def test_t_one_violation_records(monkeypatch):
    # every repetition count doubles, so every symmetric type fails
    real = verify_mod.period_info
    monkeypatch.setattr(verify_mod, "period_info",
                        lambda tup: real(tup)._replace(t=2 * real(tup).t))
    report = verify("t-one", Scope(mode="random", order=7, samples=1))
    alphas = symmetric_tuples(6)
    assert report.checked == len(alphas) == 14
    expected = [{"type": format_type(alpha),
                 "cycle_type": format_type(generated_cycle_types(alpha).first),
                 "lhs": 2, "rhs": 1} for alpha in alphas]
    assert report.violations == expected[:10]  # capped, in type order


@pytest.mark.parametrize("order", range(3, 7))
def test_szele_floor_walks_one_run_per_pair(monkeypatch, order):
    calls = []
    real = verify_mod._spanning_path_counts

    def counting(lanes, *args):
        calls.append(lanes.T.bits)
        return real(lanes, *args)
    monkeypatch.setattr(verify_mod, "_spanning_path_counts", counting)
    scope = Scope(mode="exhaustive", order=order)
    report = verify("szele-floor", scope)
    runs = [index for index, _ in verify_mod._runs(scope)]
    assert calls == runs[::2]  # the first run of each complement pair
    assert report.checked == 1 << order * (order - 1) // 2


@pytest.mark.parametrize("order", range(2, 6))
def test_szele_floor_max_is_the_brute_force_maximum(order):
    best = max(count_paths(T, (order - 1,)) for T in all_tournaments(order))
    report = verify("szele-floor", Scope(mode="exhaustive", order=order))
    assert report.details["max"] == best
    assert report.checked == 1 << order * (order - 1) // 2


def test_h_invariance_random_scope_counts_each_sample_once(monkeypatch):
    calls, pools = _count_counts_calls(monkeypatch)
    scope = Scope(mode="random", order=6, samples=24, seed=5)
    assert verify("h-invariance", scope).passed
    # one call per sample, on the sample's pattern and its negation
    assert len(calls) == 24
    assert calls == [T.bits for _, T in scope.tournaments()]
    assert all(pool[1:] in ([], [_negated(pool[0])]) for pool in pools)


def _flaky(T):
    return T.bits % 5 == 3


def test_sweep_records_a_single_lane_side_wider_than_the_lane_width():
    # a random scope comes one lane per tournament, and its sides are exact
    scope = Scope(mode="random", order=3, samples=4, seed=7)
    checked, records, _ = verify_mod._sweep(
        scope, lambda lanes: [(None, 1 << 40, 0)], lambda _: {})
    assert checked == 4
    assert [(r["sample"], r["lhs"], r["rhs"]) for r in records] == [
        (i, 1 << 40, 0) for i in range(4)]


def test_sweep_puts_statement_records_first_and_caps_them_with_the_runs():
    scope = Scope(mode="random", order=3, samples=5, seed=7)
    statements = [(k, k, -k - 1) for k in range(12)]  # all failing, in this order
    checked, records, _ = verify_mod._sweep(
        scope, lambda lanes: [("run", 0, 1)], lambda key: {"key": key},
        statements=iter(statements))
    assert checked == 12 + 5  # one per statement, one per lane compared
    assert records == [{"key": k, "lhs": k, "rhs": -k - 1} for k in range(10)]
    # a passing statement is counted but not recorded; the lane records follow
    checked, records, _ = verify_mod._sweep(
        scope, lambda lanes: [("run", 0, 1)], lambda key: {"key": key},
        statements=[(0, 1, 2), (1, 3, 3), (2, 4, 5)])
    assert checked == 3 + 5
    assert [r["key"] for r in records] == [0, 2, "run", "run", "run", "run", "run"]
    assert [r["sample"] for r in records[2:]] == list(range(5))


def test_t_one_visits_no_run(monkeypatch):
    def refuse(scope):
        raise AssertionError("t-one walked a run")
    monkeypatch.setattr(verify_mod, "_runs", refuse)
    report = verify("t-one", Scope(mode="random", order=12, samples=RANDOM_MAX_SAMPLES))
    assert report.passed and report.checked == len(symmetric_tuples(11))


def _two_checks(lanes):
    """Two comparisons per lane; both fail in the lanes of _flaky tournaments."""
    lhs = rhs = 0
    for i in range(lanes.count):
        lhs |= (2 if _flaky(lanes.tournament(i)) else 1) << lanes.width * i
        rhs |= 1 << lanes.width * i
    yield "first", lhs, rhs
    yield "second", lhs, rhs


@pytest.mark.parametrize("scope", [
    Scope(mode="exhaustive", order=5),
    Scope(mode="random", order=6, samples=60, seed=2),
], ids=["exhaustive", "random"])
@pytest.mark.parametrize("single", [False, True])
def test_sweep_reports_in_scope_order_whatever_the_run_order(monkeypatch, scope, single):
    describe = lambda key: {"check": key}  # noqa: E731
    paired = verify_mod._sweep(scope, _two_checks, describe, single)
    in_serial = sorted(verify_mod._runs(scope), key=lambda run: run[0])
    monkeypatch.setattr(verify_mod, "_runs", lambda _: in_serial)
    serial = verify_mod._sweep(scope, _two_checks, describe, single)
    monkeypatch.setattr(verify_mod, "_runs", lambda _: in_serial[::-1])
    backward = verify_mod._sweep(scope, _two_checks, describe, single)
    assert backward == serial == paired
    # the list a loop over single tournaments in scope order gives
    expected = []
    for index, T in scope.tournaments():
        for key in ("first", "second") if _flaky(T) else ():
            record = {"tournament": T.serialize(), "check": key, "lhs": 2, "rhs": 1}
            if scope.is_random:
                record["sample"] = index
            expected.append(record)
    assert len(expected) > 10
    assert serial[1] == expected[:10]


# --- the alternating special case -------------------------------------------------

def test_rosenfeld_nontrivial_case():
    report = rosenfeld_check(Scope(mode="exhaustive", order=5))
    assert report.passed
    assert report.checked == 1024
    assert report.details == {"alpha": "(1,-1,1,-1)", "trivial": False}
    assert report.property_id == "rosenfeld"


def test_rosenfeld_trivial_case_flagged():
    report = rosenfeld_check(Scope(mode="exhaustive", order=4))
    assert report.passed
    assert report.details == {"alpha": "(1,-1,1)", "trivial": True}


def _alternating_path_sets(T, lead):
    """Arc sets of the Hamiltonian paths of T whose signs alternate from
    ``lead``, by brute force over permutations."""
    out = set()
    for perm in permutations(range(T.n)):
        if all(T.has_arc(a, b) == (lead if i % 2 == 0 else not lead)
               for i, (a, b) in enumerate(zip(perm, perm[1:]))):
            out.add(frozenset((a, b) if T.has_arc(a, b) else (b, a)
                              for a, b in zip(perm, perm[1:])))
    return out


def test_rosenfeld_trivial_exactly_when_both_sides_count_the_same_paths():
    for n in range(2, 8):
        trivial = rosenfeld_check(Scope(mode="random", order=n, samples=1, seed=n)).details["trivial"]
        # the transitive tournament has a Hamiltonian path of every sign word
        hosts = [transitive(n), *random_tournaments(n, 30 + n, 3)]
        for T in hosts:
            forward, backward = _alternating_path_sets(T, True), _alternating_path_sets(T, False)
            if forward or backward:
                assert (forward == backward) == trivial, (n, T.serialize())
        assert _alternating_path_sets(hosts[0], True)


def test_rosenfeld_random_mode():
    report = rosenfeld_check(Scope(mode="random", order=8, samples=20, seed=4))
    assert report.passed and report.checked == 20


def test_rosenfeld_needs_two_vertices():
    with pytest.raises(TooShortError):
        rosenfeld_check(Scope(mode="exhaustive", order=1))


def test_rosenfeld_registered_like_every_property():
    assert "rosenfeld" in PROPERTY_IDS
    scope = Scope(mode="exhaustive", order=4)
    assert verify("rosenfeld", scope) == rosenfeld_check(scope)
    with pytest.raises(TourCensusError):
        verify("rosenfeld", scope, max_arc_sum=2)


# --- type inventories --------------------------------------------------------------

def test_list_types_examples():
    assert set(list_types(2, "path")) == {(2,), (-2,), (1, -1), (-1, 1)}
    assert set(list_types(3, "cycle")) == {
        (3,), (-3,), (1, -2), (2, -1), (-1, 2), (-2, 1),
    }
    assert set(list_types(1, "path")) == {(1,), (-1,)}


def test_list_types_guard():
    with pytest.raises(TooShortError):
        list_types(0, "path")
