"""Unit tests for property sweeps and their reports."""

import dataclasses
import json

import pytest

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
from tourcensus.digraphs import CopyCounter, all_digraph_specs
from tourcensus.tournaments import Tournament
from tourcensus.type_algebra import (
    format_type,
    generated_cycle_types,
    normalize_path,
    path_canonical,
    standard_tuples,
    star_one,
)


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
    with pytest.raises(ValueError):
        Scope(mode="unknown", order=4)


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
    return verify_mod._sweep(scope, lambda lanes: [(None, 0, 1)], lambda _: {},
                             verify_mod._single_runs)


def test_violations_capped_and_tagged(monkeypatch):
    monkeypatch.setitem(verify_mod._CHECKERS, "always-fails", _always_fails)
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

    def faulty(T, *args):
        result = real(T, *args)
        lanes = args[-1]
        for i in range(lanes.count):
            if lanes.tournament(i).bits in _FAULTY:
                bump(result, i, lanes)
        return result
    return faulty


def _bump_words(words, i, lanes):
    directed = (1 << (lanes.T.n - 1)) - 1  # type (n-1) only: one violation per lane
    words[directed] = words.get(directed, 0) + (2 << lanes.width * i)


def _bump_census(result, i, lanes):
    words, cycles = result
    _bump_words(words, i, lanes)
    for k, cls in enumerate(cycles):
        cycles[cls] += (k + 1) << lanes.width * i


@pytest.mark.parametrize("pid, source, bump", [
    ("path-identity", "enumeration_word_counts", _bump_words),
    ("enumeration-partition", "enumeration_word_counts", _bump_words),
    ("cycle-identity", "_length_census", _bump_census),
    ("complement-bridge", "_length_census", _bump_census),
])
def test_batched_violations_match_single_tournaments(monkeypatch, pid, source, bump):
    scope = Scope(mode="exhaustive", order=6)
    monkeypatch.setattr(verify_mod, source, _corrupt(source, bump))
    runs = verify_mod._lane_runs
    monkeypatch.setattr(verify_mod, "_lane_runs", lambda scope: (
        (i, lanes) for i, lanes in runs(scope) if i >> 5 in _HIGHS))
    batched = verify(pid, scope)
    # the same checker fed one tournament per batch, in scope order
    monkeypatch.setattr(verify_mod, "_lane_runs", lambda scope: (
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
    "eqsym": (0, 0, 0, 48),
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


# --- violation records of the oracle and copy checkers ------------------------------

# the sample indices to corrupt: 12 of them, so that the cap of 10 cuts
_FAULTY_INDICES = (1, 2, 5, 8, 9, 13, 14, 17, 20, 21, 22, 23)
_SCOPES = {
    "exhaustive": Scope(mode="exhaustive", order=5),
    "random": Scope(mode="random", order=6, samples=24, seed=5),
}


def _faulty_bits(scope):
    ts = [T for _, T in scope.tournaments()]
    return {ts[i].bits for i in _FAULTY_INDICES}


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
    real = verify_mod.oracle_census

    def oracle_census(T):
        report = real(T)
        if T.bits in faulty:
            report.path_counts[path_canonical(directed)] += 1
        return report
    monkeypatch.setattr(verify_mod, "oracle_census", oracle_census)

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
    real = verify_mod.oracle_census

    def oracle_census(T):
        report = real(T)
        if T.bits in faulty:
            report.cycle_counts = dict.fromkeys(report.cycle_counts, 0)
        return report
    monkeypatch.setattr(verify_mod, "oracle_census", oracle_census)

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
                       "lhs": len(sets.get(first, ())) + 1, "rhs": len(sets.get(second, ())) + 1}
    return records_of


def _eqsym_types_fault(monkeypatch, scope, faulty):
    # odd block counts claim coinciding cycle types, in every tournament
    real = verify_mod.generated_cycle_types

    def generated(alpha):
        gen = real(alpha)
        return gen._replace(coincide=True) if len(alpha) % 2 else gen
    monkeypatch.setattr(verify_mod, "generated_cycle_types", generated)

    def records_of(index, T):
        for alpha in standard_tuples(scope.order - 1, "path"):
            if len(alpha) % 2:
                first, second, _ = real(alpha)
                yield {"type": format_type(alpha), "first": format_type(first),
                       "second": format_type(second), "lhs": True, "rhs": False}
    return records_of


def _class_sizes_fault(monkeypatch, scope, faulty):
    # the first class of every type loses a path
    real = verify_mod.path_classes

    def path_classes(T, alpha):
        part = real(T, alpha)
        if T.bits in faulty and part.classes:
            first = part.classes[0]
            shrunk = dataclasses.replace(first, paths=frozenset(sorted(first.paths)[1:]))
            part.classes = (shrunk,) + part.classes[1:]
        return part
    monkeypatch.setattr(verify_mod, "path_classes", path_classes)

    def records_of(index, T):
        if T.bits not in faulty:
            return
        for alpha in path_type_classes(scope.order - 1):
            classes = real(T, alpha).classes
            if classes:
                size = len(classes[0].paths)
                yield {"type": format_type(alpha),
                       "cycle_type": format_type(classes[0].cycle_type),
                       "lhs": size - 1, "rhs": size}
    return records_of


def _h_invariance_fault(monkeypatch, scope, faulty):
    # the last pattern has one copy too many in each faulty host, which the
    # reversed side sees when the reversal of the swept tournament is faulty
    calls = []

    class FaultyCounter(CopyCounter):
        def counts(self, patterns):
            out = super().counts(patterns)
            calls.append(patterns)
            if self.T.bits in faulty:
                out[-1] += 1
            return out
    monkeypatch.setattr(verify_mod, "CopyCounter", FaultyCounter)

    def records_of(index, T):
        # the forward count of sample k is call 2k, the reversed one call 2k+1
        forward, reverse = T.bits in faulty, T.complement().bits in faulty
        if forward != reverse:
            spec = calls[2 * index][-1] if scope.is_random else all_digraph_specs(scope.order)[-1]
            c = CopyCounter(T).count(spec)
            yield {"digraph": spec.render(), "lhs": c + forward, "rhs": c + reverse}
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
    scope = _SCOPES[mode]
    pid, make_fault, fields = _FAULTS[fault]
    records_of = make_fault(monkeypatch, scope, _faulty_bits(scope))
    report = verify(pid, scope)
    assert len(report.violations) == 10  # capped
    keys = {"tournament", "lhs", "rhs"} | fields | ({"sample"} if scope.is_random else set())
    assert all(set(v) == keys for v in report.violations)
    assert report.violations == _expected(scope, records_of)
    # in scope order: serial order when exhaustive, sample order when random
    order = [v["sample"] if scope.is_random else Tournament.parse(v["tournament"]).bits
             for v in report.violations]
    assert order == sorted(order)
    if fault == "eqsym-types":
        # the first check compares booleans and reports them as JSON booleans
        assert '"lhs": true, "rhs": false' in json.dumps(report.violations[0])


# --- the alternating special case -------------------------------------------------

def test_rosenfeld_nontrivial_case():
    report = rosenfeld_check(Scope(mode="exhaustive", order=4))
    assert report.passed
    assert report.checked == 64
    assert report.details == {"alpha": "(1,-1,1)", "trivial": False}
    assert report.property_id == "rosenfeld"


def test_rosenfeld_trivial_case_flagged():
    report = rosenfeld_check(Scope(mode="exhaustive", order=5))
    assert report.passed
    assert report.details == {"alpha": "(1,-1,1,-1)", "trivial": True}


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
