"""Reference values, the output checks and the pace child.

Each output check accepts the program's real output and rejects a doctored one.

    PYTHONPATH=src python3 -m pytest perfbench/tests
"""

import copy
import os
import random
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import reference as ref  # noqa: E402
from checks import CheckFailed  # noqa: E402
from tourcensus.cli import main  # noqa: E402


def run_cli(capsys, *argv) -> dict:
    assert main(list(argv)) == 0
    return checks.parse_document(capsys.readouterr().out.encode())


# ---------------------------------------------------------------------------
# reference values against hand-checkable numbers


def test_orbit_counts():
    assert len(ref.path_classes(2)) == 3      # (2), (1,-1), (-1,1)
    assert len(ref.cycle_classes(3)) == 2     # (3), (1,-2)
    # no odd-length word is its own reversed negation, so each orbit has two
    assert len(ref.path_classes(9)) == 2 ** 9 // 2
    assert len(ref.path_classes(4)) == (2 ** 4 + 2 ** 2) // 2


def test_checked_formulas_match_the_acceptance_suite():
    assert ref.path_identity_checked(5) == 1024 * 8
    assert ref.cycle_identity_checked(5) == 1024 * 9
    assert ref.count_formula_checked(8, 10) == 1280
    assert ref.h_invariance_checked(5) == 1024 * 61


def test_class_sizes_formula_by_hand_at_order_3():
    # 8 tournaments, one Hamiltonian cycle each: the 2 directed triangles
    # contain one path type, the 6 others contain (2) and (1,-1) and (-1,1)
    assert ref.class_sizes_checked(3) == 2 * 1 + 6 * 3


def test_brute_copies_by_hand():
    t = ref.transitive(4)
    assert ref.brute_copies(t, "P(1)") == comb(4, 2)
    assert ref.brute_copies(t, "P(1);V") == comb(4, 2) * 2
    assert ref.brute_copies(t, "C(3)") == 0
    assert ref.brute_copies(ref.parse("3:101"), "C(3)") == 1


def test_strong():
    assert ref.is_strong(ref.parse("3:101"))
    assert not ref.is_strong(ref.transitive(5))


# ---------------------------------------------------------------------------
# parse_document


@pytest.mark.parametrize("stdout", [b"", b"  \n", b'{"a": 1}\n{"a": 1}\n', b"[1, 2]", b"{"])
def test_parse_document_rejects(stdout):
    with pytest.raises(CheckFailed):
        checks.parse_document(stdout)


# ---------------------------------------------------------------------------
# census: theorems


@pytest.fixture(scope="module")
def theorem_case(tmp_path_factory):
    rng = random.Random(5)
    t0, t1 = ref.random_tournament(8, rng), ref.random_tournament(8, rng)
    ts = [t0, ref.complement(t0), t1, ref.complement(t1), ref.transitive(8)]
    assert all(ref.is_strong(t) for t in ts[:4])
    path = tmp_path_factory.mktemp("census") / "in.txt"
    path.write_text("".join(ref.serialize(t) + "\n" for t in ts))
    return ts, path


@pytest.fixture
def theorem_doc(theorem_case, capsys):
    ts, path = theorem_case
    return ts, run_cli(capsys, "census", "--input", str(path), "--order", "8")


def key_of(section: dict, word: tuple, classify) -> str:
    """The printed key of the type of ``word``."""
    target = classify(word)
    return next(k for k in section if classify(ref.signs(ref.parse_key(k))) == target)


def move(section: dict, src: str, dst: str, amount: int) -> None:
    section[src] -= amount
    section[dst] += amount


PALINDROME = (1, -1, 1, -1, 1, -1, 1)  # path word equal to its reversal: type = -type
ALTERNATING = (1, -1) * 4               # cycle word whose negation is a rotation


def test_theorems_accept_the_program(theorem_doc):
    ts, doc = theorem_doc
    checks.check_census_theorems(doc, ts)


def doctored(theorem_doc, edit, message):
    ts, doc = theorem_doc
    bad = copy.deepcopy(doc)
    edit(bad["reports"])
    with pytest.raises(CheckFailed, match=message):
        checks.check_census_theorems(bad, ts)


def test_theorems_reject_wrong_path_total(theorem_doc):
    def edit(reports):
        reports[0]["paths"][key_of(reports[0]["paths"], PALINDROME, ref.path_class)] += 1
    doctored(theorem_doc, edit, "sum to")


def test_theorems_reject_missing_type(theorem_doc):
    def edit(reports):
        cycles = reports[0]["cycles"]
        gone = key_of(cycles, ALTERNATING, ref.cycle_class)
        first = next(k for k in cycles if k != gone)
        cycles[first] += cycles.pop(gone)
    doctored(theorem_doc, edit, "cycle keys")


def test_theorems_reject_negation_mismatch(theorem_doc):
    word = (1, 1, -1, 1, 1, 1, 1)
    def edit(reports):
        paths = reports[0]["paths"]
        neg = tuple(-s for s in word)
        move(paths, key_of(paths, word, ref.path_class), key_of(paths, neg, ref.path_class), 1)
    doctored(theorem_doc, edit, "its negation")


def test_theorems_reject_complement_mismatch(theorem_doc):
    def edit(reports):
        for section in ("paths", "cycles"):
            reports[1][section] = reports[2][section]
    doctored(theorem_doc, edit, "complements differ")


def test_theorems_reject_even_directed_path_count(theorem_doc):
    def edit(reports):
        paths = reports[0]["paths"]
        directed = key_of(paths, ref.directed(7), ref.path_class)
        move(paths, directed, key_of(paths, PALINDROME, ref.path_class), 1)
    doctored(theorem_doc, edit, "not odd")


def test_theorems_reject_missing_directed_cycle(theorem_doc):
    def edit(reports):
        cycles = reports[0]["cycles"]
        directed = key_of(cycles, ref.directed(8), ref.cycle_class)
        move(cycles, directed, key_of(cycles, ALTERNATING, ref.cycle_class), cycles[directed])
    doctored(theorem_doc, edit, "strong=True")


def test_theorems_reject_absent_path_type(theorem_doc):
    other = (1, 1, -1, -1, -1, 1, 1)  # another palindrome
    def edit(reports):
        paths = reports[0]["paths"]
        src = key_of(paths, PALINDROME, ref.path_class)
        move(paths, src, key_of(paths, other, ref.path_class), paths[src])
    doctored(theorem_doc, edit, "has no path")


def test_theorems_reject_transitive_with_three_directed_paths(theorem_doc):
    def edit(reports):
        paths = reports[4]["paths"]
        src = key_of(paths, PALINDROME, ref.path_class)
        assert paths[src] >= 3
        move(paths, src, key_of(paths, ref.directed(7), ref.path_class), 2)
    doctored(theorem_doc, edit, "transitive")


def test_theorems_reject_report_without_cycles(theorem_doc):
    def edit(reports):
        del reports[3]["cycles"]
    doctored(theorem_doc, edit, "cycle counts are not an object")


def test_theorems_reject_report_of_another_tournament(theorem_doc):
    def edit(reports):
        reports[0]["tournament"] = reports[2]["tournament"]
    doctored(theorem_doc, edit, "report of")


# ---------------------------------------------------------------------------
# census: brute force


def test_brute_force_accepts_the_program_and_rejects_a_moved_count(tmp_path, capsys):
    rng = random.Random(9)
    ts = [ref.random_tournament(6, rng) for _ in range(2)]
    path = tmp_path / "in.txt"
    path.write_text("".join(ref.serialize(t) + "\n" for t in ts))
    doc = run_cli(capsys, "census", "--input", str(path), "--order", "6")
    expected = [ref.brute_census(t) for t in ts]
    checks.check_census_brute(doc, ts, expected)

    bad = copy.deepcopy(doc)
    paths = bad["reports"][1]["paths"]
    keys = sorted(paths, key=paths.get)
    move(paths, keys[-1], keys[0], 1)
    with pytest.raises(CheckFailed, match="brute force"):
        checks.check_census_brute(bad, ts, expected)


# ---------------------------------------------------------------------------
# verify


@pytest.fixture
def szele_doc(capsys):
    return run_cli(capsys, "verify", "--property", "szele-floor", "--exhaustive", "--order", "4")


SZELE4 = {"floor": ref.szele_floor(4), "max": ref.A038375[4]}


def test_verify_accepts_the_program(szele_doc, capsys):
    checks.check_verify(szele_doc, "szele-floor", 64, SZELE4)
    for prop, checked in (("path-identity", ref.path_identity_checked(4)),
                          ("cycle-identity", ref.cycle_identity_checked(4)),
                          ("complement-bridge", ref.complement_bridge_checked(4)),
                          ("class-sizes", ref.class_sizes_checked(4))):
        doc = run_cli(capsys, "verify", "--property", prop, "--exhaustive", "--order", "4")
        checks.check_verify(doc, prop, checked)


@pytest.mark.parametrize("field, value, message", [
    ("checked", 63, "checked"),
    ("pass", False, "did not pass"),
    ("violations", [{"lhs": 1, "rhs": 2}], "did not pass"),
    ("details", {"floor": 3, "max": 6}, "details"),
    ("property", "path-identity", "property"),
])
def test_verify_rejects(szele_doc, field, value, message):
    bad = dict(szele_doc, **{field: value})
    with pytest.raises(CheckFailed, match=message):
        checks.check_verify(bad, "szele-floor", 64, SZELE4)


def test_verify_ignores_wall_clock(szele_doc):
    checks.check_verify(dict(szele_doc, ms=123456), "szele-floor", 64, SZELE4)


# ---------------------------------------------------------------------------
# hcount


def test_hcount_accepts_the_program_and_rejects_doctored_counts(capsys):
    host = ref.random_tournament(8, random.Random(2))
    serial, spec = ref.serialize(host), "P(2,-1);C(3)"
    doc = run_cli(capsys, "hcount", "--tournament", serial, "--digraph", spec,
                  "--complement-check")
    brute = ref.brute_copies(host, spec)
    checks.check_hcount(doc, serial, brute)

    for bad, message in ((dict(doc, complement_count=doc["count"] + 1), "complement count"),
                         (dict(doc, count=doc["count"] + 1, complement_count=doc["count"] + 1),
                          "brute force"),
                         (dict(doc, tournament=ref.serialize(ref.transitive(8))), "host")):
        with pytest.raises(CheckFailed, match=message):
            checks.check_hcount(bad, serial, brute)


# ---------------------------------------------------------------------------
# the pace child


def test_pace_child_does_not_touch_the_program():
    """A change to the program must not move the unit that paces it."""
    code = ("import runpy, sys; runpy.run_path(sys.argv[1], run_name='__main__'); "
            "assert not [m for m in sys.modules if m.startswith('tourcensus')]")
    env = {**os.environ, "PYTHONPATH": str(BENCH.parent / "src")}
    proc = subprocess.run([sys.executable, "-c", code, str(BENCH / "pace.py")],
                          capture_output=True, env=env, cwd=BENCH, timeout=120)
    assert proc.returncode == 0, proc.stderr
