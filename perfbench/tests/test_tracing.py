"""Span recorder, self-time arithmetic and the counters of a traced call.

    PYTHONPATH=src python3 -m pytest perfbench/tests
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracing import SpanRecorder, self_times  # noqa: E402


def spans(*rows):
    """Columns from (name, start, end, parent) rows."""
    names, starts, ends, parents = zip(*rows)
    return list(names), list(starts), list(ends), list(parents)


def test_nested_spans():
    got = self_times(*spans(("a", 0, 10, -1), ("b", 2, 5, 0), ("c", 3, 4, 1)))
    assert got == {"a": 7, "b": 2, "c": 1}


def test_siblings_and_repeated_names():
    got = self_times(*spans(("a", 0, 10, -1), ("b", 1, 3, 0), ("b", 4, 8, 0), ("c", 5, 6, 2)))
    assert got == {"a": 4, "b": 5, "c": 1}


def test_recursion_adds_self_times_of_one_name():
    got = self_times(*spans(("a", 0, 10, -1), ("a", 2, 4, 0)))
    assert got == {"a": 10}


def test_overlapping_children_cover_their_union_once():
    got = self_times(*spans(("a", 0, 10, -1), ("b", 1, 4, 0), ("b", 3, 6, 0), ("b", 5, 5.5, 0)))
    assert got["a"] == pytest.approx(5)


def test_children_are_clipped_to_the_parent():
    got = self_times(*spans(("a", 0, 10, -1), ("b", 8, 12, 0)))
    assert got == {"a": 8, "b": 4}


def test_roots_keep_their_whole_duration():
    got = self_times(*spans(("a", 0, 1, -1), ("a", 2, 5, -1)))
    assert got == {"a": 4}


def test_recorder_spans_counters_and_tallies():
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: float(next(ticks)))

    def leaf(x):
        return [x] * x

    def middle(x):
        return len(leaf(x)) + len(leaf(x + 1))

    leaf = rec.wrap(leaf, "leaf", count="leaf_calls", tally=("items", lambda args, r: len(r)))
    middle = rec.wrap(middle, "middle")
    top = rec.wrap(lambda: middle(2), "top")

    assert top() == 5
    assert [rec.labels[k] for k in rec.names] == ["top", "middle", "leaf", "leaf"]
    assert list(rec.parents) == [-1, 0, 1, 1]
    # clock ticks: top 0..7, middle 1..6, leaf 2..3 and 4..5
    assert list(rec.starts) == [0, 1, 2, 4]
    assert list(rec.ends) == [7, 6, 3, 5]
    assert rec.self_times() == {"top": 2, "middle": 3, "leaf": 2}
    assert rec.counts == {"leaf_calls": 2, "items": 5}


def test_recorder_closes_spans_of_calls_that_raise():
    rec = SpanRecorder()

    def boom():
        raise ValueError("boom")

    wrapped = rec.wrap(boom, "boom")
    with pytest.raises(ValueError):
        wrapped()
    assert rec.ends[0] >= rec.starts[0] and not rec._stack


def _traced(tmp_path, *argv):
    out = tmp_path / "spans.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(BENCH / "traced_cli.py"), str(out), *argv],
                          capture_output=True, env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout), json.loads(out.read_text())


HOST = "7:010110101100001110010"


@pytest.mark.parametrize("argv, counters", [
    (("census", "--random", "--order", "7", "--seed", "3"),
     ("census.states_expanded", "census.advance_calls", "census.cycle_count_calls")),
    (("hcount", "--tournament", HOST, "--digraph", "P(1,-1);C(3);V", "--complement-check"),
     ("digraphs.span_subsets", "digraphs.span_tables", "census.states_expanded")),
])
def test_counters_repeat_exactly(tmp_path, argv, counters):
    doc1, trace1 = _traced(tmp_path, *argv)
    doc2, trace2 = _traced(tmp_path, *argv)
    assert doc1 == doc2
    assert trace1["counts"] == trace2["counts"]
    for name in counters:
        assert trace1["counts"][name] > 0, name


def test_traced_call_prints_what_the_plain_call_prints(tmp_path):
    argv = ("verify", "--property", "szele-floor", "--exhaustive", "--order", "4")
    doc, trace = _traced(tmp_path, *argv)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    plain = subprocess.run(
        [sys.executable, "-c",
         "import sys; from tourcensus.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True, env=env, cwd=ROOT, timeout=120, check=True)
    plain_doc = json.loads(plain.stdout)
    del doc["ms"], plain_doc["ms"]  # wall-clock milliseconds
    assert doc == plain_doc
    assert trace["counts"]["tournaments.built"] == 64
    assert set(trace["self_s"]) >= {"cli.self", "verifier.self", "census.path_count",
                                    "census.advance", "tournaments.self"}


def test_install_reaches_every_namespace():
    code = """
import importlib
from tracing import SpanRecorder, install
names = ("cli", "census", "digraphs", "verifier", "type_algebra", "tournaments")
mods = [importlib.import_module("tourcensus." + m) for m in names]
before = mods[1].count_cycles, mods[1].census
install(SpanRecorder())
import tourcensus
holders = [m for m in mods + [tourcensus] if hasattr(m, "count_cycles")]
assert len(holders) == 4, holders
assert all(m.count_cycles is holders[0].count_cycles is not before[0] for m in holders)
assert mods[0].census is mods[1].census is not before[1]
print("ok")
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(BENCH)])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                          cwd=ROOT, timeout=120)
    assert proc.stdout.strip() == b"ok", proc.stderr
