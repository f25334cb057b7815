"""The statistics and the gain rule of tools/bench_record.py, on made-up runs.

No benchmark runs here."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def test_quartiles_inclusive():
    assert bench_record.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_record.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)
    assert bench_record.quartiles([7.0]) == (7.0, 7.0, 7.0)


# parent runs 3.40..3.58: median 3.49, quartiles 3.4450 and 3.5350 (distance 0.09)
_PARENT = [3.40, 3.42, 3.44, 3.46, 3.48, 3.50, 3.52, 3.54, 3.56, 3.58]


def test_clear_gain_is_claimed():
    change = [2.8 + 0.01 * i for i in range(10)]
    doc = bench_record.compare_metric(list(zip(_PARENT, change)), "lower", 0.25)
    assert doc["change_wins"] == 10 and doc["parent_wins"] == 0
    assert doc["parent"]["median"] == pytest.approx(3.49)
    assert doc["parent"]["q3"] - doc["parent"]["q1"] == pytest.approx(0.09)
    assert doc["gain"] and not doc["beyond_bound"]


def test_gain_needs_nine_pair_wins():
    # a large median gap, but the change loses two pairs
    change = [2.8] * 8 + [3.6, 3.7]
    doc = bench_record.compare_metric(list(zip(_PARENT, change)), "lower")
    assert doc["change_wins"] == 8
    assert not doc["gain"]
    change[8] = 3.5  # beats 3.56: nine wins are enough
    assert bench_record.compare_metric(list(zip(_PARENT, change)), "lower")["gain"]


def test_gain_needs_a_gap_beyond_the_parent_quartiles():
    # every pair won, by less than the parent's quartile distance
    change = [p - 0.05 for p in _PARENT]
    doc = bench_record.compare_metric(list(zip(_PARENT, change)), "lower")
    assert doc["change_wins"] == 10
    assert not doc["gain"]


def test_higher_is_better_and_bounds():
    parent = [0.5] * 10
    change = [0.4] * 10
    doc = bench_record.compare_metric(list(zip(parent, change)), "higher", 0.05)
    assert doc["parent_wins"] == 10 and not doc["gain"]
    assert doc["beyond_bound"]  # 0.1 worse, bound 0.05
    assert not bench_record.compare_metric(list(zip(parent, change)), "higher", 0.2)["beyond_bound"]
    assert bench_record.compare_metric(list(zip(change, parent)), "higher")["gain"]


def test_summarize_pairs_runs_by_seed_and_skips_missing_ones():
    def run(wall, rss, failed=0, correct=True):
        return {"correct": correct, "attempted": 10, "failed": failed,
                "metrics": {"wall_s": {"value": wall, "unit": "s"},
                            "peak_rss_mib": {"value": rss, "unit": "MiB"}}}

    runs = {"parent": [run(3.5, 18.2), run(3.6, 18.2), None],
            "change": [run(2.9, 18.2), None, run(2.8, 18.3, failed=1, correct=False)]}
    end_to_end = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
                  {"name": "peak_rss_mib", "unit": "MiB", "better": "lower", "bound": 0.1}]
    doc = bench_record.summarize(runs, end_to_end)
    assert doc["sides"]["parent"] == {"runs": 3, "runs_without_result": 1, "correct": True,
                                      "attempted": 20, "failed": 0}
    assert doc["sides"]["change"]["correct"] is False
    assert doc["sides"]["change"]["failed"] == 1
    wall = doc["metrics"]["wall_s"]
    assert wall["pairs"] == 1 and wall["values"] == {"parent": [3.5], "change": [2.9]}
    assert wall["change_wins"] == 1 and wall["bound"] == 0.25
    rss = doc["metrics"]["peak_rss_mib"]
    assert rss["change_wins"] == rss["parent_wins"] == 0


def test_no_pairs_claim_nothing():
    doc = bench_record.compare_metric([], "lower", 0.25)
    assert doc == {"pairs": 0, "change_wins": 0, "parent_wins": 0,
                   "gain": False, "beyond_bound": False, "unresolved": True}


def test_parent_spread_wider_than_the_bound_is_unresolved():
    # parent quartile distance 0.09: resolved under a 0.25 bound, not under 0.05
    change = [3.45 - 0.01 * i for i in range(10)]  # 3.45 down to 3.36
    pairs = list(zip(_PARENT, change))
    assert not bench_record.compare_metric(pairs, "lower", 0.25)["unresolved"]
    assert bench_record.compare_metric(pairs, "lower", 0.05)["unresolved"]
    assert not bench_record.compare_metric(pairs, "lower")["unresolved"]
    # ... unless every change run beats every parent run
    faster = [2.8 + 0.01 * i for i in range(10)]
    doc = bench_record.compare_metric(list(zip(_PARENT, faster)), "lower", 0.05)
    assert not doc["unresolved"] and doc["gain"]
    # parent quartile distance 0.045 and bound 0.04: a far worse change is both
    doc = bench_record.compare_metric(list(zip(faster, _PARENT)), "lower", 0.04)
    assert doc["unresolved"] and doc["beyond_bound"] and not doc["gain"]


def _run(wall, failed=0, attempted=10):
    return {"correct": not failed, "attempted": attempted, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"}}}


_WALL = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]


def test_no_gain_when_the_change_fails_more_operations():
    parent = [_run(w) for w in _PARENT]
    change = [_run(2.8 + 0.01 * i) for i in range(10)]
    assert bench_record.summarize({"parent": parent, "change": change}, _WALL)[
        "metrics"]["wall_s"]["gain"]
    change[3] = _run(2.83, failed=1)
    doc = bench_record.summarize({"parent": parent, "change": change}, _WALL)
    assert doc["sides"]["change"]["failed"] == 1
    assert doc["metrics"]["wall_s"]["change_wins"] == 10
    assert not doc["metrics"]["wall_s"]["gain"]
    # as many failures on both sides leave the gain standing
    parent[5] = _run(3.50, failed=1)
    assert bench_record.summarize({"parent": parent, "change": change}, _WALL)[
        "metrics"]["wall_s"]["gain"]


def test_no_gain_when_the_change_loses_more_runs():
    parent = [_run(w) for w in _PARENT] + [_run(3.5)]
    change = [_run(2.8 + 0.01 * i) for i in range(10)] + [None]
    doc = bench_record.summarize({"parent": parent, "change": change}, _WALL)
    assert doc["metrics"]["wall_s"]["change_wins"] == 10
    assert not doc["metrics"]["wall_s"]["gain"]


# run.py's stderr on a run where one census-8 call gave a wrong answer and one
# census-10 call crashed
_STDERR = """\
census-8: wrong output: paths sum to 40319, not 8!
census-10: exit code 1: Traceback (most recent call last):
  File "<string>", line 1, in <module>
MemoryError
census-10: 4 rounds, wall median 0.112 s (range 0.109..0.119), paced median 0.181 s
census-8: 4 rounds, wall median 0.090 s (range 0.087..0.093), paced median 0.147 s
"""


def test_paced_medians_read_every_call_line_and_skip_the_rest():
    assert bench_record.paced_medians(_STDERR) == {"census-10": 0.181, "census-8": 0.147}
    assert bench_record.paced_medians("") == {}


def test_summarize_keeps_each_calls_median_per_side():
    calls = bench_record.paced_medians(_STDERR)
    parent = [{**_run(0.33), "calls": calls}, {**_run(0.32), "calls": {"census-10": 0.2}},
              {**_run(0.34), "calls": calls}]
    change = [{**_run(0.30), "calls": {"census-10": 0.16, "census-8": 0.14}}, None, _run(0.29)]
    doc = bench_record.summarize({"parent": parent, "change": change}, _WALL)
    assert doc["calls"] == {"census-10": {"parent": 0.181, "change": 0.16},
                            "census-8": {"parent": 0.147, "change": 0.14}}
