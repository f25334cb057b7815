"""Record a BENCH_*.json: the benchmark run on a parent and a change, paired.

    python3 tools/bench_record.py --out BENCH_<n>.json [--parent REV]

The change is HEAD and the parent is HEAD's first parent unless ``--parent``
names another revision.  Both revisions are exported from git (``git archive``) into one temporary
directory outside the repository, which is deleted at the end.  So both sides
run their committed files, and an interrupted recording leaves nothing in the
repository's ``.git``.  In each export the unchanged benchmark command of
``BENCHMARK.json`` runs as

    python3 perfbench/run.py --workload W --seed S --seconds 25 --trace 0

once per workload of the file and seed of the fixed list ``SEEDS``
(``--seconds`` is the file's ``run_seconds``), parent and change back to back.  Which side runs first
alternates from one seed to the next.  Then one
``--trace 1`` run per side and workload, on the first seed, records the
per-layer counters.  Standard library only; nothing is installed.

The file holds, per workload and side, the median and quartiles of every
end-to-end metric with the pair wins, ``correct`` and ``failed``, the median
over seeds of each call's paced median (``calls``; ``run.py`` prints those to
stderr), and the traced metrics; also ``nproc``, the Python version, both shas
and the seeds.
A gain counts only when the change wins at least nine in ten pairs, its
median beats the parent's by more than the parent's quartile distance, and it
fails no more operations and loses no more runs than the parent.  A metric
whose parent quartile distance exceeds its bound is marked ``unresolved``,
unless every change run beats every parent run: the runs cannot tell a move
within the bound from noise.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
SEEDS = tuple(range(21, 31))
WIN_SHARE = 0.9  # the share of pairs a gain must win

# faults of perfbench/ as of this tool's first file; drop a line once it is mended
KNOWN_FAULTS = (
    "peak_rss_mib includes perfbench/run.py's own high-water mark (ru_maxrss of "
    "waited children). Its bound is 0.1 MiB, and it moves with the checkout "
    "directory's name alone: on copies by up to about 0.3 MiB (the hcount-14 "
    "child's heap layout), and on census by +0.12 to +0.17 MiB between two names of "
    "different lengths, where the census children peak lower and the metric is "
    "run.py's own mark. Equal-length names, like this tool's parent/ and change/, "
    "showed no move; other moves of that size are noise.",
    "digraphs._span_tables is not wrapped by perfbench/tracing.py, so on copies "
    "the batched span-table building is counted in cli.self_s (in verifier.self_s "
    "while the CLI imported the verifier at start-up).",
    "perfbench/tracing.py::install wraps only the namespaces that importing "
    "tourcensus.cli loads, and that import leaves out tourcensus.verifier and "
    "tourcensus.digraphs, which load on first use. So verifier.self_s reads 0 on "
    "sweep and copies, its time counted in cli.self_s; digraphs.span_tables, "
    "digraphs.span_subsets and digraphs.span_table_s read 0 on copies, their time "
    "counted in digraphs.place_s and cli.self_s; and type_algebra.calls and "
    "type_algebra.self_s on copies miss the calls digraphs makes itself (75 of "
    "19 757 calls at seed 21). cli.import_s drops with the two modules.",
    "census._oracle_path_counts and census._oracle_cycle_counts are not wrapped by "
    "perfbench/tracing.py, so on sweep census.oracle_calls and census.oracle_s read "
    "0 and the count-formula and pe-ratio oracle work is counted in verifier.self_s.",
    "four tests in perfbench/tests/test_tracing.py fail on correct code: "
    "test_counters_repeat_exactly[argv0-counters0] wants cycle_count_calls > 0 on "
    "a census, test_counters_repeat_exactly[argv1-counters1] wants "
    "digraphs.span_subsets on an hcount call (see the first-use line above), "
    "test_install_reaches_every_namespace wants count_cycles in 4 "
    "namespaces (2 remain), and test_traced_call_prints_what_the_plain_call_prints "
    "wants 64 tournaments built and a verifier.self span, and deletes ms.",
)


# ---------------------------------------------------------------------------
# statistics


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def beats(a: float, b: float, better: str) -> bool:
    """True when ``a`` is strictly better than ``b``."""
    return a < b if better == "lower" else a > b


def compare_metric(pairs: list[tuple[float, float]], better: str,
                   bound: float | None = None) -> dict:
    """Parent against change over (parent, change) pairs of one metric.

    ``gain`` applies the claim rule: the change wins at least nine in ten
    pairs, and its median beats the parent's by more than the parent's
    quartile distance.  ``beyond_bound`` says the change's median is worse
    than the parent's by more than ``bound``; ``unresolved`` says there are
    no pairs, or the parent's quartile distance exceeds ``bound`` and not
    every change run beats every parent run.
    """
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    doc: dict = {"pairs": len(pairs),
                 "change_wins": sum(beats(c, p, better) for p, c in pairs),
                 "parent_wins": sum(beats(p, c, better) for p, c in pairs)}
    if not pairs:
        return {**doc, "gain": False, "beyond_bound": False, "unresolved": True}
    for side, values in (("parent", parent), ("change", change)):
        q1, med, q3 = quartiles(values)
        doc[side] = {"median": med, "q1": q1, "q3": q3}
    sign = 1 if better == "lower" else -1
    ahead = sign * (doc["parent"]["median"] - doc["change"]["median"])
    spread = doc["parent"]["q3"] - doc["parent"]["q1"]
    doc["gain"] = doc["change_wins"] >= WIN_SHARE * len(pairs) and ahead > spread
    doc["beyond_bound"] = bound is not None and -ahead > bound
    separated = all(beats(c, p, better) for c in change for p in parent)
    doc["unresolved"] = bound is not None and spread > bound and not separated
    return doc


# run.py's stderr line for each call of a timed run, failed calls included
_CALL_LINE = re.compile(r"(\S+): \d+ rounds, wall median [\d.]+ s "
                        r"\(range [\d.]+\.\.[\d.]+\), paced median ([\d.]+) s")


def paced_medians(stderr: str) -> dict[str, float]:
    """Each call's paced median from a benchmark run's stderr, by call name."""
    return {m[1]: float(m[2]) for m in map(_CALL_LINE.fullmatch, stderr.splitlines()) if m}


def summarize(runs: dict[str, list[dict | None]], end_to_end: list[dict]) -> dict:
    """One workload's record from its runs per side, listed by seed; a run is
    the benchmark's result line, or None when it produced none.  A result line
    may carry its calls' paced medians (``calls``); each call keeps, per side,
    the median of those over the runs.  No metric gains when the change fails
    more operations or loses more runs than the parent."""
    calls: dict[str, dict[str, list[float]]] = {}
    for side, results in runs.items():
        for r in results:
            for name, value in (r or {}).get("calls", {}).items():
                calls.setdefault(name, {}).setdefault(side, []).append(value)
    doc: dict = {"sides": {}, "metrics": {},
                 "calls": {name: {side: median(values) for side, values in sides.items()}
                           for name, sides in calls.items()}}
    for side, results in runs.items():
        done = [r for r in results if r is not None]
        doc["sides"][side] = {
            "runs": len(results),
            "runs_without_result": len(results) - len(done),
            "correct": all(r["correct"] for r in done),
            "attempted": sum(r["attempted"] for r in done),
            "failed": sum(r["failed"] for r in done),
        }
    parent, change = doc["sides"]["parent"], doc["sides"]["change"]
    worse = (change["failed"] > parent["failed"]
             or change["runs_without_result"] > parent["runs_without_result"])
    for metric in end_to_end:
        name = metric["name"]
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in zip(runs["parent"], runs["change"])
                 if p is not None and c is not None
                 and name in p["metrics"] and name in c["metrics"]]
        doc["metrics"][name] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric.get("bound"),
            **compare_metric(pairs, metric["better"], metric.get("bound")),
            "values": {"parent": [p for p, _ in pairs], "change": [c for _, c in pairs]},
        }
        if worse:
            doc["metrics"][name]["gain"] = False
    return doc


# ---------------------------------------------------------------------------
# running the benchmark


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(sha: str, where: Path) -> Path:
    """The committed files of ``sha``, unpacked into ``where``."""
    where.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", sha],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(where)], input=archive, check=True)
    return where


def run_bench(command: list[str], checkout: Path, workload: str, seed: int,
              seconds: float, trace: int) -> dict | None:
    """One benchmark run in ``checkout``: its JSON result line with its
    calls' paced medians added as ``calls``, or None."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"  {workload} seed {seed}: exit {proc.returncode}: {proc.stderr[-300:]}",
              file=sys.stderr)
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"  {workload} seed {seed}: no result line", file=sys.stderr)
        return None
    return {**result, "calls": paced_medians(proc.stderr)}


def record(parent: str) -> dict:
    """Run the benchmark on ``parent`` and HEAD, every workload and seed."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    command, seconds = bench["command"], bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = list(SEEDS)
    shas = {"parent": _git("rev-parse", parent), "change": _git("rev-parse", "HEAD")}
    scratch = Path(tempfile.mkdtemp(prefix="bench_record_"))
    try:
        checkouts = {side: export(sha, scratch / side) for side, sha in shas.items()}
        runs = {w: {"parent": [], "change": []} for w in workloads}
        for k, seed in enumerate(seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    print(f"{workload} seed {seed} {side}", file=sys.stderr, flush=True)
                    runs[workload][side].append(
                        run_bench(command, checkouts[side], workload, seed, seconds, 0))
        traced = {w: {} for w in workloads}
        for workload in workloads:
            for side in ("parent", "change"):
                print(f"{workload} traced {side}", file=sys.stderr, flush=True)
                traced[workload][side] = run_bench(
                    command, checkouts[side], workload, seeds[0], seconds, 1)
        python = subprocess.run([command[0], "-c", "import platform; "
                                 "print(platform.python_version())"],
                                capture_output=True, text=True, check=True).stdout.strip()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {
        "schema": 1,
        "shas": shas,
        "nproc": os.cpu_count(),
        "python": python,
        "command": command,
        "seconds": seconds,
        "seeds": seeds,
        "trace_seed": seeds[0],
        "rules": {"gain": f"change wins >= {WIN_SHARE:g} of pairs, its median beats "
                          "the parent's by more than the parent's q3 - q1, and it "
                          "fails no more operations and loses no more runs",
                  "beyond_bound": "change median worse than the parent's by more than "
                                  "the metric's bound in BENCHMARK.json",
                  "unresolved": "no pairs, or the parent's q3 - q1 exceeds the "
                                "metric's bound and not every change run beats "
                                "every parent run"},
        "workloads": {w: {**summarize(runs[w], bench["end_to_end"]), "traced": traced[w]}
                      for w in workloads},
        "notes": list(KNOWN_FAULTS),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="the BENCH_*.json to write")
    parser.add_argument("--parent", default="HEAD^",
                        help="parent revision; the change is HEAD (default HEAD^)")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the exported checkouts are deleted
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    doc = record(args.parent)
    Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")
    for workload, entry in doc["workloads"].items():
        for name, m in entry["metrics"].items():
            if m["pairs"]:
                print(f"{workload} {name}: parent {m['parent']['median']:.3f} "
                      f"change {m['change']['median']:.3f} wins {m['change_wins']}/{m['pairs']}"
                      f" gain={m['gain']} beyond_bound={m['beyond_bound']}"
                      f" unresolved={m['unresolved']}")
        for call, sides in entry["calls"].items():
            print(f"  {call}: " + " ".join(f"{side} {value:.3f}" for side, value in sides.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
