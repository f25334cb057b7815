"""tourcensus benchmark: real CLI calls, checked apart from the program.

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0

Runs from the root of a checkout with the package in ``src/``; nothing needs
installing.  Each CLI call is one child process, started only after the
previous one ended.  A run sets the workload up several times, then repeats
whole rounds of its calls until ``--seconds`` have passed, checks every
output, and prints one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (sum over the calls
of each call's median paced wall time), ``setup_s`` (median paced set-up
time) and ``peak_rss_mib`` (median over rounds of the largest peak RSS of a
call).  A paced time is a wall time divided by the median wall time of the
pace child (``pace.py``) run around it, times ``PACE_S``: a shared machine
can change speed by 40 % for minutes at a time (the 2-core development
machine did), and the ratio cancels most of that.
``--trace 1`` runs one untraced round, then traced rounds in which
every call runs under ``traced_cli.py``, and reports the per-layer metrics
with the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import checks
import tracing
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
MIN_ROUNDS = 2
CLI = "import sys; from tourcensus.cli import main; sys.exit(main(sys.argv[1:]))"
PACE = [sys.executable, str(BENCH / "pace.py")]
# about the pace child's wall time on the 2-core development machine, so that
# paced times read as seconds of that machine
PACE_S = 0.2


class SetupFailed(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _child(cmd: list[str], workdir: Path) -> tuple[float, float, int, bytes, bytes]:
    """Run one child to its end: wall seconds, peak RSS in MiB, exit code,
    stdout and stderr."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout, stderr = out_path.read_bytes(), err_path.read_bytes()
    return wall, usage.ru_maxrss / 1024, proc.returncode, stdout, stderr


class Tally:
    """Attempted, failed and wrongly answered calls of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def judge(self, call, code: int, stdout: bytes, stderr: bytes) -> bool:
        """Count the call; True when it succeeded."""
        self.attempted += 1
        try:
            if code != 0:
                tail = stderr.decode(errors="replace")[-300:]
                raise checks.CheckFailed(f"exit code {code}: {tail}")
            doc = checks.parse_document(stdout)
        except checks.CheckFailed as exc:
            self.failed += 1
            print(f"{call.name}: {exc}", file=sys.stderr)
            return False
        try:
            call.check(doc)
        except checks.CheckFailed as exc:
            self.failed += 1
            self.wrong += 1
            print(f"{call.name}: wrong output: {exc}", file=sys.stderr)
            return False
        return True


def run_call(call, workdir: Path, tally: Tally,
             spans: Path | None = None) -> tuple[float, float, bool]:
    """One judged CLI call: wall seconds, peak RSS in MiB and success.  With
    ``spans`` the call runs under traced_cli.py, which writes its trace there."""
    if spans is None:
        cmd = [sys.executable, "-c", CLI, *call.argv]
    else:
        cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(spans), *call.argv]
    wall, rss, code, out, err = _child(cmd, workdir)
    return wall, rss, tally.judge(call, code, out, err)


def pace(workdir: Path) -> float:
    """Wall time of one pace child: how fast the machine runs Python now."""
    wall, _, code, _, err = _child(PACE, workdir)
    if code != 0:
        raise SetupFailed(f"pace child failed: {err.decode(errors='replace')}")
    return wall


def set_up(workload: str, seed: int, workdir: Path) -> tuple[float, dict]:
    """Paced median set-up time and the inputs: a fresh interpreter imports
    tourcensus, then the benchmark draws and writes the workload's inputs."""
    make_inputs = WORKLOADS[workload][0]
    times, paces = [], []
    for _ in range(SETUP_REPEATS):
        paces.append(pace(workdir))
        start = time.perf_counter()
        _, _, code, _, err = _child([sys.executable, "-c", "import tourcensus.cli"], workdir)
        if code != 0:
            reason = err.decode(errors="replace")
            raise SetupFailed(f"cannot import tourcensus from {SRC}: {reason}")
        inputs = make_inputs(seed, workdir)
        times.append(time.perf_counter() - start)
    return median(times) / median(paces) * PACE_S, inputs


def run_round(calls, workdir: Path, tally: Tally, spans: Path | None = None):
    """Every call once, with a pace child before each call and after the last.

    Returns, per call, its name, wall seconds, peak RSS in MiB and (with
    ``spans``, when it succeeded) its trace; and the round's pace, the median
    of its pace children, so that no single pace child sets it."""
    paces, results = [], []
    for call in calls:
        paces.append(pace(workdir))
        wall, rss, ok = run_call(call, workdir, tally, spans)
        trace = json.loads(spans.read_text(encoding="utf-8")) if spans and ok else None
        results.append((call.name, wall, rss, trace))
    paces.append(pace(workdir))
    return results, median(paces)


def timed_run(calls, seconds: float, workdir: Path, tally: Tally) -> dict:
    walls: dict[str, list[float]] = {call.name: [] for call in calls}
    paced: dict[str, list[float]] = {call.name: [] for call in calls}
    peaks = []
    start = time.perf_counter()
    while True:
        results, round_pace = run_round(calls, workdir, tally)
        for name, wall, _, _ in results:
            walls[name].append(wall)
            paced[name].append(wall / round_pace * PACE_S)
        peaks.append(max(rss for _, _, rss, _ in results))
        if len(peaks) >= MIN_ROUNDS and time.perf_counter() - start >= seconds:
            break
    for name, w in walls.items():
        print(f"{name}: {len(w)} rounds, wall median {median(w):.3f} s "
              f"(range {min(w):.3f}..{max(w):.3f}), paced median {median(paced[name]):.3f} s",
              file=sys.stderr)
    return {"wall_s": (sum(median(p) for p in paced.values()), "s"),
            "peak_rss_mib": (median(peaks), "MiB")}


def traced_run(calls, seconds: float, workdir: Path, tally: Tally) -> dict:
    """Per-layer metrics: counts from the traced rounds (they repeat exactly),
    times as medians over traced rounds; the overhead in paced seconds."""
    start = time.perf_counter()
    results, round_pace = run_round(calls, workdir, tally)
    untraced = sum(wall for _, wall, _, _ in results) / round_pace * PACE_S
    spans_path = workdir / "spans.json"
    rounds = []
    while True:
        results, round_pace = run_round(calls, workdir, tally, spans_path)
        self_s: dict[str, float] = {}
        counts: dict[str, int] = {}
        import_s = 0.0
        for _, _, _, trace in results:
            if trace is None:
                continue
            import_s += trace["import_s"]
            for name, value in trace["self_s"].items():
                self_s[name] = self_s.get(name, 0.0) + value
            for name, value in trace["counts"].items():
                counts[name] = counts.get(name, 0) + value
        layers = tracing.layer_metrics(self_s, counts, import_s)
        traced = sum(wall for _, wall, _, _ in results) / round_pace * PACE_S
        layers["trace.overhead_s"] = (traced - untraced, "s")
        rounds.append(layers)
        if time.perf_counter() - start >= seconds:
            break
    return {name: (rounds[-1][name][0] if unit == "count" else
                   median(r[name][0] for r in rounds), unit)
            for name, (_, unit) in rounds[0].items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "tourcensus" / "cli.py").is_file():
        print(f"error: no tourcensus sources under {SRC}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s, inputs = set_up(args.workload, args.seed, workdir)
        calls = WORKLOADS[args.workload][1](inputs)
        tally = Tally()
        if args.trace:
            metrics = traced_run(calls, args.seconds, workdir, tally)
        else:
            metrics = timed_run(calls, args.seconds, workdir, tally)
            metrics["setup_s"] = (setup_s, "s")
    except SetupFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
