"""Check that the command line prints the same bytes at a parent and at HEAD.

    python3 tools/cli_identity.py [--parent REV]

The change is HEAD and the parent is HEAD's first parent unless ``--parent``
names another revision.  Both revisions are exported from git with
``bench_record.export`` into one temporary directory, deleted at the end.
Every call runs once per side as ``python3 ARGS`` with ``PYTHONPATH`` set to
that side's ``src``, and its stdout, stderr and exit code are compared byte
for byte.  The calls are the fixed list ``fixed_calls()`` (every property on
small exhaustive and random scopes and with arc-sum bounds below the spanning
sum at orders 4, 6 and 9, the two ``WIDE_WORD_LANES`` identity sweeps at
order 11, the two ``ORACLE_CAP`` sweeps at order 8, an unknown id, ``census``
(random ones at ``CENSUS_ORDERS`` among them), ``gen`` and ``hcount``, the
refusals of ``PARSER_ERRORS``, the ``--help`` calls of ``HELP``, and one call
that prints the sorted ``tourcensus.__all__`` and the signature of each public
callable, so a dropped public name or a changed signature shows as a
difference) and every benchmark call of ``BENCH_SEEDS``, with the inputs that
the change's ``perfbench/workloads.py`` writes.  Prints each call that differs,
under it the first differing stdout and stderr line of each side
(``first_differing_lines``), and a summary; exits 1 when any call differs.
Standard library only.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

from bench_record import _git, export

CLI = ("-m", "tourcensus")
PUBLIC_NAMES = ("-c", "import inspect, tourcensus\n"
                "names = sorted(tourcensus.__all__)\n"
                "print(*names)\n"
                "for name in names:\n"
                "    try:\n"
                "        print(name, inspect.signature(getattr(tourcensus, name)))\n"
                "    except (TypeError, ValueError):  # not callable, or no signature\n"
                "        pass\n")
EXHAUSTIVE_ORDERS = tuple(range(6))
RANDOM_ORDERS = (0, 1, 2, 3, 7, 9)
RANDOM = ("--samples", "3", "--seed", "11")
ARC_SUM_SCOPES = (  # shorter arc sums, the last two from order 5 up
    ("--exhaustive", "--order", "4", "--max-arc-sum", "2"),
    ("--exhaustive", "--order", "6", "--max-arc-sum", "5"),
    ("--random", "--order", "9", "--max-arc-sum", "7", *RANDOM),
)
PARSER_ERRORS = (  # refusals past the argument parser, most with a byte offset
    (*CLI, "census", "--order", "3", "--tournament", "3:1x1"),
    (*CLI, "census", "--order", "3", "--tournament", "3111"),
    (*CLI, "census", "--order", "17", "--random"),
    (*CLI, "hcount", "--tournament", "3:111", "--digraph", "P(2,x)"),
    (*CLI, "hcount", "--tournament", "3:111", "--digraph", "C(1,-1)"),
    (*CLI, "gen", "--random", "--order", "3", "--count", "70000"),
    (*CLI, "verify", "--property", "path-identity", "--random", "--order", "3",
     "--samples", "0"),
)
WIDE_WORD_LANES = (  # the every-word walk at its most word lanes per count
    (*CLI, "verify", "--property", "path-identity", "--random", "--order", "11",
     "--max-arc-sum", "10", "--samples", "1", "--seed", "11"),
    (*CLI, "verify", "--property", "cycle-identity", "--random", "--order", "11",
     "--max-arc-sum", "11", "--samples", "1", "--seed", "11"),
)
ORACLE_CAP = (  # the two sweeps that read the oracle's cycle list, at the oracle's cap
    (*CLI, "verify", "--property", "class-sizes", "--random", "--order", "8", *RANDOM),
    (*CLI, "verify", "--property", "eqsym", "--random", "--order", "8", *RANDOM),
)
HELP = (  # the root parser's help, through the cli module's own entry, then each subcommand's
    ("-m", "tourcensus.cli", "--help"),
    *((*CLI, command, "--help") for command in ("census", "verify", "hcount", "gen")),
)
CENSUS_ORDERS = (0, 1, 2, 9)  # random censuses below the cycle guards, and at order 9
BENCH_SEEDS = (1, 7)
HOST7 = "7:001011010010000111101"
HOST5 = "5:1101001110"


def fixed_calls(property_ids: tuple[str, ...]) -> list[tuple[str, ...]]:
    """The interpreter arguments of every fixed call, in run order."""
    calls = []
    for pid in property_ids:
        verify = (*CLI, "verify", "--property", pid)
        calls += [(*verify, "--exhaustive", "--order", str(n)) for n in EXHAUSTIVE_ORDERS]
        calls += [(*verify, "--random", "--order", str(n), *RANDOM) for n in RANDOM_ORDERS]
        calls += [(*verify, *scope) for scope in ARC_SUM_SCOPES]
    calls += [
        *WIDE_WORD_LANES,
        *ORACLE_CAP,
        (*CLI, "verify", "--property", "no-such-property", "--exhaustive", "--order", "3"),
        (*CLI, "census", "--order", "5", "--tournament", HOST5),
        (*CLI, "census", "--order", "7", "--random", "--seed", "3"),
        (*CLI, "census", "--order", "4", "--tournament", HOST5),
        (*CLI, "census", "--order", "4", "--tournament", "4:111011", "--seed", "1"),
        *((*CLI, "census", "--random", "--order", str(n), "--seed", "3") for n in CENSUS_ORDERS),
        (*CLI, "gen", "--all", "--order", "3"),
        (*CLI, "gen", "--transitive", "--order", "5"),
        (*CLI, "gen", "--random", "--order", "6", "--count", "4", "--seed", "5"),
        (*CLI, "gen", "--random", "--order", "4", "--count", "0"),
        (*CLI, "hcount", "--tournament", HOST7, "--digraph", "P(1,-1);C(1,-2);V"),
        (*CLI, "hcount", "--tournament", HOST7, "--digraph", "C(2,-1,1,-1)",
         "--complement-check"),
        (*CLI, "hcount", "--tournament", HOST5, "--digraph", "P(1);P(1);V",
         "--complement-check"),
        (*CLI, "hcount", "--tournament", HOST5, "--digraph", "P(1,1)"),
        (*CLI, "hcount", "--tournament", HOST7, "--digraph", "P(2,-1);C(1,-2)",
         "--complement-check"),
        (*CLI, "hcount", "--tournament", HOST7, "--digraph", "C(1,-1,2,-3)",
         "--complement-check"),  # a spanning cycle, met in the middle
        *HELP,
        *PARSER_ERRORS,
        PUBLIC_NAMES,
    ]
    return calls


def benchmark_calls(perfbench: Path, workdir: Path) -> list[tuple[str, ...]]:
    """The benchmark's CLI calls of every workload at ``BENCH_SEEDS``; their
    input files are written under ``workdir``."""
    sys.path.insert(0, str(perfbench))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(perfbench))
    calls = []
    for seed in BENCH_SEEDS:
        for name, (inputs, make_calls) in WORKLOADS.items():
            where = workdir / f"{name}-{seed}"
            where.mkdir(parents=True)
            calls += [(*CLI, *call.argv) for call in make_calls(inputs(seed, where))]
    return calls


def run(call: tuple[str, ...], src: Path, cwd: Path) -> tuple[bytes, bytes, int]:
    """Stdout, stderr and exit code of one call against the package in ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, *call], capture_output=True, env=env, cwd=cwd)
    return proc.stdout, proc.stderr, proc.returncode


def differences(calls: list[tuple[str, ...]], parent: list, change: list) -> list[str]:
    """One line per call whose stdout, stderr or exit code differs; a
    multi-line ``-c`` call is shown by its first line."""
    out = []
    for call, p, c in zip(calls, parent, change, strict=True):
        parts = [part for part, a, b in zip(("stdout", "stderr", "exit code"), p, c) if a != b]
        if parts:
            shown = " ".join(call).partition("\n")[0]
            out.append(f"{shown}: {', '.join(parts)} differ")
    return out


def first_differing_lines(parent: tuple, change: tuple, width: int = 120) -> list[str]:
    """For stdout and then stderr, where they differ, the first line that
    differs as each side prints it, cut to ``width`` characters; a side with
    fewer lines shows ``(no line)``."""
    out = []
    for part, a, b in zip(("stdout", "stderr"), parent, change):
        if a == b:
            continue
        sides = a.splitlines(keepends=True), b.splitlines(keepends=True)
        k = next(i for i, (x, y) in enumerate(zip_longest(*sides)) if x != y)
        for side, lines in zip(("parent", "change"), sides):
            line = (lines[k] if k < len(lines) else b"(no line)").rstrip(b"\r\n")
            out.append(f"{side} {part} line {k + 1}: {line.decode(errors='replace')}"[:width])
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD^",
                        help="parent revision; the change is HEAD (default HEAD^)")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the exported checkouts are deleted
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    shas = {"parent": _git("rev-parse", args.parent), "change": _git("rev-parse", "HEAD")}
    scratch = Path(tempfile.mkdtemp(prefix="cli_identity_"))
    try:
        checkouts = {side: export(sha, scratch / side) for side, sha in shas.items()}
        ids = run(("-c", "from tourcensus.verifier import PROPERTY_IDS; print(*PROPERTY_IDS)"),
                  checkouts["change"] / "src", scratch)[0].decode().split()
        calls = [*fixed_calls(tuple(ids)),
                 *benchmark_calls(checkouts["change"] / "perfbench", scratch / "inputs")]
        results = {side: [run(call, checkouts[side] / "src", scratch) for call in calls]
                   for side in shas}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    differ = differences(calls, results["parent"], results["change"])
    changed = [(p, c) for p, c in zip(results["parent"], results["change"]) if p != c]
    for line, (p, c) in zip(differ, changed, strict=True):
        print(line, *first_differing_lines(p, c), sep="\n    ")
    print(f"{len(calls)} calls, {len(calls) - len(differ)} identical, {len(differ)} differ "
          f"(parent {shas['parent'][:7]}, change {shas['change'][:7]})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
