"""The benchmark's workloads: seeded inputs and the checked CLI calls.

Each workload has two steps.  ``inputs(seed, workdir)`` draws the seeded
tournaments and writes the input files; it is part of the measured set-up.
``calls(inputs)`` computes the reference values the checks compare against
(brute force, not timed) and returns the CLI calls of one round.  One round
runs every call once, in order; a run repeats whole rounds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import checks
import reference as ref

CENSUS_PAIRS = 2           # random order-10 tournaments, each followed by its complement
CENSUS_BRUTE = 3           # order-8 tournaments recounted by brute force
COUNT_FORMULA_SAMPLES = 6  # random order-8 samples of the count-formula sweep
HOST12_PATTERNS = ("P(2,-1,1);C(1,-2)", "P(1,-1);C(1,-1,2,-2);V", "P(1,-2,1,-1)")
HOST14_PATTERN = "C(1,-2,5,-1,2,-3)"  # spanning: arc sum 14


@dataclass(frozen=True)
class Call:
    name: str
    argv: tuple[str, ...]
    check: Callable[[dict], None]


def _write(path: Path, tournaments: list) -> str:
    path.write_text("".join(ref.serialize(t) + "\n" for t in tournaments), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# census: full type census at the largest supported order


def census_inputs(seed: int, workdir: Path) -> dict:
    rng = random.Random(seed)
    big = []
    for _ in range(CENSUS_PAIRS):
        t = ref.random_tournament(10, rng)
        big += [t, ref.complement(t)]
    big.append(ref.transitive(10))
    small = [ref.random_tournament(8, rng) for _ in range(CENSUS_BRUTE)]
    return {"big": big, "big_file": _write(workdir / "census10.txt", big),
            "small": small, "small_file": _write(workdir / "census8.txt", small)}


def census_calls(inp: dict) -> list[Call]:
    brute = [ref.brute_census(t) for t in inp["small"]]
    return [
        Call("census-10", ("census", "--input", inp["big_file"], "--order", "10"),
             partial(checks.check_census_theorems, tournaments=inp["big"])),
        Call("census-8", ("census", "--input", inp["small_file"], "--order", "8"),
             partial(checks.check_census_brute, tournaments=inp["small"], expected=brute)),
    ]


# ---------------------------------------------------------------------------
# sweep: identity sweeps over many small tournaments


def sweep_inputs(seed: int, workdir: Path) -> dict:
    return {"count_formula_seed": random.Random(seed).randrange(2 ** 32)}


def _exhaustive(prop: str, order: int, checked: int, details: dict | None = None) -> Call:
    return Call(prop, ("verify", "--property", prop, "--exhaustive", "--order", str(order)),
                partial(checks.check_verify, prop=prop, checked=checked, details=details))


def sweep_calls(inp: dict) -> list[Call]:
    seed = str(inp["count_formula_seed"])
    return [
        _exhaustive("path-identity", 5, ref.path_identity_checked(5)),
        _exhaustive("cycle-identity", 5, ref.cycle_identity_checked(5)),
        _exhaustive("complement-bridge", 5, ref.complement_bridge_checked(5)),
        Call("count-formula",
             ("verify", "--property", "count-formula", "--random", "--order", "8",
              "--samples", str(COUNT_FORMULA_SAMPLES), "--seed", seed),
             partial(checks.check_verify, prop="count-formula",
                     checked=ref.count_formula_checked(8, COUNT_FORMULA_SAMPLES))),
        _exhaustive("class-sizes", 5, ref.class_sizes_checked(5)),
        _exhaustive("szele-floor", 6, 2 ** 15,
                    {"floor": ref.szele_floor(6), "max": ref.A038375[6]}),
    ]


# ---------------------------------------------------------------------------
# copies: pattern copy counting, span tables plus placement


def copies_inputs(seed: int, workdir: Path) -> dict:
    rng = random.Random(seed)
    return {"host12": ref.random_tournament(12, rng), "host14": ref.random_tournament(14, rng)}


def _hcount(name: str, host, spec: str, count: int | None = None) -> Call:
    serial = ref.serialize(host)
    return Call(name, ("hcount", "--tournament", serial, "--digraph", spec, "--complement-check"),
                partial(checks.check_hcount, host=serial, count=count))


def copies_calls(inp: dict) -> list[Call]:
    host12, host14 = inp["host12"], inp["host14"]
    # the first order-12 pattern is small enough to recount by brute force
    return [
        _exhaustive("h-invariance", 5, ref.h_invariance_checked(5)),
        *(_hcount(f"hcount-12-{i}", host12, spec, None if i else ref.brute_copies(host12, spec))
          for i, spec in enumerate(HOST12_PATTERNS)),
        _hcount("hcount-14", host14, HOST14_PATTERN),
    ]


# name -> (inputs, calls); BENCHMARK.json says why each workload is there
WORKLOADS = {
    "census": (census_inputs, census_calls),
    "sweep": (sweep_inputs, sweep_calls),
    "copies": (copies_inputs, copies_calls),
}
