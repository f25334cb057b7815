"""Checks of the documents the tourcensus CLI prints.

Each check raises ``CheckFailed`` with the reason when a document is wrong.
Expected values come from ``reference`` (the benchmark's own code), from
theorems about tournaments, or from counting formulas; never from a stored
copy of an earlier output.  The wall-clock field ``ms`` is ignored.
"""

from __future__ import annotations

import json
from math import factorial

import reference as ref


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def parse_document(stdout: bytes) -> dict:
    """The single JSON object a call printed."""
    text = stdout.decode("utf-8", "replace").strip()
    _require(bool(text), "empty stdout")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not one JSON document: {exc}") from None
    _require(isinstance(doc, dict), "stdout is not a JSON object")
    return doc


def _by_class(section: dict, classify, expected: frozenset, what: str) -> dict:
    """Counts keyed by the benchmark's own orbit representative.  The keys
    must name every type of the order exactly once."""
    _require(isinstance(section, dict), f"{what} counts are not an object")
    out: dict[tuple[int, ...], int] = {}
    for key, count in section.items():
        try:
            cls = classify(ref.signs(ref.parse_key(key)))
        except ValueError:
            raise CheckFailed(f"unreadable {what} key {key!r}") from None
        _require(cls not in out, f"{what} key {key!r} repeats a type")
        _require(isinstance(count, int) and count >= 0, f"{what} {key}: bad count {count!r}")
        out[cls] = count
    _require(set(out) == expected,
             f"{len(out)} {what} keys, expected the {len(expected)} types of this order")
    return out


def _report_counts(report: dict, t) -> tuple[dict, dict]:
    n = t[0]
    _require(isinstance(report, dict), "a report is not an object")
    _require(report.get("n") == n, f"report order {report.get('n')!r}, expected {n}")
    _require(report.get("tournament") == ref.serialize(t),
             f"report of {report.get('tournament')!r}, expected {ref.serialize(t)}")
    paths = _by_class(report.get("paths"), ref.path_class, ref.path_classes(n - 1), "path")
    cycles = _by_class(report.get("cycles"), ref.cycle_class, ref.cycle_classes(n), "cycle")
    return paths, cycles


def _reports(doc: dict, tournaments: list) -> list:
    n = tournaments[0][0]
    _require(doc.get("order") == n, f"order {doc.get('order')!r}, expected {n}")
    reports = doc.get("reports")
    _require(isinstance(reports, list) and len(reports) == len(tournaments),
             f"expected {len(tournaments)} reports")
    return [_report_counts(r, t) for r, t in zip(reports, tournaments)]


def _negated(word: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-s for s in word)


def check_census_theorems(doc: dict, tournaments: list) -> None:
    """A census over tournaments too large to brute-force, checked against
    what holds for every tournament:

    - the path counts partition the n!/2 Hamiltonian paths and the cycle
      counts the (n-1)!/2 Hamiltonian cycles;
    - f(alpha) = f(-alpha) and g(beta) = g(-beta);
    - a tournament and its complement have equal counts type by type;
    - the directed Hamiltonian path count is odd (Redei);
    - a directed Hamiltonian cycle exists exactly when the tournament is
      strong (Camion);
    - from order 8 on every path type occurs (Havet and Thomasse);
    - the transitive tournament has one directed Hamiltonian path and no
      directed Hamiltonian cycle.
    """
    n = tournaments[0][0]
    counts = _reports(doc, tournaments)
    serials = [ref.serialize(t) for t in tournaments]
    for i, (t, (paths, cycles)) in enumerate(zip(tournaments, counts)):
        where = f"report {i}"
        _require(sum(paths.values()) == factorial(n) // 2,
                 f"{where}: path counts sum to {sum(paths.values())}, not n!/2")
        _require(sum(cycles.values()) == factorial(n - 1) // 2,
                 f"{where}: cycle counts sum to {sum(cycles.values())}, not (n-1)!/2")
        for cls, c in paths.items():
            other = paths[ref.path_class(_negated(cls))]
            _require(c == other, f"{where}: path type {cls} has {c}, its negation {other}")
        for cls, c in cycles.items():
            other = cycles[ref.cycle_class(_negated(cls))]
            _require(c == other, f"{where}: cycle type {cls} has {c}, its negation {other}")
        directed_paths = paths[ref.path_class(ref.directed(n - 1))]
        directed_cycles = cycles[ref.cycle_class(ref.directed(n))]
        _require(directed_paths % 2 == 1, f"{where}: {directed_paths} directed paths, not odd")
        _require((directed_cycles > 0) == ref.is_strong(t),
                 f"{where}: {directed_cycles} directed cycles, strong={ref.is_strong(t)}")
        if n >= 8:
            _require(min(paths.values()) >= 1, f"{where}: a path type has no path")
        if serials[i] == ref.serialize(ref.transitive(n)):
            _require(directed_paths == 1 and directed_cycles == 0,
                     f"{where}: transitive tournament has {directed_paths} directed "
                     f"paths and {directed_cycles} directed cycles")
        comp = ref.serialize(ref.complement(t))
        for j in range(i + 1, len(tournaments)):
            if serials[j] == comp:
                _require(counts[j] == counts[i], f"reports {i} and {j}: complements differ")


def check_census_brute(doc: dict, tournaments: list, expected: list) -> None:
    """Every count equals the benchmark's own permutation-loop count;
    ``expected`` holds ``reference.brute_census`` of each tournament."""
    for i, ((paths, cycles), (want_paths, want_cycles)) in enumerate(
            zip(_reports(doc, tournaments), expected)):
        for got, want, what in ((paths, want_paths, "path"), (cycles, want_cycles, "cycle")):
            for cls, c in got.items():
                _require(c == want.get(cls, 0),
                         f"report {i}: {what} type {cls} has {c}, brute force {want.get(cls, 0)}")


def check_verify(doc: dict, prop: str, checked: int, details: dict | None = None) -> None:
    """A passing sweep of ``prop`` over exactly ``checked`` instances."""
    _require(doc.get("property") == prop, f"property {doc.get('property')!r}, expected {prop}")
    _require(doc.get("pass") is True and doc.get("violations") == [],
             f"{prop}: sweep did not pass: {doc.get('violations')!r}")
    _require(doc.get("checked") == checked,
             f"{prop}: checked {doc.get('checked')!r}, expected {checked}")
    if details is not None:
        _require(doc.get("details") == details,
                 f"{prop}: details {doc.get('details')!r}, expected {details}")


def check_hcount(doc: dict, host: str, count: int | None = None) -> None:
    """Equal copy counts in the host and its complement; with ``count``,
    also equal to the benchmark's brute-force copy count."""
    _require(doc.get("tournament") == host, f"host {doc.get('tournament')!r}, expected {host}")
    got, comp = doc.get("count"), doc.get("complement_count")
    _require(isinstance(got, int) and got >= 0, f"bad count {got!r}")
    _require(doc.get("pass") is True and got == comp,
             f"count {got} but complement count {comp!r}")
    if count is not None:
        _require(got == count, f"count {got}, brute force {count}")
