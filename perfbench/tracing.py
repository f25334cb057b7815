"""Spans around calls into each tourcensus module, recorded from outside.

``SpanRecorder`` wraps functions so that every call records a span (name,
start, end, parent) in memory and bumps named counters.  ``install`` puts
such wrappers on the entry points of the package's modules; the program
itself is not changed.  ``self_times`` turns the spans into per-name self
time: a span's duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from math import comb
from typing import Callable, Hashable, Sequence


def self_times(names: Sequence[Hashable], starts: Sequence[float],
               ends: Sequence[float], parents: Sequence[int]) -> dict:
    """Sum of self time per span name.

    Span i runs from ``starts[i]`` to ``ends[i]``; ``parents[i]`` is the index
    of its parent span, or -1.  Spans must be listed in order of start, so a
    parent comes before its children.  Child intervals are clipped to the
    parent and counted once where they overlap.
    """
    total: dict = {}
    reach = array("d", [float("-inf")]) * len(starts)  # end of the covered part so far
    for i, name in enumerate(names):
        start, end = starts[i], ends[i]
        total[name] = total.get(name, 0.0) + (end - start)
        p = parents[i]
        if p < 0:
            continue
        lo = max(start, starts[p], reach[p])
        hi = min(end, ends[p])
        if hi > lo:
            total[names[p]] -= hi - lo
            reach[p] = hi
    return total


class SpanRecorder:
    """Spans and counters of wrapped calls, kept in memory in start order."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.labels: list[str] = []
        self.names = array("B")  # index into labels
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def _label(self, name: str) -> int:
        if name not in self.labels:
            self.labels.append(name)
        return self.labels.index(name)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, fn: Callable, span: str, count: str | None = None,
             tally: tuple[str, Callable] | None = None) -> Callable:
        """``fn`` recording a span named ``span`` per call, bumping counter
        ``count`` by one and counter ``tally[0]`` by ``tally[1](args, result)``."""
        label = self._label(span)
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack)
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(label)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            if count is not None:
                self.count(count)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if tally is not None:
                self.count(tally[0], tally[1](args, result))
            return result

        return wrapper

    def self_times(self) -> dict[str, float]:
        by_label = self_times(self.names, self.starts, self.ends, self.parents)
        return {self.labels[k]: v for k, v in by_label.items()}


# ---------------------------------------------------------------------------
# tourcensus entry points


def _states(args, result) -> int:
    """DP states an ``_advance`` call returned."""
    return len(result)


def _subsets(args, result) -> int:
    """Vertex subsets a ``_span_table`` call visits: C(n, component order)."""
    host, comp = args
    kind = comp[0]
    if kind == "V":
        size = 1
    else:
        arcs = sum(abs(x) for x in comp[1])
        size = arcs + 1 if kind == "P" else arcs
    return comb(host.n, size)


# (module, function, span, call counter, tally); self time is reported per span name
FUNCTIONS = [
    ("census", "_advance", "census.advance", "census.advance_calls",
     ("census.states_expanded", _states)),
    ("census", "enumeration_word_counts", "census.word_sweep", None, None),
    ("census", "count_cycles", "census.cycle_count", "census.cycle_count_calls", None),
    ("census", "census", "census.census", None, None),
    ("census", "count_paths", "census.path_count", None, None),
    ("census", "count_enumerations", "census.path_count", None, None),
    ("census", "oracle_census", "census.oracle", "census.oracle_calls", None),
    ("census", "oracle_cycle_sets", "census.oracle", "census.oracle_calls", None),
    ("census", "path_classes", "census.path_classes", None, None),
    ("digraphs", "_span_table", "digraphs.span_table", "digraphs.span_tables",
     ("digraphs.span_subsets", _subsets)),
    *(("type_algebra", f, "type_algebra.self", "type_algebra.calls", None)
      for f in ("cycle_canonical", "cycle_orbit", "path_canonical", "period_info",
                "delta", "generated_cycle_types")),
    *(("tournaments", f, "tournaments.self", None, None)
      for f in ("parse", "load_tournaments", "transitive", "random_tournament")),
    ("verifier", "verify", "verifier.self", None, None),
    ("cli", "main", "cli.self", None, None),
]

# (module, class, method, span, call counter)
METHODS = [
    ("tournaments", "Tournament", "__init__", "tournaments.self", "tournaments.built"),
    ("tournaments", "Tournament", "induced", "tournaments.self", None),
    ("tournaments", "Tournament", "complement", "tournaments.self", None),
    ("digraphs", "CopyCounter", "count", "digraphs.place", None),
]


def install(recorder: SpanRecorder) -> None:
    """Wrap the entry points in every tourcensus namespace that holds them.

    ``census``, ``digraphs``, ``verifier`` and ``cli`` import functions by
    name, so patching the defining module alone would miss their calls.
    """
    importlib.import_module("tourcensus.cli")
    spaces = [m for name, m in sys.modules.items()
              if name == "tourcensus" or name.startswith("tourcensus.")]
    for mod_name, fn_name, span, count, tally in FUNCTIONS:
        original = getattr(importlib.import_module(f"tourcensus.{mod_name}"), fn_name)
        wrapper = recorder.wrap(original, span, count, tally)
        for space in spaces:
            for attr, value in list(vars(space).items()):
                if value is original:
                    setattr(space, attr, wrapper)
    for mod_name, cls_name, method, span, count in METHODS:
        cls = getattr(importlib.import_module(f"tourcensus.{mod_name}"), cls_name)
        setattr(cls, method, recorder.wrap(getattr(cls, method), span, count))

    # table lookups of CopyCounter: a hit finds the span table already built
    counter_cls = importlib.import_module("tourcensus.digraphs").CopyCounter
    lookup = counter_cls._table

    @functools.wraps(lookup)
    def counted_lookup(self, comp):
        recorder.count("digraphs.table_lookups")
        if comp in self._tables:
            recorder.count("digraphs.table_hits")
        return lookup(self, comp)

    counter_cls._table = counted_lookup


def layer_metrics(self_s: dict[str, float], counts: dict[str, int], import_s: float) -> dict:
    """Per-layer metric values of one round from summed spans and counters."""
    def s(name: str) -> float:
        return self_s.get(name, 0.0)

    def c(name: str) -> int:
        return counts.get(name, 0)

    lookups = c("digraphs.table_lookups")
    return {
        "census.advance_calls": (c("census.advance_calls"), "count"),
        "census.states_expanded": (c("census.states_expanded"), "count"),
        "census.advance_s": (s("census.advance"), "s"),
        "census.cycle_count_calls": (c("census.cycle_count_calls"), "count"),
        "census.cycle_count_s": (s("census.cycle_count"), "s"),
        "census.word_sweep_s": (s("census.word_sweep"), "s"),
        "census.census_s": (s("census.census"), "s"),
        "census.path_count_s": (s("census.path_count"), "s"),
        "census.oracle_calls": (c("census.oracle_calls"), "count"),
        "census.oracle_s": (s("census.oracle"), "s"),
        "census.path_classes_s": (s("census.path_classes"), "s"),
        "digraphs.span_tables": (c("digraphs.span_tables"), "count"),
        "digraphs.span_subsets": (c("digraphs.span_subsets"), "count"),
        "digraphs.span_table_s": (s("digraphs.span_table"), "s"),
        "digraphs.place_s": (s("digraphs.place"), "s"),
        "digraphs.table_hit_ratio": (c("digraphs.table_hits") / lookups if lookups else 0.0,
                                     "ratio"),
        "tournaments.built": (c("tournaments.built"), "count"),
        "tournaments.self_s": (s("tournaments.self"), "s"),
        "type_algebra.calls": (c("type_algebra.calls"), "count"),
        "type_algebra.self_s": (s("type_algebra.self"), "s"),
        "verifier.self_s": (s("verifier.self"), "s"),
        "cli.self_s": (s("cli.self"), "s"),
        "cli.import_s": (import_s, "s"),
    }
