"""Batch command line front end.

Four subcommands: ``census`` (per-type path and cycle counts of given
tournaments), ``verify`` (property sweeps), ``hcount`` (copy counts of a
small pattern digraph), ``gen`` (tournament serializations to feed back in).
Everything prints a single JSON document on stdout; diagnostics go to
stderr.  Exit codes: 0 success, 1 a verified property failed, 2 bad usage
or unparseable input.  Identical invocations print identical bytes, for
every subcommand: no document carries a timing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from typing import Iterator

from .census import census
from .errors import ParseError, ScopeTooLargeError, TourCensusError
from .tournaments import (
    EXHAUSTIVE_HARD_MAX,
    EXHAUSTIVE_MAX_ORDER,
    Tournament,
    all_tournaments,
    load_tournaments,
    random_tournaments,
    transitive,
)
from .type_algebra import _MAX_DIGITS

__all__ = ["GEN_MAX_COUNT", "build_parser", "main", "entry"]

GEN_MAX_COUNT = 1 << 16  # random tournaments one ``gen`` call may print


def _int(text: str) -> int:
    """An integer option's value.  One longer than ``int`` converts under any
    ``sys.set_int_max_str_digits`` is refused unconverted, unechoed."""
    digits = len(text.strip().lstrip("+-"))
    if digits > _MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"value of {digits} characters is too long")
    return int(text)


_int.__name__ = "int"  # argparse names it in "invalid int value: 'abc'"


class _PropertyIds:
    """``verifier.PROPERTY_IDS`` as ``--property``'s choices, imported on the
    first test or listing.  With a metavar, argparse reads the choices only to
    check a given id or to name them in its error, so a parser built for any
    other subcommand leaves ``verifier`` unloaded."""

    def __contains__(self, pid: object) -> bool:
        return pid in iter(self)

    def __iter__(self) -> Iterator[str]:
        from .verifier import PROPERTY_IDS
        return iter(PROPERTY_IDS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tourcensus",
        description="Exact counts of oriented Hamiltonian path and cycle types "
                    "in tournaments, with property sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("census", help="count every path and cycle type of a tournament")
    p.add_argument("--order", type=_int, required=True, metavar="N")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--tournament", metavar="STR", help="inline serialization, e.g. 3:111")
    src.add_argument("--input", metavar="FILE", help="file of serializations, one per line")
    src.add_argument("--random", action="store_true", help="draw one seeded tournament")
    p.add_argument("--seed", type=_int, metavar="S", help="with --random (default 0)")
    p.set_defaults(handler=_cmd_census)

    p = sub.add_parser("verify", help="sweep a counting property over a tournament scope")
    p.add_argument("--property", required=True, metavar="ID", choices=_PropertyIds())
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exhaustive", action="store_true")
    mode.add_argument("--random", action="store_true")
    p.add_argument("--order", type=_int, required=True, metavar="N")
    p.add_argument("--samples", type=_int, metavar="K", help="with --random (default 1)")
    p.add_argument("--seed", type=_int, metavar="S", help="with --random (default 0)")
    p.add_argument("--allow-large", action="store_true",
                   help=f"raise the exhaustive cap from {EXHAUSTIVE_MAX_ORDER} "
                        f"to {EXHAUSTIVE_HARD_MAX}")
    p.add_argument("--max-arc-sum", type=_int, default=None, metavar="M",
                   help="also check non-spanning types up to this arc sum "
                        "(path-identity and cycle-identity only)")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("hcount", help="count copies of a pattern digraph in a tournament")
    p.add_argument("--tournament", required=True, metavar="STR")
    p.add_argument("--digraph", required=True, metavar="SPEC",
                   help='component list, e.g. "P(1,-1);C(1,-2);V"')
    p.add_argument("--complement-check", action="store_true",
                   help="also count in the arc-reversed tournament and compare")
    p.set_defaults(handler=_cmd_hcount)

    p = sub.add_parser("gen", help="emit tournament serializations")
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--all", action="store_true", help="every labeled tournament")
    kind.add_argument("--random", action="store_true", help="seeded independent draws")
    kind.add_argument("--transitive", action="store_true")
    p.add_argument("--order", type=_int, required=True, metavar="N")
    p.add_argument("--seed", type=_int, metavar="S", help="with --random (default 0)")
    p.add_argument("--count", type=_int, metavar="K", help="with --random (default 1)")
    p.set_defaults(handler=_cmd_gen)

    return parser


def _census_doc(T: Tournament) -> dict:
    doc = census(T).to_json_dict()
    doc["tournament"] = T.serialize()
    return doc


def _random_only(args, **defaults) -> None:
    """Reject the given flags unless ``--random`` is set; else fill their defaults."""
    for name, default in defaults.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif not args.random:
            raise TourCensusError(f"--{name} only applies with --random")


def _require_order(T: Tournament, order: int, where: str) -> None:
    if T.n != order:
        raise TourCensusError(f"{where} has order {T.n}, --order says {order}")


def _utf8_lines(data: bytes) -> Iterator[str]:
    """The lines of ``data`` decoded from UTF-8, split where a file opened
    with ``newline=""`` splits them: at ``\n``, ``\r\n`` and a lone ``\r``.
    A line that is not UTF-8 raises ``ParseError`` with its number and the
    offending byte's offset in ``data``."""
    offset = 0
    for number, line in enumerate(data.splitlines(keepends=True), 1):
        try:
            yield line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"line {number}: not UTF-8, {exc.reason}",
                             offset + exc.start) from None
        offset += len(line)


def _cmd_census(args) -> tuple[int, dict]:
    _random_only(args, seed=0)
    if args.tournament is not None:
        T = Tournament.parse(args.tournament)
        _require_order(T, args.order, "the given tournament")
        return 0, {"schema": 1, **_census_doc(T)}
    if args.input is not None:
        with open(args.input, "rb") as fh:
            ts = load_tournaments(_utf8_lines(fh.read()))
        reports = []
        for i, T in enumerate(ts):
            _require_order(T, args.order, f"tournament {i} in {args.input}")
            reports.append(_census_doc(T))
        return 0, {"schema": 1, "order": args.order, "reports": reports}
    T = next(iter(random_tournaments(args.order, args.seed, 1)))
    return 0, {"schema": 1, "seed": args.seed, **_census_doc(T)}


def _cmd_verify(args) -> tuple[int, dict]:
    from .verifier import Scope, verify

    _random_only(args, samples=1, seed=0)
    mode = "random" if args.random else "exhaustive"
    scope = Scope(mode=mode, order=args.order,
                  samples=args.samples if args.random else 0,
                  seed=args.seed, allow_large=args.allow_large)
    report = verify(args.property, scope, max_arc_sum=args.max_arc_sum)
    return (0 if report.passed else 1), {"schema": 2, **report.to_json_dict()}


def _cmd_hcount(args) -> tuple[int, dict]:
    from .digraphs import Digraph2Spec, check_complement_invariance, count_copies

    T = Tournament.parse(args.tournament)
    spec = Digraph2Spec.parse(args.digraph)
    doc: dict = {"schema": 1, "tournament": T.serialize(), "digraph": spec.render()}
    if args.complement_check:
        forward, reverse = check_complement_invariance(T, spec)
        doc["count"] = forward
        doc["complement_count"] = reverse
        doc["pass"] = forward == reverse
        return (0 if forward == reverse else 1), doc
    doc["count"] = count_copies(T, spec)
    return 0, doc


def _cmd_gen(args) -> tuple[int, dict]:
    _random_only(args, seed=0, count=1)
    if args.all:
        ts = all_tournaments(args.order)
    elif args.transitive:
        ts = [transitive(args.order)]
    else:
        if args.count < 1:
            raise TourCensusError("--count must be at least 1")
        if args.count > GEN_MAX_COUNT:
            raise ScopeTooLargeError(f"--count capped at {GEN_MAX_COUNT}, got {args.count}")
        ts = random_tournaments(args.order, args.seed, args.count)
    doc: dict = {"schema": 1, "order": args.order,
                 "tournaments": [T.serialize() for T in ts]}
    if args.random:
        doc["seed"] = args.seed
    return 0, doc


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    out = io.StringIO()  # what argparse prints to stdout (--help), then the document
    try:
        with contextlib.redirect_stdout(out):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code:  # a usage error, already on stderr
            return int(exc.code)
        args, code = None, 0  # --help, held in out
    try:
        if args is not None:
            code, doc = args.handler(args)
            out.write(json.dumps(doc, sort_keys=True) + "\n")
        _emit(out.getvalue())
    except (TourCensusError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def _emit(text: str) -> None:
    """Write and flush ``text`` to stdout, so that a full or closed stdout
    fails here.  After a failure the stdout descriptor is pointed at the null
    device, so the interpreter's own flush at exit has nothing left to fail
    on; a stream without a descriptor is left as it is."""
    out = sys.stdout
    try:
        out.write(text)
        out.flush()
    except OSError:
        with contextlib.suppress(OSError, ValueError):
            fd = out.fileno()
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, fd)
            os.close(null)
        raise


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
