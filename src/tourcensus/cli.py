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
import json
import sys

from .census import census
from .digraphs import Digraph2Spec, check_complement_invariance, count_copies
from .errors import ScopeTooLargeError, TourCensusError
from .tournaments import (
    EXHAUSTIVE_HARD_MAX,
    EXHAUSTIVE_MAX_ORDER,
    Tournament,
    all_tournaments,
    load_tournaments,
    random_tournaments,
    transitive,
)
from .verifier import PROPERTY_IDS, Scope, verify

__all__ = ["GEN_MAX_COUNT", "build_parser", "main", "entry"]

GEN_MAX_COUNT = 1 << 16  # random tournaments one ``gen`` call may print


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tourcensus",
        description="Exact counts of oriented Hamiltonian path and cycle types "
                    "in tournaments, with property sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("census", help="count every path and cycle type of a tournament")
    p.add_argument("--order", type=int, required=True, metavar="N")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--tournament", metavar="STR", help="inline serialization, e.g. 3:111")
    src.add_argument("--input", metavar="FILE", help="file of serializations, one per line")
    src.add_argument("--random", action="store_true", help="draw one seeded tournament")
    p.add_argument("--seed", type=int, metavar="S", help="with --random (default 0)")
    p.set_defaults(handler=_cmd_census)

    p = sub.add_parser("verify", help="sweep a counting property over a tournament scope")
    p.add_argument("--property", required=True, metavar="ID",
                   choices=PROPERTY_IDS)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exhaustive", action="store_true")
    mode.add_argument("--random", action="store_true")
    p.add_argument("--order", type=int, required=True, metavar="N")
    p.add_argument("--samples", type=int, metavar="K", help="with --random (default 1)")
    p.add_argument("--seed", type=int, metavar="S", help="with --random (default 0)")
    p.add_argument("--allow-large", action="store_true",
                   help=f"raise the exhaustive cap from {EXHAUSTIVE_MAX_ORDER} "
                        f"to {EXHAUSTIVE_HARD_MAX}")
    p.add_argument("--max-arc-sum", type=int, default=None, metavar="M",
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
    p.add_argument("--order", type=int, required=True, metavar="N")
    p.add_argument("--seed", type=int, metavar="S", help="with --random (default 0)")
    p.add_argument("--count", type=int, metavar="K", help="with --random (default 1)")
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


def _cmd_census(args) -> tuple[int, dict]:
    _random_only(args, seed=0)
    if args.tournament is not None:
        T = Tournament.parse(args.tournament)
        _require_order(T, args.order, "the given tournament")
        return 0, {"schema": 1, **_census_doc(T)}
    if args.input is not None:
        with open(args.input, encoding="utf-8") as fh:
            ts = load_tournaments(fh)
        reports = []
        for i, T in enumerate(ts):
            _require_order(T, args.order, f"tournament {i} in {args.input}")
            reports.append(_census_doc(T))
        return 0, {"schema": 1, "order": args.order, "reports": reports}
    T = next(iter(random_tournaments(args.order, args.seed, 1)))
    return 0, {"schema": 1, "seed": args.seed, **_census_doc(T)}


def _cmd_verify(args) -> tuple[int, dict]:
    _random_only(args, samples=1, seed=0)
    mode = "random" if args.random else "exhaustive"
    scope = Scope(mode=mode, order=args.order,
                  samples=args.samples if args.random else 0,
                  seed=args.seed, allow_large=args.allow_large)
    report = verify(args.property, scope, max_arc_sum=args.max_arc_sum)
    return (0 if report.passed else 1), {"schema": 2, **report.to_json_dict()}


def _cmd_hcount(args) -> tuple[int, dict]:
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
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return int(exc.code or 0)
    try:
        code, doc = args.handler(args)
    except (TourCensusError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(doc, sort_keys=True))
    return code


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
