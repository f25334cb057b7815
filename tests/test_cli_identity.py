"""The call list and the comparison of tools/cli_identity.py, on made-up results.

No revision is exported and no call runs here."""

import importlib.util
import sys
from pathlib import Path

from tourcensus.verifier import PROPERTY_IDS

_TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(_TOOLS))  # cli_identity imports bench_record
try:
    _spec = importlib.util.spec_from_file_location("cli_identity", _TOOLS / "cli_identity.py")
    cli_identity = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(cli_identity)
finally:
    sys.path.remove(str(_TOOLS))


def _verify_calls(calls, pid):
    return [c for c in calls if c[2:5] == ("verify", "--property", pid)]


def test_every_property_runs_on_every_scope():
    calls = cli_identity.fixed_calls(PROPERTY_IDS)
    for pid in PROPERTY_IDS:
        mine = [c for c in _verify_calls(calls, pid)
                if c not in cli_identity.PARSER_ERRORS + cli_identity.WIDE_WORD_LANES
                + cli_identity.ORACLE_CAP]
        orders = [c[c.index("--order") + 1] for c in mine if "--exhaustive" in c
                  and "--max-arc-sum" not in c]
        assert orders == [str(n) for n in range(6)], pid
        orders = [c[c.index("--order") + 1] for c in mine if "--random" in c
                  and "--max-arc-sum" not in c]
        assert orders == ["0", "1", "2", "3", "7", "9"], pid
        assert all(c[-4:] == ("--samples", "3", "--seed", "11") for c in mine if "--random" in c)
        bounded = [c[5:] for c in mine if "--max-arc-sum" in c]
        assert bounded == [
            ("--exhaustive", "--order", "4", "--max-arc-sum", "2"),
            ("--exhaustive", "--order", "6", "--max-arc-sum", "5"),
            ("--random", "--order", "9", "--max-arc-sum", "7", "--samples", "3", "--seed", "11"),
        ], pid


def test_fixed_calls_cover_every_subcommand_and_the_public_names():
    calls = cli_identity.fixed_calls(PROPERTY_IDS)
    assert len(calls) == len(set(calls))
    commands = {c[2] for c in calls if c[:2] == ("-m", "tourcensus")}
    assert commands == {"verify", "census", "gen", "hcount"}
    assert any("--complement-check" in c for c in calls)
    assert _verify_calls(calls, "no-such-property")
    assert calls[-1] == cli_identity.PUBLIC_NAMES
    assert "tourcensus.__all__" in calls[-1][1] and "inspect.signature" in calls[-1][1]


def test_fixed_calls_reach_the_parser_errors():
    calls = cli_identity.fixed_calls(PROPERTY_IDS)
    cli = ("-m", "tourcensus")
    expected = [
        (*cli, "census", "--order", "3", "--tournament", "3:1x1"),
        (*cli, "census", "--order", "3", "--tournament", "3111"),
        (*cli, "census", "--order", "17", "--random"),
        (*cli, "hcount", "--tournament", "3:111", "--digraph", "P(2,x)"),
        (*cli, "hcount", "--tournament", "3:111", "--digraph", "C(1,-1)"),
        (*cli, "gen", "--random", "--order", "3", "--count", "70000"),
        (*cli, "verify", "--property", "path-identity", "--random", "--order", "3",
         "--samples", "0"),
    ]
    assert calls[-1 - len(expected):-1] == expected  # just before the public names
    assert len(calls) == len(PROPERTY_IDS) * 15 + 2 + 2 + 19 + 5 + len(expected) + 1


def test_fixed_calls_reach_random_censuses_at_small_orders_and_order_9():
    calls = cli_identity.fixed_calls(PROPERTY_IDS)
    censuses = [c for c in calls if c[2:4] == ("census", "--random")]
    assert censuses == [("-m", "tourcensus", "census", "--random", "--order", n, "--seed", "3")
                        for n in ("0", "1", "2", "9")]


def test_differences_name_every_differing_call():
    calls = [("-m", "tourcensus", "a"), ("-m", "tourcensus", "b"),
             ("-m", "tourcensus", "c"), ("-c", "print(1)")]
    parent = [(b"{}\n", b"", 0), (b"x\n", b"", 1), (b"", b"error: e\n", 2), (b"1\n", b"", 0)]
    assert cli_identity.differences(calls, parent, list(parent)) == []
    change = [(b"{}\n", b"", 0), (b"x\n", b"", 0), (b"", b"error: f\n", 2), (b"2\n", b"w\n", 0)]
    assert cli_identity.differences(calls, parent, change) == [
        "-m tourcensus b: exit code differ",
        "-m tourcensus c: stderr differ",
        "-c print(1): stdout, stderr differ",
    ]


def test_differences_show_a_multi_line_call_by_its_first_line():
    calls = [("-c", "import sys\nprint(sys.argv)")]
    assert cli_identity.differences(calls, [(b"", b"", 0)], [(b"", b"", 1)]) == [
        "-c import sys: exit code differ"]


def test_first_differing_lines_show_each_side_cut_to_the_width():
    first = cli_identity.first_differing_lines
    same = (b"a\nb\n", b"e\n", 0)
    assert first(same, same) == []
    assert first(same, (b"a\nc\n", b"e\n", 1)) == [
        "parent stdout line 2: b", "change stdout line 2: c"]
    # a side that stops early has no line there; stderr comes after stdout
    assert first(same, (b"a\n", b"f\n", 0)) == [
        "parent stdout line 2: b", "change stdout line 2: (no line)",
        "parent stderr line 1: e", "change stderr line 1: f"]
    long = (("x" * 200 + "\n").encode(), b"", 0)
    lines = first(long, (("y" * 200 + "\n").encode(), b"", 0))
    assert lines == [f"parent stdout line 1: {'x' * 98}", f"change stdout line 1: {'y' * 98}"]
    assert all(len(line) == 120 for line in lines)


def test_fixed_calls_reach_the_widest_word_lanes():
    calls = cli_identity.fixed_calls(PROPERTY_IDS)
    cli = ("-m", "tourcensus", "verify", "--property")
    wide = [
        (*cli, "path-identity", "--random", "--order", "11", "--max-arc-sum", "10",
         "--samples", "1", "--seed", "11"),
        (*cli, "cycle-identity", "--random", "--order", "11", "--max-arc-sum", "11",
         "--samples", "1", "--seed", "11"),
    ]
    start = len(PROPERTY_IDS) * 15  # right after the per-property scopes
    assert calls[start:start + 2] == wide


def test_fixed_calls_reach_the_oracle_cap_on_the_cycle_list_sweeps():
    calls = cli_identity.fixed_calls(PROPERTY_IDS)
    cli = ("-m", "tourcensus", "verify", "--property")
    capped = [(*cli, pid, "--random", "--order", "8", "--samples", "3", "--seed", "11")
              for pid in ("class-sizes", "eqsym")]
    start = len(PROPERTY_IDS) * 15 + 2  # right after the widest word lanes
    assert calls[start:start + 2] == capped
