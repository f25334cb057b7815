"""End-to-end tests of the command line front end."""

import contextlib
import io
import json
import os
import subprocess
import sys
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tourcensus
import tourcensus.cli as cli_mod
import tourcensus.verifier as verify_mod
from tourcensus.cli import GEN_MAX_COUNT, main
from tourcensus.verifier import PROPERTY_IDS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert out, err
    return code, json.loads(out)


# --- census ---------------------------------------------------------------------

def test_census_single(capsys):
    code, doc = run_json(capsys, "census", "--order", "3", "--tournament", "3:111")
    assert code == 0
    assert doc["schema"] == 1
    assert doc["tournament"] == "3:111"
    assert doc["paths"] == {"(2)": 1, "(1,-1)": 1, "(-1,1)": 1}
    assert doc["cycles"] == {"(3)": 0, "(1,-2)": 1}


def test_census_order_mismatch(capsys):
    code, out, err = run(capsys, "census", "--order", "4", "--tournament", "3:111")
    assert code == 2
    assert not out and "order" in err


def test_census_bad_tournament(capsys):
    code, out, err = run(capsys, "census", "--order", "3", "--tournament", "3:1x1")
    assert code == 2
    assert "byte" in err


def test_census_input_file(capsys, tmp_path):
    path = tmp_path / "ts.txt"
    path.write_text("# corpus\n3:111\n3:101\n", encoding="utf-8")
    code, doc = run_json(capsys, "census", "--order", "3", "--input", str(path))
    assert code == 0
    assert [r["tournament"] for r in doc["reports"]] == ["3:111", "3:101"]
    assert doc["reports"][1]["cycles"]["(3)"] == 1


@pytest.mark.parametrize("data, line, offset", [
    (b"  3:1x1\n", 1, 5),
    (b"3:111\n3:1x1\n", 2, 9),
    (b"3:111\r\n3:1x1\r\n", 2, 10),
    (b"# corpus\r\n\r\n 3:101\r\n3:1x1\r\n", 4, 23),
])
def test_census_input_error_offset_is_in_the_file(capsys, tmp_path, data, line, offset):
    path = tmp_path / "ts.txt"
    path.write_bytes(data)
    code, out, err = run(capsys, "census", "--order", "3", "--input", str(path))
    assert code == 2 and not out
    assert err == f"error: line {line}: bad relation character 'x' (byte {offset})\n"
    assert data[offset:offset + 1] == b"x"


@pytest.mark.parametrize("data, line, offset", [
    (b"3:111\n3:1\xff1\n", 2, 9),
    (b"3:111\n" * 2000 + b"3:1\xff1\n", 2001, 12003),  # past the first decode chunk
    (b"3:111\r3:1\xff1\r3:111\r", 2, 9),  # lone CR endings
    (b"# \xc3\xa9\r\n3:1\xe2\x82\r\n", 2, 9),  # a cut-off sequence after a good one
])
def test_census_input_that_is_not_utf8_names_its_line_and_byte(capsys, tmp_path, data, line,
                                                                offset):
    path = tmp_path / "ts.txt"
    path.write_bytes(data)
    code, out, err = run(capsys, "census", "--order", "3", "--input", str(path))
    assert code == 2 and not out
    assert err.startswith(f"error: line {line}: not UTF-8, ")
    assert err.endswith(f" (byte {offset})\n") and err.count("\n") == 1
    with pytest.raises(UnicodeDecodeError) as exc:
        data[offset:].decode("utf-8")
    assert exc.value.start == 0  # the offset is where the bad sequence starts


def test_census_input_lines_split_as_the_file_reader_splits_them(capsys, tmp_path):
    # CRLF, lone CR and LF endings; a form feed, NEL and U+2028 in comments end no line
    data = "# \u00e9\x0c\r\n3:111\r3:000\n# \x85 \u2028 3:1x1\n\n  3:101  \r\n3:010"
    path = tmp_path / "ts.txt"
    path.write_bytes(data.encode())
    code, doc = run_json(capsys, "census", "--order", "3", "--input", str(path))
    assert code == 0
    assert [r["tournament"] for r in doc["reports"]] == ["3:111", "3:000", "3:101", "3:010"]


def test_census_input_long_order_names_its_line(capsys, tmp_path):
    path = tmp_path / "ts.txt"
    path.write_text("3:111\n" + "9" * 5000 + ":\n", encoding="utf-8")
    code, out, err = run(capsys, "census", "--order", "3", "--input", str(path))
    assert code == 2 and not out
    assert err == "error: line 2: order of 5000 digits exceeds supported maximum 16 (byte 6)\n"


def test_census_missing_input_file(capsys, tmp_path):
    code, out, err = run(capsys, "census", "--order", "3", "--input", str(tmp_path / "no"))
    assert code == 2 and not out


def test_census_random_deterministic(capsys):
    _, a = run_json(capsys, "census", "--order", "6", "--random", "--seed", "42")
    _, b = run_json(capsys, "census", "--order", "6", "--random", "--seed", "42")
    assert a == b
    assert a["seed"] == 42


def test_census_threads_flag(capsys):
    # the flag was accepted and ignored; it is gone from census and verify
    code, out, err = run(capsys, "census", "--order", "3", "--tournament", "3:111",
                         "--threads", "4")
    assert code == 2 and not out and "--threads" in err
    code, out, err = run(capsys, "verify", "--property", "path-identity",
                         "--exhaustive", "--order", "3", "--threads", "1")
    assert code == 2 and not out and "--threads" in err


# --- verify ---------------------------------------------------------------------

def test_verify_pass_exit_zero(capsys):
    code, doc = run_json(capsys, "verify", "--property", "path-identity",
                         "--exhaustive", "--order", "4")
    assert code == 0
    assert doc["schema"] == 2  # 1 carried the elapsed "ms"
    assert "ms" not in doc
    assert doc["pass"] is True
    assert doc["checked"] == 256
    assert doc["scope"] == {"mode": "exhaustive", "order": 4}


def test_verify_vacuous_pass_flagged(capsys):
    for argv in (("path-identity", "1"), ("szele-floor", "0")):
        code, doc = run_json(capsys, "verify", "--property", argv[0],
                             "--exhaustive", "--order", argv[1])
        assert code == 0
        assert doc["checked"] == 0 and doc["pass"] is True and doc["vacuous"] is True
    _, doc = run_json(capsys, "verify", "--property", "path-identity",
                      "--exhaustive", "--order", "3")
    assert "vacuous" not in doc


def test_verify_random_scope(capsys):
    code, doc = run_json(capsys, "verify", "--property", "cycle-identity",
                         "--random", "--samples", "5", "--seed", "3", "--order", "6")
    assert code == 0
    assert doc["scope"] == {"mode": "random", "order": 6, "samples": 5, "seed": 3}


def test_verify_rosenfeld(capsys):
    code, doc = run_json(capsys, "verify", "--property", "rosenfeld",
                         "--exhaustive", "--order", "4")
    assert code == 0
    assert doc["details"] == {"alpha": "(1,-1,1)", "trivial": True}


def test_verify_max_arc_sum(capsys):
    code, doc = run_json(capsys, "verify", "--property", "path-identity",
                         "--exhaustive", "--order", "5", "--max-arc-sum", "3")
    assert code == 0 and doc["pass"] is True
    code, out, err = run(capsys, "verify", "--property", "rosenfeld",
                         "--exhaustive", "--order", "5", "--max-arc-sum", "3")
    assert code == 2


def test_verify_cycle_arc_sum_below_three(capsys):
    code, out, err = run(capsys, "verify", "--property", "cycle-identity", "--random",
                         "--order", "6", "--samples", "3", "--max-arc-sum", "2")
    assert code == 2
    assert not out and "3..6" in err


def test_verify_exit_one_on_violation(capsys, monkeypatch):
    def broken(scope, _):
        vio = [{"tournament": "3:111", "lhs": 0, "rhs": 1}]
        return 1, vio, None

    monkeypatch.setitem(verify_mod._PROPERTIES, "path-identity",
                        verify_mod._Property(broken))
    code, doc = run_json(capsys, "verify", "--property", "path-identity",
                         "--exhaustive", "--order", "3")
    assert code == 1
    assert doc["pass"] is False
    assert doc["violations"] == [{"tournament": "3:111", "lhs": 0, "rhs": 1}]


def test_verify_scope_too_large(capsys):
    code, out, err = run(capsys, "verify", "--property", "path-identity",
                         "--exhaustive", "--order", "8")
    assert code == 2 and "capped" in err
    code, out, err = run(capsys, "verify", "--property", "path-identity",
                         "--exhaustive", "--order", "7")
    assert code == 2 and "capped" in err
    # the override itself is plumbed through; order 7 sweeps live in acceptance
    code, _, _ = run(capsys, "verify", "--property", "t-one",
                     "--exhaustive", "--order", "5", "--allow-large")
    assert code == 0


def test_verify_allow_large_rejected_on_random_scope(capsys):
    # the flag only raises the exhaustive cap, so a random scope refuses it
    code, out, err = run(capsys, "verify", "--property", "path-identity",
                         "--random", "--order", "5", "--allow-large")
    assert code == 2 and not out and "allow_large" in err


def test_verify_unknown_property_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--property", "nope",
                         "--exhaustive", "--order", "4")
    assert code == 2


# --- hcount ---------------------------------------------------------------------

def test_hcount_plain(capsys):
    code, doc = run_json(capsys, "hcount", "--tournament", "3:111",
                         "--digraph", "P(1,-1)")
    assert code == 0
    assert doc == {"schema": 1, "tournament": "3:111", "digraph": "P(1,-1)",
                   "count": 1}


def test_hcount_complement_check(capsys):
    code, doc = run_json(capsys, "hcount", "--tournament", "3:111",
                         "--digraph", "P(1,-1)", "--complement-check")
    assert code == 0
    assert doc["count"] == 1 and doc["complement_count"] == 1
    assert doc["pass"] is True


def test_hcount_bad_digraph(capsys):
    code, out, err = run(capsys, "hcount", "--tournament", "3:111",
                         "--digraph", "P(1,2)")
    assert code == 2


def test_hcount_bad_integer_offset_given_once(capsys):
    code, out, err = run(capsys, "hcount", "--tournament", "3:111",
                         "--digraph", "V;P(2,x)")
    assert code == 2 and not out
    assert err.count("(byte") == 1 and "(byte 6)" in err


def test_hcount_long_integer_is_a_parse_error(capsys):
    code, out, err = run(capsys, "hcount", "--tournament", "3:111",
                         "--digraph", "P(" + "1" * 5000 + ")")
    assert code == 2 and not out
    assert err == "error: integer of 5000 digits is too long (byte 2)\n"


@pytest.mark.parametrize("argv", [
    ("hcount", "--tournament", "3:111", "--digraph", "P(" + "1" * 5000 + "x)"),
    ("census", "--order", "3", "--tournament", "x" * 5000 + ":111"),
])
def test_a_long_bad_token_is_not_echoed(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert err.startswith("error: bad ") and "of 500" in err and len(err.encode()) < 200


# --- gen ------------------------------------------------------------------------

def test_gen_all(capsys):
    code, doc = run_json(capsys, "gen", "--all", "--order", "3")
    assert code == 0
    assert len(doc["tournaments"]) == 8
    assert doc["tournaments"][0] == "3:000"


def test_gen_transitive(capsys):
    code, doc = run_json(capsys, "gen", "--transitive", "--order", "4")
    assert doc["tournaments"] == ["4:111111"]


def test_gen_random(capsys):
    code, a = run_json(capsys, "gen", "--random", "--seed", "9", "--count", "3",
                       "--order", "5")
    assert code == 0 and len(a["tournaments"]) == 3 and a["seed"] == 9
    _, b = run_json(capsys, "gen", "--random", "--seed", "9", "--count", "3",
                    "--order", "5")
    assert a == b


def test_gen_feeds_census(capsys, tmp_path):
    _, doc = run_json(capsys, "gen", "--random", "--seed", "1", "--count", "4",
                      "--order", "4")
    path = tmp_path / "batch.txt"
    path.write_text("\n".join(doc["tournaments"]) + "\n", encoding="utf-8")
    code, out = run_json(capsys, "census", "--order", "4", "--input", str(path))
    assert code == 0 and len(out["reports"]) == 4


@pytest.mark.parametrize("seed", ["18446744073709551616", "-1"])
def test_gen_refuses_a_seed_outside_64_bits(capsys, seed):
    code, out, err = run(capsys, "gen", "--random", "--order", "4", "--seed", seed)
    assert code == 2 and not out
    assert err == "error: seed outside supported range 0..18446744073709551615\n"


def test_gen_largest_seed_draws(capsys):
    code, doc = run_json(capsys, "gen", "--random", "--order", "4",
                         "--seed", "18446744073709551615")
    assert code == 0 and doc["tournaments"] == ["4:111011"]


@pytest.mark.parametrize("limit", [0, 640, 4300])
def test_integer_options_refuse_a_long_value_whatever_the_int_limit(capsys, limit):
    # interpreters before the limit existed convert any length: nothing to set
    set_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    old = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit(limit)
    try:
        for option in ("--order", "--seed", "--count"):
            argv = {"--order": "3", "--seed": "1", "--count": "1", option: "1" * 5000}
            code, out, err = run(capsys, "gen", "--random", *(x for kv in argv.items() for x in kv))
            assert code == 2 and not out
            assert err.endswith(f"error: argument {option}: value of 5000 characters is too long\n")
            assert len(err.encode()) < 200
        for option in ("--samples", "--max-arc-sum"):
            code, out, err = run(capsys, "verify", "--property", "path-identity", "--random",
                                 "--order", "4", option, "-" + "9" * 641)
            assert code == 2 and not out
            assert err.endswith(f"error: argument {option}: value of 641 characters is too long\n")
        # 640 digits convert, whatever the limit, and reach the seed's own range check
        code, out, err = run(capsys, "gen", "--random", "--order", "3", "--seed", "7" * 640)
        assert code == 2 and err == "error: seed outside supported range 0..18446744073709551615\n"
        code, out, err = run(capsys, "census", "--order", "abc", "--random")
        assert code == 2 and err.endswith("error: argument --order: invalid int value: 'abc'\n")
    finally:
        set_limit(old)


def test_gen_bad_count(capsys):
    code, _, _ = run(capsys, "gen", "--random", "--seed", "1", "--count", "0",
                     "--order", "4")
    assert code == 2


def test_gen_count_cap_generates_nothing(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("generated tournaments past the cap")

    monkeypatch.setattr(cli_mod, "random_tournaments", refuse)
    code, out, err = run(capsys, "gen", "--random", "--seed", "1",
                         "--count", str(GEN_MAX_COUNT + 1), "--order", "4")
    assert code == 2 and not out and "capped" in err


# --- invocation shape -------------------------------------------------------------

def test_usage_errors(capsys):
    assert run(capsys, "census", "--order", "3")[0] == 2  # no source picked
    assert run(capsys, "nope")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "verify", "--property", "eqsym", "--order", "4")[0] == 2


def test_byte_identical_stdout(capsys):
    argv = ("census", "--order", "5", "--random", "--seed", "7")
    _, a, _ = run(capsys, *argv)
    _, b, _ = run(capsys, *argv)
    assert a == b
    argv = ("gen", "--all", "--order", "4")
    _, a, _ = run(capsys, *argv)
    _, b, _ = run(capsys, *argv)
    assert a == b
    argv = ("verify", "--property", "t-one", "--exhaustive", "--order", "6")
    _, a, _ = run(capsys, *argv)
    _, b, _ = run(capsys, *argv)
    assert a == b


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ)
    src = str(Path(tourcensus.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tourcensus", "census", "--random", "--order", "5"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert proc.stdout.count("\n") == 1
    assert doc["n"] == 5 and doc["seed"] == 0


class _FullStream(io.StringIO):
    """A stdout that fails the way a full device does, on write or on flush."""

    def __init__(self, fail_on):
        super().__init__()
        self.fail_on = fail_on

    def write(self, text):
        if self.fail_on == "write":
            raise OSError(28, "No space left on device")
        return super().write(text)

    def flush(self):
        if self.fail_on == "flush":
            raise OSError(28, "No space left on device")


_UNWRITTEN = {  # argv: a document, and the help that argparse prints to stdout
    "": ("gen", "--transitive", "--order", "3"),
    "help": ("--help",),
    "verify-help": ("verify", "--help"),
}


@pytest.mark.parametrize("fail_on, argv", [
    pytest.param(fail_on, argv, id="-".join(filter(None, (name, fail_on))))
    for name, argv in _UNWRITTEN.items() for fail_on in ("write", "flush")
])
def test_unwritable_stdout_is_a_usage_error(capsys, monkeypatch, fail_on, argv):
    monkeypatch.setattr(sys, "stdout", _FullStream(fail_on))
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_stdout_to_full_device_exits_two_without_traceback():
    env = dict(os.environ)
    src = str(Path(tourcensus.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for argv in _UNWRITTEN.values():
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "tourcensus", *argv],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
            )
        # one error line: no traceback, and no second failure when the
        # interpreter flushes stdout at exit (which would exit 120)
        assert proc.returncode == 2, argv
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, argv


@pytest.mark.parametrize("argv, flag", [
    (("gen", "--all", "--order", "3", "--count", "5"), "--count"),
    (("gen", "--all", "--order", "3", "--seed", "9"), "--seed"),
    (("gen", "--transitive", "--order", "3", "--count", "5"), "--count"),
    (("gen", "--transitive", "--order", "3", "--seed", "9"), "--seed"),
    (("verify", "--property", "t-one", "--exhaustive", "--order", "3",
      "--samples", "40"), "--samples"),
    (("verify", "--property", "t-one", "--exhaustive", "--order", "3",
      "--seed", "3"), "--seed"),
    (("census", "--order", "3", "--tournament", "3:111", "--seed", "4"), "--seed"),
    (("census", "--order", "3", "--input", "ts.txt", "--seed", "4"), "--seed"),
])
def test_random_only_flags_rejected_elsewhere(capsys, tmp_path, monkeypatch, argv, flag):
    # each of these was accepted and then ignored; now it exits 2
    (tmp_path / "ts.txt").write_text("3:111\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert flag in err and "--random" in err
    # without the flag the same call runs
    i = argv.index(flag)
    assert run(capsys, *argv[:i], *argv[i + 2:])[0] == 0


def test_verify_samples_cap_draws_nothing(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("drew tournaments past the cap")

    monkeypatch.setattr(verify_mod, "random_tournaments", refuse)
    code, out, err = run(capsys, "verify", "--property", "path-identity", "--random",
                         "--order", "4", "--samples", str(tourcensus.RANDOM_MAX_SAMPLES + 1))
    assert code == 2 and not out and "capped" in err


# --- the CLI contract under fuzzed argv -------------------------------------------

_TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=8)
_INTS = st.sampled_from(["-1", "0", "1", "3", "70000", "99999999999999999999", "x", ""])
_SMALL_ORDERS = st.sampled_from(["-1", "0", "1", "2", "3", "4", "8", "x"])  # 8: past every exhaustive cap
_ORDERS = st.sampled_from(["-1", "0", "1", "2", "3", "5", "7", "13", "x"])
_SERIALS = st.one_of(st.sampled_from(["3:111", "3:101", "4:111011", "3:1x1", "2:1", "3:11",
                                      "0:", "1:", "5:1100011101", ":"]), _TEXT)
_SPECS = st.one_of(st.sampled_from(["P(1,-1)", "V", "C(1,-2)", "P(2,x)", "V;P(1)", "C(1,1)",
                                    "P(5)", "C(3)", "P(1,-1);C(1,-2);V", ";"]), _TEXT)
_JUNK = st.sampled_from(["--bogus", "-q", "extra", "--order", "--random"])


def _pair(flag, values):
    return st.tuples(st.just(flag), values)


def _switch(flag):
    return st.tuples(st.just(flag))


def _optional(flags):
    """Any subset of ``flags`` (name, values), values None for a number, False for a switch."""
    def one(name, values):
        if values is False:
            return _switch(name)
        return _pair(name, _INTS if values is None else st.sampled_from(values))
    return st.lists(st.sampled_from(flags), unique_by=itemgetter(0), max_size=len(flags)).flatmap(
        lambda chosen: st.tuples(*(one(*f) for f in chosen)))


@st.composite
def _argv(draw, files):
    command = draw(st.sampled_from(["verify", "census", "gen", "hcount"]))
    if command == "verify":
        scope = draw(st.one_of(st.tuples(_switch("--exhaustive"), _pair("--order", _SMALL_ORDERS)),
                               st.tuples(_switch("--random"), _pair("--order", _ORDERS)),
                               st.tuples(_pair("--order", _ORDERS))))
        parts = [draw(_pair("--property", st.sampled_from(PROPERTY_IDS + ("nope",)))), *scope,
                 *draw(_optional([("--samples", ["-1", "0", "1", "3", "70000", "x"]),
                                  ("--seed", None), ("--allow-large", False),
                                  ("--max-arc-sum", None)]))]
    elif command == "census":
        source = draw(st.lists(st.one_of(_pair("--tournament", _SERIALS),
                                         _pair("--input", st.sampled_from(files)),
                                         _switch("--random")), max_size=2))
        parts = [draw(_pair("--order", st.sampled_from(["-1", "0", "3", "4", "5", "11", "x"]))),
                 *source, *draw(_optional([("--seed", None)]))]
    elif command == "gen":
        kind = draw(st.lists(st.sampled_from(["--all", "--random", "--transitive"]),
                             unique=True, max_size=2))
        orders = _SMALL_ORDERS if "--all" in kind else _ORDERS
        parts = [*((k,) for k in kind), draw(_pair("--order", orders)),
                 *draw(_optional([("--seed", None), ("--count", None)]))]
    else:
        parts = [draw(_pair("--tournament", _SERIALS)), draw(_pair("--digraph", _SPECS)),
                 *draw(_optional([("--complement-check", False)]))]
    parts = draw(st.permutations(parts))
    argv = [command] + [token for part in parts for token in part]
    if draw(st.booleans()) and draw(st.booleans()):
        argv.insert(draw(st.integers(0, len(argv))), draw(_JUNK))
    return argv


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    (root / "good.txt").write_text("# corpus\n3:111\n3:101\n", encoding="utf-8")
    (root / "bad.txt").write_text("3:111\n3:1z1\n", encoding="utf-8")
    (root / "binary.txt").write_bytes(b"\xff\xfe3:111\n")
    return [str(root / name) for name in ("good.txt", "bad.txt", "binary.txt", "missing.txt")]


def test_cli_contract_fuzz(input_files):
    @settings(max_examples=150, deadline=None)
    @given(_argv(input_files))
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), argv
        if out.getvalue():
            assert out.getvalue().endswith("\n") and out.getvalue().count("\n") == 1, argv
            assert isinstance(json.loads(out.getvalue()), dict), argv
        assert "Traceback" not in err.getvalue(), argv

    check()
