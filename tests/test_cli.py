"""Command line surface: formats, exit codes, agreement with the library."""

from __future__ import annotations

import argparse
import csv
import errno
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veryample import Divisor, cli, classify_very_ample, parse_bundle
from veryample.cli import main

from conftest import bundles

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")

def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "classify", "--bundle", "3:4", "--a", "2",
                           "--b", "-1")
        assert code == 0
        assert "bundle: 3:4 (rank 3, degree 4)" in out
        assert "divisor: 2T-1f" in out
        assert "slope invariant b + a*mu^-(E): 5/3" in out
        assert "status: VeryAmple" in out
        assert "strength: sufficient" in out
        assert "binding rule: R-RK3-INDEC" in out
        assert "firings:" in out

    def test_readme_sample_is_real_output(self, capsys):
        # every line of the README's classify sample but "  ..." appears,
        # in order, in the real output
        with open(README, encoding="utf-8") as f:
            text = f.read()
        start = text.index("```\nbundle: 3:4 (rank 3, degree 4)\n") + 4
        sample = [line for line in text[start:text.index("```", start)].splitlines()
                  if line != "  ..."]
        assert len(sample) == 11
        code, out, _ = run(capsys, "classify", "--bundle", "3:4", "--a", "2",
                           "--b", "-1")
        assert code == 0
        lines = iter(out.splitlines())
        for line in sample:
            assert line in lines, line

    def test_unknown_shows_window(self, capsys):
        code, out, _ = run(capsys, "classify", "--bundle", "1:2,2:3",
                           "--a", "2", "--b", "-1")
        assert code == 0
        assert "status: Unknown" in out
        assert "unknown window: b + a*mu^-(E) in (0, 2]" in out
        assert "unknown reason: open-range" in out

    def test_many_line_summands_at_large_a_stay_fast(self, capsys):
        # six distinct line summands at a = 64: no step may enumerate the
        # C(69, 5) line summands of S^a(E); same 1 s budget as criterion 1
        start = time.perf_counter()
        code, out, _ = run(capsys, "classify", "--bundle",
                           "1:0,1:1,1:2,1:3,1:4,1:5", "--a", "64", "--b", "1")
        elapsed = time.perf_counter() - start
        assert code == 0
        assert "status: NotVeryAmple" in out
        assert elapsed < 1.0

    def test_json_matches_library_verdict(self, capsys):
        code, out, _ = run(capsys, "classify", "--bundle", "3:4", "--a", "2",
                           "--b", "-1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        verdict = classify_very_ample(parse_bundle("3:4"), Divisor(2, -1))
        assert payload["bundle"] == "3:4"
        assert payload["divisor"] == {"a": 2, "b": -1}
        assert payload["verdict"] == verdict.to_json_dict()


class TestInvariants:
    def test_headline_numbers(self, capsys):
        code, out, _ = run(capsys, "invariants", "--bundle", "3:4", "--a", "2",
                           "--b", "-1")
        assert code == 0
        assert "mu(E): 4/3" in out
        assert "semistable: yes" in out
        assert "divisor degree: 20" in out
        assert "h^0: 10" in out
        assert "ambient dimension: 9" in out
        assert "ample: Yes" in out
        assert "very ample: VeryAmple (sufficient, R-RK3-INDEC)" in out

    def test_degenerate_divisor_stays_exit_zero(self, capsys):
        code, out, _ = run(capsys, "invariants", "--bundle", "2:1", "--a", "0",
                           "--b", "2")
        assert code == 0
        assert "h^0: undefined (needs a >= 1 and b + a*mu^-(E) > 0)" in out
        assert "ambient dimension: n/a" in out
        assert "globally generated: n/a (needs a >= 1)" in out
        assert "very ample: NotVeryAmple" in out

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "invariants", "--bundle", "1:2,2:3",
                           "--a", "2", "--b", "0", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["mu_minus"] == {"num": 3, "den": 2}
        assert payload["hn_stages"][0]["atoms"] == ["1:2"]
        assert payload["very_ample"]["status"] == "VeryAmple"
        assert payload["ample"] == "Yes"


class TestExitCodes:
    def test_parse_error_is_2(self, capsys):
        code, _, err = run(capsys, "classify", "--bundle", "0:1", "--a", "1",
                           "--b", "0")
        assert code == 2
        assert err.startswith("error:")

    def test_domain_error_is_3(self, capsys):
        code, _, err = run(capsys, "classify", "--bundle", "1:5", "--a", "1",
                           "--b", "0")
        assert code == 3
        assert "rank" in err
        code, out, err = run(capsys, "table", "--bundle", "1:0", "--a", "1..5",
                             "--b", "-4..3", "--format", "atlas")
        assert code == 3
        assert out == ""
        assert "rank" in err

    def test_range_rejected_outside_table(self, capsys):
        code, _, err = run(capsys, "classify", "--bundle", "2:1", "--a",
                           "1..3", "--b", "0")
        assert code == 2
        assert "table" in err

    def test_empty_range_rejected(self, capsys):
        code, _, err = run(capsys, "table", "--bundle", "2:1", "--a", "2",
                           "--b", "3..1")
        assert code == 2
        assert "empty range" in err

    @pytest.mark.parametrize("argv", [
        ("classify", "--bundle", "\u0662:\u0661", "--a", "3", "--b", "1"),
        ("classify", "--bundle", "2:1", "--a", "\u0663", "--b", "1"),
        ("classify", "--bundle", "2:1", "--a", "2\n", "--b", "1"),
        ("invariants", "--bundle", "2:1", "--a", "2", "--b", "1\n"),
        ("table", "--bundle", "2:1", "--a", "1..\u0663", "--b", "0"),
        ("table", "--bundle", "2:1", "--a", "2", "--b", "0..1\n"),
    ], ids=["bundle", "a", "a-newline", "b-newline", "table-range", "range-newline"])
    def test_only_ascii_digits_are_integers(self, capsys, argv):
        # \d matches any Unicode digit and $ a trailing newline; the grammar
        # takes neither
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ("classify", "--bundle", "2:1", "--a", "9" * 5000, "--b", "0"),
        ("table", "--bundle", "2:1", "--a", "2", "--b", "0.." + "9" * 5000),
        ("classify", "--bundle", "1:0,1:" + "9" * 5000, "--a", "2", "--b", "0"),
    ], ids=["a", "table-range", "bundle-degree"])
    def test_oversized_integer_is_2(self, capsys, argv):
        # past Python's int-string digit limit int() raises ValueError
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error:")
        assert "too long" in err

    @pytest.mark.parametrize("argv", [
        ("invariants", "--bundle", "2:1", "--a", "9" * 3000, "--b", "0"),
        ("invariants", "--bundle", "5000:1", "--a", "10", "--b", "0"),
        ("classify", "--bundle", "1:0,1:99999999", "--a", "9" * 4299, "--b", "0"),
        ("table", "--bundle", "2:99999999", "--a", "9" * 4299, "--b", "0",
         "--format", "csv"),
    ], ids=["invariants-a", "invariants-rank", "classify-degree", "table-degree"])
    def test_value_past_a_cap_is_2(self, capsys, argv):
        # uncapped, each of these reaches an integer past Python's 4,300-digit
        # int-string limit when rendered, and exits 1 with a traceback
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "past the cap" in err

    def test_caps_are_inclusive(self, capsys):
        ok = ("classify", "--bundle", "2:1000000", "--a", "1000000", "--b", "-1000000")
        assert run(capsys, *ok)[0] == 0
        assert run(capsys, "classify", "--bundle", "64:1", "--a", "2", "--b", "0")[0] == 0
        for argv in (
            ("classify", "--bundle", "2:1000001", "--a", "2", "--b", "0"),
            ("classify", "--bundle", "2:-1000001", "--a", "2", "--b", "0"),
            ("classify", "--bundle", "2:1", "--a", "-1000001", "--b", "0"),
            ("classify", "--bundle", "2:1", "--a", "2", "--b", "1000001"),
            ("table", "--bundle", "2:1", "--a", "2", "--b", "-1000001..0"),
            ("classify", "--bundle", "32:1,33:0", "--a", "2", "--b", "0"),
        ):
            assert run(capsys, *argv)[0] == 2, argv

    def test_table_past_the_cell_cap_is_2(self, capsys):
        # 1001 x 100 = 100,100 cells; the cap is checked before any cell is
        # built or classified
        for fmt in ("text", "atlas"):
            code, out, err = run(capsys, "table", "--bundle", "2:1", "--a", "1..1001",
                                 "--b", "1..100", "--format", fmt)
            assert code == 2
            assert out == ""
            assert err.startswith("error:")
            assert "past the cap" in err

    def test_distinct_atom_cap(self, capsys):
        # classify and invariants have no screen cap: the quotient screen
        # visits one sub-sum per distinct atom, so 13 and 64 distinct lines
        # exit 0
        thirteen = self._lines(*[1] * 13)
        assert run(capsys, "classify", "--bundle", thirteen, "--a", "2", "--b", "3")[0] == 0
        sixty_four = self._lines(*[1] * 64)
        for command in ("classify", "invariants"):
            assert run(capsys, command, "--bundle", sixty_four, "--a", "2",
                       "--b", "3")[0] == 0

    @staticmethod
    def _lines(*counts: int) -> str:
        # counts[d] copies of the degree-d line bundle
        return ",".join(f"1:{d}" for d, m in enumerate(counts) for _ in range(m))

    def test_screen_size_cap(self, capsys):
        # repeated atoms count once: 16 copies each of 4 lines are rank 64
        # and 4 distinct atoms
        repeated = self._lines(16, 16, 16, 16)
        assert run(capsys, "classify", "--bundle", repeated, "--a", "2", "--b", "3")[0] == 0
        # 65,537 cells times 4 distinct atoms is past 2^18, checked before
        # any cell is classified
        code, out, err = run(capsys, "table", "--bundle", repeated, "--a", "2",
                             "--b", "1..65537")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "4 distinct atoms" in err and "past the cap" in err

    def test_table_screen_work_cap(self, capsys):
        # cells times distinct atoms <= 2^18: 4096 cells of 64 distinct
        # lines pass, 4098 exit 2 before any cell is classified
        sixty_four = self._lines(*[1] * 64)
        code, out, _ = run(capsys, "table", "--bundle", sixty_four, "--a", "2",
                           "--b", "-2047..2048", "--format", "csv")
        assert code == 0
        assert len(out.splitlines()) == 4097
        code, out, err = run(capsys, "table", "--bundle", sixty_four, "--a", "1..2",
                             "--b", "1..2049")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "past the cap" in err

    def test_usage_failures_map_to_2(self, capsys):
        for argv in (("nonsense",), ("classify", "--bundle", "2:1", "--a", "1"),
                     ("classify", "--bundle", "2:1", "--a", "1", "--b", "0",
                      "--format", "yaml")):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("usage: veryample"), argv

    def test_help_is_0(self, capsys):
        assert run(capsys, "--help")[0] == 0

    @pytest.mark.parametrize("command", ["classify", "invariants", "table", "rules"])
    def test_command_help_shows_its_own_usage(self, capsys, command):
        for flag in ("-h", "--help", "--he"):
            code, out, err = run(capsys, command, flag)
            assert (code, err) == (0, ""), flag
            assert out.startswith(f"usage: veryample {command} [-h] "), flag


# junk is a small share of each draw, so many argv reach the engine
_JUNK = st.text(alphabet="1-:,.x ;", max_size=5)
_INTS = st.integers(-6, 6).map(str)
_RANGES = st.builds(lambda lo, n: f"{lo}..{lo + n}", st.integers(-6, 6), st.integers(-1, 3))
_VALUES = st.one_of(_INTS, _INTS, _INTS, _RANGES, _JUNK)
_BUNDLES = bundles(min_rank=1, max_rank=5, max_abs_degree=4).map(str)


def _fuzz_argv(command, bundle, a, b, fmt, drop, extra) -> list[str]:
    argv = [command]
    for flag, value in (("--bundle", bundle), ("--a", a), ("--b", b)):
        if flag != drop and command != "rules":
            argv += [flag, value]
    if fmt is not None:
        argv += ["--format", fmt]
    return argv + list(extra)


_ARGV = st.builds(
    _fuzz_argv,
    command=st.sampled_from(("classify", "invariants", "table", "table", "rules", "tabel")),
    bundle=st.one_of(_BUNDLES, _BUNDLES, _BUNDLES, _JUNK),
    a=_VALUES,
    b=_VALUES,
    fmt=st.sampled_from((None,) * 3 + ("text", "json", "csv", "atlas", "yaml")),
    drop=st.sampled_from((None,) * 12 + ("--bundle", "--a", "--b")),
    extra=st.sampled_from(((),) * 12 + (("--a",), ("--zzz",), ("-",), ("--b", "1"))),
)


class TestGrammarFuzz:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(argv=_ARGV)
    def test_main_exits_0_2_or_3(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3), argv
        assert "Traceback" not in err.getvalue()
        if code:
            assert err.getvalue().startswith(("error:", "usage:")), argv
        else:
            assert out.getvalue() and not err.getvalue(), argv
        # the same argv to a full stdout: 4 where it wrote, the same code
        # where it failed before writing, and never an exception
        full_err = io.StringIO()
        with redirect_stdout(_FullStdout()), redirect_stderr(full_err):
            full_code = main(argv)
        assert full_code == (4 if code == 0 else code), argv
        if full_code == 4:
            assert full_err.getvalue() == (
                f"error: cannot write the output: {os.strerror(errno.ENOSPC)}\n"
            ), argv


class _FullStdout(io.StringIO):
    """A stdout on a full device: every write fails."""

    def write(self, text: str) -> int:
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def _oracle_fold(argv: list[str]) -> list[str]:
    # the argparse front end this CLI had before its command table: a bare
    # value like -2..3 looks like an option to argparse, so argv was folded
    # into --flag=value form first
    folded = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token in ("--a", "--b", "--bundle") and i + 1 < len(argv):
            folded.append(f"{token}={argv[i + 1]}")
            i += 2
        else:
            folded.append(token)
            i += 1
    return folded


def _oracle_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="veryample",
        description="exact divisor classification on projective bundles over an elliptic curve",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, formats: tuple[str, ...], divisor: bool):
        p = sub.add_parser(name, help=help_text)
        if divisor:
            p.add_argument("--bundle", required=True, help="bundle as r:d,r:d,...")
            p.add_argument("--a", required=True, help="coefficient of T")
            p.add_argument("--b", required=True, help="coefficient of f")
        p.add_argument("--format", choices=formats, default="text")

    add("classify", "very-ampleness verdict for one divisor", ("text", "json"), True)
    add("invariants", "bundle/divisor invariants and all verdicts", ("text", "json"), True)
    add("table", "sweep ranges of a and b", ("text", "csv", "json", "atlas"), True)
    add("rules", "print the rule catalog", ("text", "json"), False)
    return parser


def _argparse_parse(argv):
    """The argparse oracle: its exit code, or (command, bundle, a, b, format)."""
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            ns = _oracle_parser().parse_args(_oracle_fold(list(argv)))
    except SystemExit as exc:
        return exc.code or 0
    return (ns.command, getattr(ns, "bundle", None), getattr(ns, "a", None),
            getattr(ns, "b", None), ns.format)


def _table_parse(argv):
    """The command table's answer, in the oracle's terms."""
    try:
        command, opts = cli._parse(list(argv))
    except cli._BadArgv:
        return 2
    if opts is None:  # help
        return 0
    return (command, opts.get("--bundle"), opts.get("--a"), opts.get("--b"),
            opts["--format"])


class TestParserAgainstArgparse:
    # exit codes and parsed values only: argparse's wording differs across
    # Python versions, and the command table words its own messages
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(argv=_ARGV)
    def test_fuzzed_argv(self, argv):
        assert _table_parse(argv) == _argparse_parse(argv), argv

    @pytest.mark.parametrize("argv", [
        # abbreviations, = values, values that start with '-'
        ("classify", "--form", "json", "--bundle", "2:1", "--a", "1", "--b", "0"),
        ("invariants", "--bun", "2:1", "--a", "1", "--b", "0", "--f=json"),
        ("table", "--bundle=2:1", "--a=1..3", "--b", "-2..3", "--format", "atlas"),
        ("classify", "--bundle", "2:1", "--a", "-1", "--b", "-2"),
        ("classify", "--a", "--b", "--b", "-h", "--bundle", "-x"),
        # repeated flags: the last one wins
        ("classify", "--bundle", "2:1", "--a", "1", "--b", "0", "--bundle", "3:1",
         "--a=2", "--format", "json", "--format", "text"),
        ("table", "--bu", "2:1", "--a", "1", "--b", "0", "--bu=3:1"),
        # help, before or after the command, and after a fault reported late
        ("-h",), ("--help",), ("--he",), ("-h", "nonsense"), ("--zzz", "-h"),
        ("classify", "-h"), ("rules", "--help"), ("classify", "--bundle", "2:1", "--h"),
        ("classify", "--zzz", "-h"), ("classify", "stray", "-h"), ("classify", "-5", "-h"),
        ("classify", "-h", "--format", "yaml"),
        # faults reported at once, even before a later -h
        ("classify", "--format", "yaml", "-h"), ("nonsense", "-h"),
        ("classify", "--bundle", "2:1", "--a", "1", "--b"), ("rules", "--format"),
        ("classify", "--bundle", "2:1", "--a", "1", "--b", "0", "--form"),
        # unknown commands, flags and stray tokens
        (), ("nonsense",), ("tabel", "--bundle", "2:1"), ("-",), ("-", "classify"),
        ("classify", "--bundle", "2:1", "--a", "1", "--b", "0", "-"),
        ("classify", "--bundle", "2:1", "--a", "1", "--b", "0", "-5"),
        ("classify", "---bundle", "2:1", "--a", "1", "--b", "0"),
        ("classify", "classify", "--bundle", "2:1", "--a", "1", "--b", "0"),
        ("--zzz", "classify", "--bundle", "2:1", "--a", "1", "--b", "0"),
        ("rules",), ("rules", "--a", "1"), ("rules", "--f", "json"), ("rules", "--f", "j"),
        ("classify", "--bundle=", "--a", "1", "--b", "0"),
    ], ids=repr)
    def test_hand_cases(self, argv):
        assert _table_parse(argv) == _argparse_parse(argv)

    @pytest.mark.parametrize("argv, expected", [
        # argparse's handling of '--' has changed across Python versions;
        # the command table takes no '--' anywhere
        (("classify", "--bundle", "2:1", "--a", "1", "--b", "0", "--"), 2),
        (("classify", "--", "--bundle", "2:1", "--a", "1", "--b", "0"), 2),
        (("--", "classify"), 2),
        # help takes no value, as in argparse
        (("classify", "-hx"), 2),
        (("classify", "--help=1"), 2),
        (("classify", "--help=1", "-h"), 2),
        # the argparse front end folded `--a 1` into one unknown token before
        # the command, so the -h won; here `1` is read as the command
        (("--a", "1", "-h"), 2),
        # argparse refused a dash value after an abbreviated flag; here a
        # flag's value is the next token, and the bundle fails to parse
        (("classify", "--bun", "-h", "--a", "1", "--b", "0"),
         ("classify", "-h", "1", "0", "text")),
    ], ids=repr)
    def test_pinned_cases(self, capsys, argv, expected):
        assert _table_parse(argv) == expected
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(("usage: veryample", "error:"))


class TestTable:
    def test_csv_contract(self, capsys):
        code, out, _ = run(capsys, "table", "--bundle", "2:1", "--a", "2..3",
                           "--b", "0..1", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "a,b,status,strength,binding_rule,slope_invariant"
        assert len(lines) == 5
        assert "2,1,VeryAmple,iff,R-RK2-INDEC,2" in lines
        assert "2,0,NotVeryAmple,iff,R-RK2-INDEC,1" in lines

    def test_json_rows(self, capsys):
        code, out, _ = run(capsys, "table", "--bundle", "1:2,2:3", "--a", "2",
                           "--b", "-1..0", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        rows = {row["b"]: row for row in payload["rows"]}
        assert rows[-1]["status"] == "Unknown"
        assert rows[-1]["strength"] is None
        assert rows[-1]["slope_invariant"] == {"num": 2, "den": 1}
        assert rows[0]["status"] == "VeryAmple"

    def test_text_placeholder_for_unknown(self, capsys):
        code, out, _ = run(capsys, "table", "--bundle", "1:2,2:3", "--a", "2",
                           "--b", "-1..-1")
        assert code == 0
        row = out.splitlines()[-1]
        assert "Unknown" in row and "-" in row

    def test_every_format_agrees_with_the_library(self, capsys):
        # differential gate: every row of every format carries the library
        # verdict's status, strength, binding rule and slope invariant
        for bundle in ("2:1", "3:4", "1:2,2:3"):
            E = parse_bundle(bundle)
            expected = []
            for a in range(0, 5):
                for b in range(-5, 6):
                    v = classify_very_ample(E, Divisor(a, b))
                    strength = v.strength.value if v.strength else None
                    expected.append(
                        (a, b, v.status, strength, v.binding_rule, v.slope_invariant)
                    )
            argv = ("table", "--bundle", bundle, "--a", "0..4", "--b", "-5..5")

            code, out, _ = run(capsys, *argv, "--format", "csv")
            assert code == 0
            csv_rows = [
                (int(a), int(b), status, strength or None, binding or None, Fraction(s))
                for a, b, status, strength, binding, s in csv.reader(out.splitlines()[1:])
            ]

            code, out, _ = run(capsys, *argv, "--format", "json")
            assert code == 0
            json_rows = [
                (row["a"], row["b"], row["status"], row["strength"], row["binding_rule"],
                 Fraction(row["slope_invariant"]["num"], row["slope_invariant"]["den"]))
                for row in json.loads(out)["rows"]
            ]

            code, out, _ = run(capsys, *argv, "--format", "text")
            assert code == 0
            lines = out.splitlines()
            assert lines[1].split() == [
                "a", "b", "status", "strength", "binding_rule", "slope_invariant",
            ]
            text_rows = [
                (int(a), int(b), status, None if strength == "-" else strength,
                 None if binding == "-" else binding, Fraction(s))
                for a, b, status, strength, binding, s in (line.split() for line in lines[2:])
            ]

            # the atlas carries the status only, one mark per (a, b)
            code, out, _ = run(capsys, *argv, "--format", "atlas")
            assert code == 0
            a_labels = [int(a) for a in out.splitlines()[1].split("a=")[1].split()]
            atlas_rows = [line[len("  b="):].split() for line in out.splitlines()[2:]]
            marks = {(a, int(b)): m for b, *row in atlas_rows
                     for a, m in zip(a_labels, row, strict=True)}

            assert len(expected) == 55
            assert csv_rows == expected, bundle
            assert json_rows == expected, bundle
            assert text_rows == expected, bundle
            assert [int(b) for b, *_ in atlas_rows] == list(range(5, -6, -1)), bundle
            mark = {"VeryAmple": "Y", "NotVeryAmple": ".", "Unknown": "?"}
            assert marks == {(a, b): mark[status] for a, b, status, *_ in expected}, bundle

    # sha256 of five atlas panels, a 1..5 x b -4..3, each followed by a
    # blank line
    ATLAS_DIGEST = "a15ae298e81cc00d177cfa98721dcf9a0ff1b51b5b6c41973632f934957f9e52"

    def test_atlas_output_is_pinned(self, capsys):
        out = ""
        for bundle in ("2:1", "2:0", "3:2", "1:2,2:3", "1:0,1:1,2:1"):
            code, panel, _ = run(capsys, "table", "--bundle", bundle, "--a", "1..5",
                                 "--b", "-4..3", "--format", "atlas")
            assert code == 0
            out += panel + "\n"
        assert out.count("E = ") == 5
        assert "?" in out  # the open strip of 3:2 and of the exception family
        assert hashlib.sha256(out.encode()).hexdigest() == self.ATLAS_DIGEST

    def test_atlas_marks_sit_under_their_labels(self, capsys):
        # a two-digit a label right-aligns its mark; a five-character b
        # label widens the label column and the header with it
        code, out, _ = run(capsys, "table", "--bundle", "3:2", "--a", "8..12",
                           "--b", "-1003..-1000", "--format", "atlas")
        assert code == 0
        assert out.splitlines()[1:3] == ["        a=8 9 10 11 12",
                                         "  b=-1000 . .  .  .  ."]
        assert len(set(map(len, out.splitlines()[1:]))) == 1


class TestRules:
    def test_catalog_counts(self, capsys):
        code, out, _ = run(capsys, "rules")
        assert code == 0
        assert "very_ample: 18 rules" in out
        assert "ample: 1 rules" in out
        assert "globally_generated: 2 rules" in out
        assert "normally_generated: 1 rules" in out
        assert "R-D0MODR" in out
        assert "R-BUTLER" in out

    def test_json_catalog(self, capsys):
        code, out, _ = run(capsys, "rules", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 22
        ids = [entry["rule_id"] for entry in payload]
        assert len(set(ids)) == 22
        butler = next(e for e in payload if e["rule_id"] == "R-BUTLER")
        assert "> 2" in butler["condition"]
        d0 = next(e for e in payload if e["rule_id"] == "R-D0MODR")
        assert ">= 3" in d0["condition"]
        assert d0["strength"] == "iff"

    # sha256 of `veryample rules` in each format, byte for byte: a change to
    # any row's guard, condition, strength or citation text shows here
    RULES_DIGESTS = {
        "text": "b7cda6289a2c1db62aee208c8e839d850ee0872f8439d6af343dacf200db446f",
        "json": "4a19e731b902dcd8e3d2f77de8e8d203238d13a3aeb5b047c6c57a1147bf683a",
    }

    @pytest.mark.parametrize("fmt", sorted(RULES_DIGESTS))
    def test_output_is_pinned(self, capsys, fmt):
        code, out, _ = run(capsys, "rules", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.RULES_DIGESTS[fmt]


def test_import_leaves_the_process_pool_out():
    # every command, table included, runs in the one CLI process, so no
    # process should pay to import concurrent.futures
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, veryample.cli; print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_import_loads_neither_dataclasses_nor_inspect():
    # every CLI process pays for what `import veryample.cli` loads; pytest
    # and hypothesis import these modules themselves, so a fresh interpreter
    # is asked what the import adds.  json and csv are imported only by the
    # commands that print them, and argv is parsed without argparse, which
    # also pulls in gettext
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; before = set(sys.modules); import veryample.cli; "
         "print(sorted({'dataclasses', 'inspect', 'json', 'csv', 'argparse', "
         "'gettext'} "
         "& (set(sys.modules) - before)))"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_compiles_no_catalog_row():
    # the catalog's rows compile on first use: the import evaluates no
    # source of a function of the cell, while a classification does
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    spy = (
        "import builtins\n"
        "seen, real = [], builtins.eval\n"
        "def spy(source, *args):\n"
        "    seen.append(source if isinstance(source, str) else '')\n"
        "    return real(source, *args)\n"
        "builtins.eval = spy\n"
        "import veryample.cli\n"
        "at_import = list(seen)\n"
        "veryample.cli.main(['classify', '--bundle', '2:1', '--a', '2', '--b', '1'])\n"
        "row = 'lambda a, b, sn, sd, E:'\n"
        "print(sum(row in s for s in at_import), "
        "any('lambda E:' in s for s in at_import), "
        "sum(row in s for s in seen[len(at_import):]) > 0)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", spy], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    # the last line: rows compiled at import, the spy saw rules.admits, and
    # the classification compiled rows
    assert proc.stdout.splitlines()[-1] == "0 True True"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "veryample.cli", "classify", "--bundle", "2:1",
         "--a", "2", "--b", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "VeryAmple" in proc.stdout


class TestClosedOutput:
    # a 3,240-row table is far more than a pipe buffer holds
    TABLE = [sys.executable, "-m", "veryample.cli", "table", "--bundle", "2:1",
             "--a", "1..40", "--b", "-40..40"]

    def test_closed_pipe_exits_4_quietly(self):
        proc = subprocess.Popen(self.TABLE, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        assert proc.stdout.readline().startswith(b"bundle: 2:1")
        proc.stdout.close()  # as `| head -1` does
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 4
        assert err == ""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device_exits_4_with_one_error_line(self):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(self.TABLE, stdout=full, stderr=subprocess.PIPE,
                                  text=True, timeout=60)
        assert proc.returncode == 4
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: cannot write the output")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_help_to_a_full_device_exits_4(self):
        # help goes to stdout like any output, so a full device fails it
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "veryample.cli", "--help"],
                stdout=full, stderr=subprocess.PIPE, text=True, timeout=60,
            )
        assert proc.returncode == 4
        assert proc.stderr.startswith("error: cannot write the output")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [
        ("tabel",),
        ("classify", "--bundle", "2:1", "--a", "1"),
        ("classify", "--bundle", "2:1", "--a", "1", "--b", "0", "--format", "yaml"),
    ], ids=["command", "missing-b", "format"])
    def test_usage_error_to_a_full_device_exits_2(self, argv):
        # a usage error writes nothing to stdout, so a full one cannot fail;
        # in-process fakes and a closed pipe miss this, a real device does not
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "veryample.cli", *argv],
                stdout=full, stderr=subprocess.PIPE, text=True, timeout=60,
            )
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage:")
        assert "cannot write" not in proc.stderr


def test_readme_commands_run(capsys):
    # every veryample line of the README's sh blocks exits 0 with output,
    # and every `python <path>` line names a file of this checkout
    with open(README, encoding="utf-8") as f:
        blocks = re.findall(r"```sh\n(.*?)```", f.read(), re.S)
    lines = [shlex.split(line, comments=True) for block in blocks
             for line in block.splitlines()]
    commands = [argv[1:] for argv in lines if argv[:1] == ["veryample"]]
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert code == 0 and out, (argv, err)
    for argv in lines:
        if argv[:1] in (["python"], ["python3"]) and argv[1:2] and argv[1][0] != "-":
            assert os.path.isfile(os.path.join(os.path.dirname(README), argv[1])), argv
    assert len(commands) >= 5


def test_readme_library_block_runs():
    # the README's python block runs, and each line it comments with a value
    # evaluates to that value's repr
    with open(README, encoding="utf-8") as f:
        block, = re.findall(r"```python\n(.*?)```", f.read(), re.S)
    namespace, shown = {}, []
    for line in block.splitlines():
        code, _, value = line.partition("#")
        if value:
            shown.append(value.strip())
            assert repr(eval(code, namespace)) == shown[-1], line
        else:
            exec(code, namespace)
    assert shown == ["'Unknown'", "'(0, 2]'", "Fraction(2, 1)"]
