"""Command line surface: formats, exit codes, parallel determinism."""

from __future__ import annotations

import json
import subprocess
import sys
import time

import pytest

from veryample import Divisor, classify_very_ample, parse_bundle
from veryample.cli import main


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

    def test_argparse_failures_map_to_2(self, capsys):
        assert run(capsys, "nonsense")[0] == 2
        assert run(capsys, "classify", "--bundle", "2:1", "--a", "1")[0] == 2
        assert run(capsys, "classify", "--bundle", "2:1", "--a", "1",
                   "--b", "0", "--format", "yaml")[0] == 2

    def test_help_is_0(self, capsys):
        assert run(capsys, "--help")[0] == 0


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

    def test_parallel_and_sequential_agree(self, capsys, monkeypatch):
        argv = ("table", "--bundle", "2:1", "--a", "1..8", "--b", "-3..4",
                "--format", "csv")
        monkeypatch.setenv("VERYAMPLE_NO_PARALLEL", "1")
        _, sequential, _ = run(capsys, *argv)
        monkeypatch.delenv("VERYAMPLE_NO_PARALLEL")
        _, parallel, _ = run(capsys, *argv)
        assert len(sequential.splitlines()) == 65
        assert parallel == sequential


class TestRules:
    def test_catalog_counts(self, capsys):
        code, out, _ = run(capsys, "rules")
        assert code == 0
        assert "very_ample: 20 rules" in out
        assert "ample: 1 rules" in out
        assert "globally_generated: 2 rules" in out
        assert "normally_generated: 1 rules" in out
        assert "R-D0MODR" in out
        assert "R-BUTLER" in out

    def test_json_catalog(self, capsys):
        code, out, _ = run(capsys, "rules", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 24
        ids = [entry["rule_id"] for entry in payload]
        assert len(set(ids)) == 24
        butler = next(e for e in payload if e["rule_id"] == "R-BUTLER")
        assert "> 2" in butler["condition"]
        d0 = next(e for e in payload if e["rule_id"] == "R-D0MODR")
        assert ">= 3" in d0["condition"]
        assert d0["strength"] == "iff"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "veryample.cli", "classify", "--bundle", "2:1",
         "--a", "2", "--b", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "VeryAmple" in proc.stdout
