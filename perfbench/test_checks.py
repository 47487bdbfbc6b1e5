"""Tests of the benchmark itself: the checker must flag corrupted output,
and a traced run must emit every per-layer metric BENCHMARK.json names.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stdout
from dataclasses import replace
from fractions import Fraction

import pytest

import checks
import hostspeed
import run
import workloads

sys.path.insert(0, str(run.SRC))
import veryample as va  # noqa: E402
import veryample.cli  # noqa: E402,F401


def cli_output(argv: list[str]) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert va.cli.main(argv) == 0
    return out.getvalue()


def table_op(fmt: str) -> tuple[workloads.Op, str]:
    cells = tuple((a, b) for a in (2, 3) for b in range(-3, 4))
    op = workloads._cli_op("table", "table", fmt, "2:1", "2..3", "-3..3", cells)
    return op, cli_output(list(op.argv))


def problems(op: workloads.Op, out: str) -> list[str]:
    return run.check_op(va, op, 0, out, random.Random(0))


@pytest.mark.parametrize("fmt", workloads.TABLE_FORMATS)
def test_table_output_passes(fmt):
    op, out = table_op(fmt)
    assert problems(op, out) == []


@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_corrupted_table_row_is_flagged(fmt):
    op, out = table_op(fmt)
    lines = out.splitlines()
    # a = 2, b = 0 on the odd rank-2 bundle: s = 1, so NotVeryAmple (iff)
    row = next(i for i, line in enumerate(lines) if line.replace(",", " ").split()[:2] == ["2", "0"])
    assert "NotVeryAmple" in lines[row]
    lines[row] = lines[row].replace("NotVeryAmple", "VeryAmple")
    assert problems(op, "\n".join(lines) + "\n")


def test_missing_table_row_is_flagged():
    op, out = table_op("csv")
    assert problems(op, "".join(out.splitlines(keepends=True)[:-1]))


def test_corrupted_json_verdict_is_flagged():
    op = workloads._cli_op("oneshot", "classify", "json", "1:2,2:3", "2", "-2", ((2, -2),))
    payload = json.loads(cli_output(list(op.argv)))
    assert problems(op, json.dumps(payload)) == []
    payload["verdict"]["binding_rule"] = "R-MIYAOKA"
    assert problems(op, json.dumps(payload))


def test_corrupted_invariants_degree_is_flagged():
    op = workloads._cli_op("oneshot", "invariants", "text", "3:4", "2", "-1", ((2, -1),))
    out = cli_output(list(op.argv))
    assert "divisor degree: 20" in out
    assert problems(op, out) == []
    assert problems(op, out.replace("divisor degree: 20", "divisor degree: 21"))


def test_wrong_exit_code_is_flagged():
    op = workloads._cli_op("oneshot", "classify", "text", "1:3", "2", "0", (), 3)
    assert run.check_op(va, op, 3, "", random.Random(0)) == []
    assert run.check_op(va, op, 0, "", random.Random(0))


def test_closed_forms_reject_a_wrong_verdict():
    good = checks.library_cell(va, "3:4", 2, -1)
    assert checks.closed_form_problems(good) == []
    assert checks.closed_form_problems(replace(good, status="NotVeryAmple"))
    assert checks.closed_form_problems(replace(good, s=good.s + Fraction(1, 3)))


def test_twist_check_rejects_a_wrong_binding_rule():
    cell = checks.library_cell(va, "1:2,2:3", 2, -2)
    assert checks.twist_problems(va, cell, 1) == []
    assert checks.twist_problems(va, replace(cell, binding="R-MIYAOKA"), 1)


def test_digest_moves_with_any_field():
    cells = [checks.library_cell(va, "2:1", 2, b) for b in range(-3, 4)]
    base = checks.digest(cells)
    assert checks.digest(cells) == base
    cells[3] = replace(cells[3], strength="sufficient")
    assert checks.digest(cells) != base


def test_recorded_digests_match():
    for workload in workloads.WORKLOADS:
        assert run.reference_digest(va, workload) == checks.recorded_digest(workload)


def test_traced_run_emits_every_per_layer_metric(monkeypatch):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setitem(run.TRACED_CYCLES, "oneshot", 1)
    monkeypatch.setattr(run, "TRACE_DIR", run.TRACE_DIR / "test")
    result = run.traced_run(va, "oneshot", 1, run.child_env())
    assert result["correct"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in spec["per_layer"]}


def test_host_speed_scaling():
    points = iter([0.01, 0.03])
    track = hostspeed.Track(lambda: next(points), 0.005, 60)
    track.tick()  # too soon after the first point
    assert track.segment == 0
    track.tick(force=True)
    assert track.segment == 1
    assert track.factor(0) == pytest.approx(0.005 / 0.02)
    assert track.factor(1) == pytest.approx(0.005 / 0.03)
    assert track.speeds() == pytest.approx([0.5, 0.25, 0.5 / 3])
