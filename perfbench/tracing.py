"""Spans around the calls into each layer of veryample, recorded from the
benchmark's own files: the program's source is not changed.

Each wrapper is installed where the name is looked up, not where it is
defined: `cli` imports `parse_bundle`, `classify_very_ample`, `h0_divisor`
and friends by name, `rules` imports `sym_power_split` by name, and `engine`
looks up `canonical_frames` and `_quotient_firings` in its own globals.
`Rule.evaluate`, `Comparison.render` and `Verdict.to_json_dict` are patched
on the class.

A span is (name, op, parent, start, end); spans are kept in flat arrays in
memory, written out once at the end, and self times are derived from them.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

SPAN_NAMES = (
    "cli.main",
    "bundles.parse",
    "engine.classify",
    "engine.gg_ng",
    "engine.frames",
    "engine.quotient",
    "rules.evaluate",
    "atiyah.sym_power_split",
    "verdicts.render",
    "verdicts.to_json",
    "chow.h0",
    "chow.divisor_degree",
)
OUTCOMES = ("yes", "no", "pass", "insufficient", "inapplicable")
# The catalog ids the metrics are named after.  A span of a rule id not in
# this list is recorded without a rule and counted in no rules.<id> figure.
RULE_IDS = (
    "R-FIBER", "R-MIYAOKA", "R-BUTLER", "R-MU3", "R-SPLITPUSH", "R-D0MODR",
    "R-A1-INDEC", "R-A1-DEC", "R-RK2-INDEC", "R-RK2-DEC", "R-RK3-INDEC",
    "R-RK3-DEC", "R-RK3-DEC-NEC", "R-R4D3", "R-D3ANYR", "R-D2-INDEC",
    "R-D2-DEC", "R-D1-INDEC", "R-DGE4", "R-RD1", "R-QUOT-NEC", "R-AMPLE",
    "R-GG-A1", "R-GG-SLOPE", "R-NG-BUTLER",
)
# R-AMPLE is printed by `veryample rules` but never evaluated (classify_ample
# computes the same inequality inline), so it has no time to report.
UNTIMED_RULES = ("R-AMPLE",)


class Tracer:
    """Flat span store.  Rule.evaluate spans also record the rule id."""

    def __init__(self) -> None:
        self.name = array("H")  # index into SPAN_NAMES
        self.rule = array("h")  # index into RULE_IDS, -1 for other spans
        self.op = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.current_op = -1
        self.verdicts: list = []  # counted by end_op, outside every span
        self.binds: Counter = Counter()
        self.outcomes: Counter = Counter()

    def span(self, name: str, fn, rule_of=None, on_result=None):
        nid = SPAN_NAMES.index(name)
        rule_index = {rid: i for i, rid in enumerate(RULE_IDS)}
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.rule.append(rule_index.get(rule_of(args), -1) if rule_of else -1)
            self.op.append(self.current_op)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def end_op(self) -> None:
        """Count the bindings and firing outcomes of the verdicts the last
        operation returned."""
        for verdict in self.verdicts:
            if verdict.binding_rule:
                self.binds[verdict.binding_rule] += 1
            for firing in verdict.firings:
                self.outcomes[firing.outcome.value] += 1
        self.verdicts.clear()

    def write(self, path: Path) -> None:
        """One span a line: id, op, parent id, name, rule id, and start and
        end in microseconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if self.start else 0.0
        with path.open("w") as out:
            out.write("id\top\tparent\tname\trule\tstart_us\tend_us\n")
            for i in range(len(self.start)):
                rule = RULE_IDS[self.rule[i]] if self.rule[i] >= 0 else ""
                out.write(
                    f"{i}\t{self.op[i]}\t{self.parent[i]}\t{SPAN_NAMES[self.name[i]]}\t{rule}\t"
                    f"{(self.start[i] - t0) * 1e6:.3f}\t{(self.end[i] - t0) * 1e6:.3f}\n"
                )


@contextmanager
def installed(tracer: Tracer, va):
    """Install every wrapper on the imported package `va`; restore on exit."""
    cli, engine, rules, bundles, verdicts = va.cli, va.engine, va.rules, va.bundles, va.verdicts
    count = tracer.verdicts.append
    patches = [
        (cli, "main", "cli.main", None, None),
        (cli, "parse_bundle", "bundles.parse", None, None),
        (bundles, "parse_bundle", "bundles.parse", None, None),
        (cli, "classify_very_ample", "engine.classify", None, count),
        (engine, "classify_very_ample", "engine.classify", None, count),
        (cli, "classify_globally_generated", "engine.gg_ng", None, count),
        (cli, "classify_normally_generated", "engine.gg_ng", None, count),
        (engine, "canonical_frames", "engine.frames", None, None),
        (engine, "_quotient_firings", "engine.quotient", None, None),
        (rules.Rule, "evaluate", "rules.evaluate", lambda args: args[0].rule_id, None),
        (rules, "sym_power_split", "atiyah.sym_power_split", None, None),
        (verdicts.Comparison, "render", "verdicts.render", None, None),
        (verdicts.Verdict, "to_json_dict", "verdicts.to_json", None, None),
        (cli, "h0_divisor", "chow.h0", None, None),
        (cli, "divisor_degree", "chow.divisor_degree", None, None),
    ]
    saved = []
    try:
        for owner, attr, name, rule_of, on_result in patches:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.span(name, original, rule_of, on_result))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-layer figures from the spans.  Times are milliseconds per
    operation; counts are totals over the traced operations."""
    t = tracer
    n = len(t.start)
    nid = {name: i for i, name in enumerate(SPAN_NAMES)}
    classify, quotient, evaluate = nid["engine.classify"], nid["engine.quotient"], nid["rules.evaluate"]
    engine_ids = {nid["engine.classify"], nid["engine.frames"], quotient}

    dur = [t.end[i] - t.start[i] for i in range(n)]
    child = [0.0] * n
    under_classify = [False] * n
    for i in range(n):
        p = t.parent[i]
        if p >= 0:
            child[p] += dur[i]
        under_classify[i] = t.name[i] == classify or (p >= 0 and under_classify[p])

    total = Counter()  # inclusive seconds by span name
    self_time = Counter()  # self seconds by span name
    calls = Counter()
    rule_ms = Counter()
    frames_in_classify = evaluate_in_classify = 0
    engine_self_in_classify = 0.0
    for i in range(n):
        k = t.name[i]
        total[k] += dur[i]
        self_time[k] += dur[i] - child[i]
        calls[k] += 1
        if under_classify[i]:
            if k == nid["engine.frames"]:
                frames_in_classify += 1
            elif k == evaluate:
                evaluate_in_classify += 1
            if k in engine_ids:
                engine_self_in_classify += dur[i] - child[i]
        if k == evaluate and t.rule[i] >= 0 and (t.parent[i] < 0 or t.name[t.parent[i]] != quotient):
            rule_ms[RULE_IDS[t.rule[i]]] += dur[i]
        elif k == quotient:
            rule_ms["R-QUOT-NEC"] += dur[i]

    def per_op_ms(seconds: float) -> float:
        return 1e3 * seconds / ops

    classify_calls = calls[classify]
    cells = max(classify_calls, 1)
    m = {
        "cli.main_self_ms": per_op_ms(self_time[nid["cli.main"]]),
        "bundles.parse_calls": calls[nid["bundles.parse"]],
        "bundles.parse_ms": per_op_ms(total[nid["bundles.parse"]]),
        "engine.classify_calls": classify_calls,
        "engine.classify_self_ms": per_op_ms(engine_self_in_classify),
        "engine.frames_per_cell": frames_in_classify / cells,
        "engine.gg_ng_ms": per_op_ms(total[nid["engine.gg_ng"]]),
        "rules.evaluate_per_cell": evaluate_in_classify / cells,
        "rules.evaluate_self_ms": per_op_ms(self_time[evaluate]),
        "atiyah.sym_power_split_calls": calls[nid["atiyah.sym_power_split"]],
        "atiyah.sym_power_split_ms": per_op_ms(total[nid["atiyah.sym_power_split"]]),
        "verdicts.render_calls": calls[nid["verdicts.render"]],
        "verdicts.render_ms": per_op_ms(total[nid["verdicts.render"]]),
        "verdicts.to_json_ms": per_op_ms(total[nid["verdicts.to_json"]]),
        "chow.h0_ms": per_op_ms(total[nid["chow.h0"]]),
        "chow.divisor_degree_ms": per_op_ms(total[nid["chow.divisor_degree"]]),
    }
    for rid in RULE_IDS:
        if rid not in UNTIMED_RULES:
            m[f"rules.{rid}.ms"] = per_op_ms(rule_ms[rid])
        m[f"rules.binds.{rid}"] = t.binds[rid]
    for outcome in OUTCOMES:
        m[f"rules.outcome.{outcome}"] = t.outcomes[outcome]
    return m


def unit_of(name: str) -> str:
    if name.endswith(("_ms", ".ms")):
        return "ms"
    if name.endswith("_per_s"):
        return "cells/s"
    if name.endswith("_per_cell"):
        return "calls/cell"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"
