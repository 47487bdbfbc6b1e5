"""Command line front end.

    veryample classify   --bundle 3:4 --a 2 --b -1 [--format text|json]
    veryample invariants --bundle 3:4 --a 2 --b -1 [--format text|json]
    veryample table      --bundle 2:1 --a 2..6 --b -3..3 [--format text|csv|json|atlas]
    veryample rules      [--format text|json]

Bundles use the r:d,r:d,... grammar; table accepts lo..hi ranges (inclusive)
for --a and --b, and its atlas format is a Y/./? panel of the statuses, a
across and b descending.  Exit codes: 0 success, 2 parse or usage errors, 3
domain errors (e.g. classification on a rank-1 bundle), 4 when stdout is
closed or full.  A closed pipe (`| head`) exits 4 quietly; any other write error
prints one `error:` line first.  Rationals render as p/q in text and csv,
and as {"num": p, "den": q} in json.

Input caps, checked before any computation: |a|, |b| (both ends of a range)
and every atom's |degree| are at most 10^6, and the bundle's total rank is
at most 64.  A table has at most 10^5 cells, and its cells times the
bundle's distinct atoms are at most 2^18: a cell's quotient screen visits
at most one sub-sum per distinct atom (engine.py), so that product bounds
a table's screening work.  A value past a cap exits 2.  Under the caps
every integer the CLI prints stays within a few hundred digits.

argparse quirk: a bare value like -2..3 looks like an option, so argv is
pre-folded into --flag=value form before parsing.
"""

from __future__ import annotations

# json and csv are imported by the branches that print them, so that the
# other outputs do not pay for the imports at start-up
import argparse
import io
import os
import re
import sys
from contextlib import redirect_stdout
from typing import Optional, Sequence

from .bundles import Bundle, BundleParseError, parse_bundle
from .chow import divisor_degree, h0_divisor
from .engine import (
    Divisor,
    classify_ample,
    classify_globally_generated,
    classify_normally_generated,
    classify_very_ample,
)
from .errors import DomainError, H0UndefinedError
from .rules import ALL_RULES, CATALOGS, RULES_BY_ID
from .verdicts import Verdict, frac_json, frac_text

__all__ = ["main"]

_MAX_ABS_INT = 10**6  # |a|, |b| and every atom's |degree|
_MAX_RANK = 64  # total rank of the bundle
_MAX_CELLS = 10**5  # cells of one table
_MAX_TABLE_SCREEN = 2**18  # a table's cells times its bundle's distinct atoms
_FOLD_FLAGS = ("--a", "--b", "--bundle")
# ASCII digits only, matched whole: \d takes any Unicode digit and $ a
# trailing newline
_INT_RE = re.compile(r"-?[0-9]+")
_RANGE_RE = re.compile(r"(-?[0-9]+)\.\.(-?[0-9]+)")


class UsageError(Exception):
    """Bad flag values: maps to exit code 2."""


def _fold_flag_values(argv: list[str]) -> list[str]:
    folded = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token in _FOLD_FLAGS and i + 1 < len(argv):
            folded.append(f"{token}={argv[i + 1]}")
            i += 2
        else:
            folded.append(token)
            i += 1
    return folded


def _shown(value: int) -> str:
    digits = len(str(abs(value)))
    return str(value) if digits <= 20 else f"an integer of {digits} digits"


def _to_int(flag: str, text: str) -> int:
    try:
        value = int(text)
    except ValueError:  # past the interpreter's int-string digit limit
        digits = len(text.lstrip("-"))
        raise UsageError(f"{flag}: integer of {digits} digits is too long") from None
    if abs(value) > _MAX_ABS_INT:
        raise UsageError(
            f"{flag}: {_shown(value)} is past the cap |value| <= {_MAX_ABS_INT}"
        )
    return value


def _capped_bundle(text: str) -> Bundle:
    E = parse_bundle(text)
    if E.rank > _MAX_RANK:
        raise UsageError(
            f"--bundle: total rank {_shown(E.rank)} is past the cap rank <= {_MAX_RANK}"
        )
    for atom in E.atoms:
        if abs(atom.degree) > _MAX_ABS_INT:
            raise UsageError(
                f"--bundle: atom degree {_shown(atom.degree)} is past the cap "
                f"|degree| <= {_MAX_ABS_INT}"
            )
    return E


def _single_int(flag: str, text: str) -> int:
    if _INT_RE.fullmatch(text):
        return _to_int(flag, text)
    if _RANGE_RE.fullmatch(text):
        raise UsageError(
            f"{flag} takes a single integer here; lo..hi ranges only work with 'table'"
        )
    raise UsageError(f"{flag} expects an integer, got {text!r}")


def _int_range(flag: str, text: str) -> range:
    if _INT_RE.fullmatch(text):
        v = _to_int(flag, text)
        return range(v, v + 1)
    m = _RANGE_RE.fullmatch(text)
    if m is None:
        raise UsageError(f"{flag} expects an integer or lo..hi, got {text!r}")
    lo, hi = _to_int(flag, m.group(1)), _to_int(flag, m.group(2))
    if lo > hi:
        raise UsageError(f"{flag}: empty range {text!r}")
    return range(lo, hi + 1)


# -- classify ----------------------------------------------------------------

def _verdict_headline(v: Verdict) -> str:
    if v.is_unknown:
        return f"{v.status} (open window {v.unknown_window.render()})"
    extra = f" ({v.strength.value}, {v.binding_rule})" if v.binding_rule else ""
    return f"{v.status}{extra}"


def _print_firings(v: Verdict) -> None:
    print("firings:")
    width = max(len(f.rule_id) for f in v.firings)
    for f in v.firings:
        print(
            f"  {f.rule_id:<{width}}  frame {f.frame:>2}  "
            f"{f.outcome.value:<12}  {f.condition}"
        )


def cmd_classify(ns: argparse.Namespace) -> int:
    E = _capped_bundle(ns.bundle)
    D = Divisor(_single_int("--a", ns.a), _single_int("--b", ns.b))
    verdict = classify_very_ample(E, D)
    if ns.format == "json":
        import json

        payload = {
            "bundle": str(E),
            "rank": E.rank,
            "degree": E.degree,
            "divisor": {"a": D.a, "b": D.b},
            "verdict": verdict.to_json_dict(),
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"bundle: {E} (rank {E.rank}, degree {E.degree})")
    print(f"divisor: {D}")
    print(f"slope invariant b + a*mu^-(E): {frac_text(verdict.slope_invariant)}")
    print(f"status: {verdict.status}")
    if verdict.binding_rule is not None:
        rule = RULES_BY_ID[verdict.binding_rule]
        print(f"strength: {verdict.strength.value}")
        print(f"binding rule: {rule.rule_id} ({rule.citation})")
        print(f"  anchor: {rule.statement}")
    if verdict.is_unknown:
        print(
            "unknown window: b + a*mu^-(E) in "
            f"{verdict.unknown_window.render()}"
        )
        print(f"unknown reason: {verdict.unknown_reason}")
    _print_firings(verdict)
    return 0


# -- invariants ----------------------------------------------------------------

def cmd_invariants(ns: argparse.Namespace) -> int:
    E = _capped_bundle(ns.bundle)
    D = Divisor(_single_int("--a", ns.a), _single_int("--b", ns.b))
    va = classify_very_ample(E, D)  # also validates rank >= 2
    amp = classify_ample(E, D)
    verdicts: dict[str, Optional[Verdict]] = {}
    for name, fn in (
        ("globally generated", classify_globally_generated),
        ("normally generated", classify_normally_generated),
    ):
        try:
            verdicts[name] = fn(E, D)
        except DomainError:
            verdicts[name] = None
    degree = divisor_degree(E, D.a, D.b)
    try:
        h0: Optional[int] = h0_divisor(E, D.a, D.b)
    except H0UndefinedError:
        h0 = None

    if ns.format == "json":
        import json

        payload = {
            "bundle": str(E),
            "rank": E.rank,
            "degree": E.degree,
            "mu": frac_json(E.slope),
            "mu_minus": frac_json(E.mu_minus),
            "mu_plus": frac_json(E.mu_plus),
            "semistable": E.is_semistable,
            "bundle_ample": E.is_ample,
            "hn_stages": [
                {
                    "slope": frac_json(stage.slope),
                    "atoms": [str(atom) for atom in stage.atoms],
                }
                for stage in E.hn_filtration()
            ],
            "divisor": {"a": D.a, "b": D.b},
            "slope_invariant": frac_json(va.slope_invariant),
            "divisor_degree": degree,
            "h0": h0,
            "ambient_dimension": None if h0 is None else h0 - 1,
            "ample": "Yes" if amp else "No",
            "globally_generated": _verdict_summary_json(verdicts["globally generated"]),
            "normally_generated": _verdict_summary_json(verdicts["normally generated"]),
            "very_ample": _verdict_summary_json(va),
        }
        print(json.dumps(payload, indent=2))
        return 0

    print(f"bundle: {E}")
    print(f"rank: {E.rank}")
    print(f"degree: {E.degree}")
    print(f"mu(E): {frac_text(E.slope)}")
    print(f"mu^-(E): {frac_text(E.mu_minus)}")
    print(f"mu^+(E): {frac_text(E.mu_plus)}")
    print(f"semistable: {'yes' if E.is_semistable else 'no'}")
    print(f"bundle ample: {'yes' if E.is_ample else 'no'}")
    stages = "; ".join(
        f"slope {frac_text(stage.slope)}: "
        + "+".join(str(atom) for atom in stage.atoms)
        for stage in E.hn_filtration()
    )
    print(f"HN stages: {stages}")
    print(f"divisor: {D}")
    print(f"slope invariant b + a*mu^-(E): {frac_text(va.slope_invariant)}")
    print(f"divisor degree: {degree}")
    if h0 is None:
        print("h^0: undefined (needs a >= 1 and b + a*mu^-(E) > 0)")
        print("ambient dimension: n/a")
    else:
        print(f"h^0: {h0}")
        print(f"ambient dimension: {h0 - 1}")
    print(f"ample: {'Yes' if amp else 'No'}")
    for name in ("globally generated", "normally generated"):
        v = verdicts[name]
        line = "n/a (needs a >= 1)" if v is None else _verdict_headline(v)
        print(f"{name}: {line}")
    print(f"very ample: {_verdict_headline(va)}")
    return 0


def _verdict_summary_json(v: Optional[Verdict]) -> Optional[dict]:
    if v is None:
        return None
    return {
        "status": v.status,
        "strength": v.strength.value if v.strength else None,
        "binding_rule": v.binding_rule,
        "unknown_window": v.unknown_window.to_json_dict() if v.unknown_window else None,
        "unknown_reason": v.unknown_reason,
    }


# -- table ---------------------------------------------------------------------

def cmd_table(ns: argparse.Namespace) -> int:
    E = _capped_bundle(ns.bundle)
    a_range = _int_range("--a", ns.a)
    b_range = _int_range("--b", ns.b)
    cells = len(a_range) * len(b_range)
    if cells > _MAX_CELLS:
        raise UsageError(
            f"--a/--b: {cells} cells is past the cap cells <= {_MAX_CELLS}"
        )
    distinct = len(set(E.atoms))
    if cells * distinct > _MAX_TABLE_SCREEN:
        raise UsageError(
            f"--a/--b: {cells} cells times {distinct} distinct atoms is "
            f"{cells * distinct}, past the cap <= {_MAX_TABLE_SCREEN}"
        )
    # only the table's fields of each verdict are kept, so memory follows
    # the cells; no verdict's firing trail is ever built
    rows = []
    for a in a_range:
        for b in b_range:
            v = classify_very_ample(E, Divisor(a, b))
            strength = v.strength.value if v.strength else None
            rows.append((a, b, v.status, strength, v.binding_rule, v.slope_invariant))

    if ns.format == "csv":
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(
            ["a", "b", "status", "strength", "binding_rule", "slope_invariant"]
        )
        for a, b, status, strength, binding, s in rows:
            writer.writerow([a, b, status, strength or "", binding or "", frac_text(s)])
        return 0
    if ns.format == "atlas":
        _print_atlas(E, a_range, b_range, rows)
        return 0
    if ns.format == "json":
        import json

        payload = {
            "bundle": str(E),
            "rows": [
                {
                    "a": a,
                    "b": b,
                    "status": status,
                    "strength": strength,
                    "binding_rule": binding,
                    "slope_invariant": frac_json(s),
                }
                for a, b, status, strength, binding, s in rows
            ],
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"bundle: {E} (rank {E.rank}, degree {E.degree})")
    header = ("a", "b", "status", "strength", "binding_rule", "slope_invariant")
    text_rows = [
        (str(a), str(b), status, strength or "-", binding or "-", frac_text(s))
        for a, b, status, strength, binding, s in rows
    ]
    widths = [
        max(len(header[i]), *(len(row[i]) for row in text_rows))
        if text_rows
        else len(header[i])
        for i in range(len(header))
    ]
    print("  ".join(header[i].ljust(widths[i]) for i in range(len(header))))
    for row in text_rows:
        print("  ".join(row[i].ljust(widths[i]) for i in range(len(header))))
    return 0


_ATLAS_MARKS = {"VeryAmple": "Y", "NotVeryAmple": ".", "Unknown": "?"}


def _print_atlas(E: Bundle, a_range: range, b_range: range, rows: list) -> None:
    status = {(a, b): st for a, b, st, *_ in rows}
    width = max(3, *(len(str(b)) for b in b_range))
    print(f"E = {E}  (rank {E.rank}, degree {E.degree}, mu^-(E) = {E.mu_minus})")
    print(" " * (width + 3) + "a=" + " ".join(str(a) for a in a_range))
    for b in reversed(b_range):
        marks = (_ATLAS_MARKS[status[a, b]].rjust(len(str(a))) for a in a_range)
        print(f"  b={b:>{width}} " + " ".join(marks))


# -- rules -----------------------------------------------------------------------

def cmd_rules(ns: argparse.Namespace) -> int:
    if ns.format == "json":
        import json

        payload = [
            {
                "rule_id": rule.rule_id,
                "property": rule.property_name,
                "strength": rule.strength_label,
                "guard": rule.scope,
                "condition": rule.statement,
                "citation": rule.citation,
            }
            for rule in ALL_RULES
        ]
        print(json.dumps(payload, indent=2))
        return 0
    for prop, rules in CATALOGS.items():
        print(f"{prop}: {len(rules)} rules")
        for rule in rules:
            print(f"  {rule.rule_id}  [{rule.strength_label}]")
            print(f"    guard: {rule.scope}")
            print(f"    condition: {rule.statement}")
            print(f"    cite: {rule.citation}")
    return 0


# -- wiring ------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="veryample",
        description="exact divisor classification on projective bundles over an elliptic curve",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str, formats: tuple[str, ...], divisor: bool):
        p = sub.add_parser(name, help=help_text)
        if divisor:
            p.add_argument("--bundle", required=True, help="bundle as r:d,r:d,...")
            p.add_argument("--a", required=True, help="coefficient of T")
            p.add_argument("--b", required=True, help="coefficient of f")
        p.add_argument("--format", choices=formats, default="text")
        p.set_defaults(handler=handler)
        return p

    add("classify", cmd_classify, "very-ampleness verdict for one divisor", ("text", "json"), True)
    add("invariants", cmd_invariants, "bundle/divisor invariants and all verdicts", ("text", "json"), True)
    add("table", cmd_table, "sweep ranges of a and b", ("text", "csv", "json", "atlas"), True)
    add("rules", cmd_rules, "print the rule catalog", ("text", "json"), False)
    return parser


def _discard_stdout() -> None:
    # what is still buffered would fail again when the interpreter flushes
    # stdout at exit, so point the descriptor at the null device
    try:
        fd = sys.stdout.fileno()
    except ValueError:  # an in-memory stream has no descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _run(args: list[str]) -> int:
    # argparse drops the errors of its own writes, so its help text is
    # written here, where main's flush sees them
    shown = io.StringIO()
    try:
        with redirect_stdout(shown):
            ns = _build_parser().parse_args(args)
    except SystemExit as exc:
        if exc.code not in (0, None):
            return 2
        # only help or version text; on an error argparse wrote nothing
        # here, and writing even "" to a full stdout would fail the flush
        sys.stdout.write(shown.getvalue())
        return 0
    try:
        return ns.handler(ns)
    except BundleParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _fold_flag_values(list(sys.argv[1:] if argv is None else argv))
    try:
        code = _run(args)
        sys.stdout.flush()
        return code
    except OSError as exc:  # BrokenPipeError included: stdout closed or full
        _discard_stdout()
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write the output: {exc.strerror or exc}",
                  file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
