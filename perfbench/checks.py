"""Output checks for the benchmark.

Every operation's output is reduced to Cell records and checked against

* closed forms that do not use the program: the slope invariant, the
  verdicts of the acceptance gate (odd rank 2, twists of degree-0
  indecomposables, the rank-3 indecomposable trichotomy, a = 1 always
  decided, Yes implies Miyaoka-ample, Unknown only for a >= 2 and
  0 < s <= 2), and for `invariants` the divisor degree and h^0;
* the library's own verdict for the same cell (CLI rows must agree);
* the library's verdict after a twist E -> E(l), b -> b - a*l;
* a digest of a fixed, seed-independent reference set per workload,
  recorded in digests.json.

A check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Optional

DIGESTS_PATH = Path(__file__).with_name("digests.json")
STATUSES = ("VeryAmple", "NotVeryAmple", "Unknown")


@dataclass(frozen=True)
class Cell:
    """One very-ampleness verdict, as the program reported it."""

    bundle: str
    a: int
    b: int
    status: str
    strength: str  # "" when the verdict has no strength
    binding: str  # "" when no rule binds
    s: Fraction
    window: Optional[str] = None  # e.g. "(0, 2]"; None when not reported


def atoms_of(bundle: str) -> list[tuple[int, int]]:
    """The (rank, degree) atoms of r:d,r:d,... text, parsed here so that the
    closed forms do not depend on the program's parser."""
    return [tuple(int(x) for x in chunk.split(":")) for chunk in bundle.split(",")]


def mu_minus(atoms: list[tuple[int, int]]) -> Fraction:
    return min(Fraction(d, r) for r, d in atoms)


def closed_form_problems(cell: Cell) -> list[str]:
    atoms = atoms_of(cell.bundle)
    a, b = cell.a, cell.b
    s = b + a * mu_minus(atoms)
    where = f"{cell.bundle} a={a} b={b}"
    problems = []
    if cell.s != s:
        problems.append(f"{where}: slope invariant {cell.s}, expected {s}")
    if cell.status not in STATUSES:
        return problems + [f"{where}: unknown status {cell.status!r}"]
    yes, unknown = cell.status == "VeryAmple", cell.status == "Unknown"
    if a == 1 and unknown:
        problems.append(f"{where}: a = 1 must be decided")
    if yes and not (a >= 1 and s > 0):
        problems.append(f"{where}: VeryAmple but not Miyaoka-ample")
    if unknown and not (a >= 2 and 0 < s <= 2):
        problems.append(f"{where}: Unknown outside a >= 2, 0 < s <= 2")
    if len(atoms) == 1:
        (r, d), = atoms
        if r == 2 and d % 2 == 1 and a >= 2:
            if yes != (s > 1) or cell.strength != "iff":
                problems.append(f"{where}: odd rank 2 needs iff VA <=> s > 1")
        if d % r == 0 and a >= 1 and (unknown or yes != (s >= 3)):
            problems.append(f"{where}: degree-0 twist needs VA <=> s >= 3")
        if r == 3 and d % 3 and a >= 2:
            hi = Fraction(1) if d % 3 == 1 else Fraction(4, 3)
            expected = "NotVeryAmple" if s <= 0 else "Unknown" if s <= hi else "VeryAmple"
            if cell.status != expected:
                problems.append(f"{where}: rank-3 trichotomy expects {expected}")
            elif unknown and cell.window not in (None, f"(0, {hi}]"):
                problems.append(f"{where}: rank-3 window {cell.window}, expected (0, {hi}]")
    return problems


def invariants_problems(bundle: str, a: int, b: int, degree: int, h0: Optional[int]) -> list[str]:
    """Divisor degree (aT + bf)^r and h^0 from their closed forms."""
    atoms = atoms_of(bundle)
    r, d = sum(x for x, _ in atoms), sum(y for _, y in atoms)
    problems = []
    if degree != a**r * d + r * a ** (r - 1) * b:
        problems.append(f"{bundle} a={a} b={b}: divisor degree {degree}")
    if a >= 1 and b + a * mu_minus(atoms) > 0:
        expected_h0 = comb(a + r - 1, r) * d + comb(a + r - 1, r - 1) * b
        if h0 != expected_h0:
            problems.append(f"{bundle} a={a} b={b}: h^0 {h0}, expected {expected_h0}")
    elif h0 is not None:
        problems.append(f"{bundle} a={a} b={b}: h^0 reported outside its domain")
    return problems


# -- the library as reference ------------------------------------------------

def library_cell(va, bundle: str, a: int, b: int) -> Cell:
    """The library's verdict for one cell; va is the imported veryample."""
    return cell_from_verdict(bundle, a, b, va.classify_very_ample(va.parse_bundle(bundle), va.Divisor(a, b)))


def cell_from_verdict(bundle: str, a: int, b: int, v) -> Cell:
    return Cell(
        bundle, a, b, v.status,
        v.strength.value if v.strength else "",
        v.binding_rule or "",
        v.slope_invariant,
        v.unknown_window.render() if v.unknown_window else None,
    )


def agreement_problems(reported: Cell, reference: Cell) -> list[str]:
    fields = ("status", "strength", "binding", "s")
    diffs = [f for f in fields if getattr(reported, f) != getattr(reference, f)]
    if reported.window is not None and reported.window != reference.window:
        diffs.append("window")
    if not diffs:
        return []
    return [f"{reported.bundle} a={reported.a} b={reported.b}: output differs from the library in {', '.join(diffs)}"]


def twist_problems(va, cell: Cell, l: int) -> list[str]:
    E = va.parse_bundle(cell.bundle)
    v = va.classify_very_ample(E.twist(l), va.Divisor(cell.a, cell.b - cell.a * l))
    got = (v.status, v.strength.value if v.strength else "", v.binding_rule or "")
    if got != (cell.status, cell.strength, cell.binding):
        return [f"{cell.bundle} a={cell.a} b={cell.b}: twist by {l} gives {got}"]
    return []


# -- parsing CLI output ----------------------------------------------------------

def _frac_json(obj: dict) -> Fraction:
    return Fraction(obj["num"], obj["den"])


_HEADLINE_RE = re.compile(r"^(\w+)(?: \(open window (.+)\)| \((\w+), (\S+)\))?$")


def _headline_cell(bundle: str, a: int, b: int, headline: str, s: Fraction) -> Cell:
    # invariants text: "VeryAmple (iff, R-X)" or "Unknown (open window (0, 2])"
    m = _HEADLINE_RE.match(headline)
    if m is None:
        raise ValueError(f"unparsed headline {headline!r}")
    return Cell(bundle, a, b, m.group(1), m.group(3) or "", m.group(4) or "", s, m.group(2))


def parse_single(command: str, fmt: str, bundle: str, a: int, b: int, out: str):
    """Cell plus (degree, h0) for invariants, from one classify or invariants
    output."""
    if fmt == "json":
        payload = json.loads(out)
        classify = command == "classify"
        v = payload["verdict"] if classify else payload["very_ample"]
        window = v["unknown_window"]["text"] if v["unknown_window"] else None
        cell = Cell(bundle, a, b, v["status"], v["strength"] or "", v["binding_rule"] or "",
                    _frac_json((v if classify else payload)["slope_invariant"]), window)
        return cell, None if classify else (payload["divisor_degree"], payload["h0"])
    fields = {}
    for line in out.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields.setdefault(key.strip(), value)
    s = Fraction(fields["slope invariant b + a*mu^-(E)"])
    if command == "classify":
        window = fields.get("unknown window", "")
        window = window.rpartition(" in ")[2] or None
        binding = fields.get("binding rule", "").split(" ")[0]
        return Cell(bundle, a, b, fields["status"], fields.get("strength", ""), binding, s, window), None
    h0_text = fields["h^0"]
    h0 = None if h0_text.startswith("undefined") else int(h0_text)
    cell = _headline_cell(bundle, a, b, fields["very ample"], s)
    return cell, (int(fields["divisor degree"]), h0)


def parse_table(fmt: str, bundle: str, out: str) -> list[Cell]:
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        if rows[0] != ["a", "b", "status", "strength", "binding_rule", "slope_invariant"]:
            raise ValueError(f"csv header {rows[0]}")
        return [Cell(bundle, int(a), int(b), st, sg, bd, Fraction(s)) for a, b, st, sg, bd, s in rows[1:]]
    if fmt == "json":
        payload = json.loads(out)
        return [
            Cell(bundle, r["a"], r["b"], r["status"], r["strength"] or "", r["binding_rule"] or "",
                 _frac_json(r["slope_invariant"]))
            for r in payload["rows"]
        ]
    lines = out.splitlines()
    if not lines[0].startswith(f"bundle: {bundle} ") or lines[1].split()[0] != "a":
        raise ValueError(f"text table header {lines[:2]}")
    cells = []
    for line in lines[2:]:
        a, b, st, sg, bd, s = line.split()
        cells.append(Cell(bundle, int(a), int(b), st, "" if sg == "-" else sg, "" if bd == "-" else bd, Fraction(s)))
    return cells


# -- digests ------------------------------------------------------------------------

def digest(cells: list[Cell]) -> str:
    h = hashlib.sha256()
    for c in cells:
        h.update(f"{c.bundle}|{c.a}|{c.b}|{c.status}|{c.strength}|{c.binding}\n".encode())
    return h.hexdigest()


def recorded_digest(workload: str) -> str:
    return json.loads(DIGESTS_PATH.read_text())[workload]
