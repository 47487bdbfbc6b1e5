"""The rule catalog: every classification criterion as one guarded row.

Each Rule is a datum, not code to read around: an id, a citation, a guard,
and the exact inequalities with their exact strictness.  The engine
(engine.py) decides every rule in its one canonical frame and merges the
decisions; nothing in this file decides a verdict by itself.

Conventions shared by all rows.  Quantities are frame-local: inside a frame
l the bundle is E(l) and b means b - a*l.  mu^- is the minimal summand
slope, mu the total slope, and the slope invariant s = b + a*mu^-(E) does
not depend on the frame.  A guard that fails makes the rule inapplicable
(no conclusion may be drawn, not even a negative one); a failed iff or
necessary condition forces No; a failed sufficient condition forces
nothing.

A row is a guard and its cases, each written once, as the text `veryample
rules` prints.  The guard (`scope`) is a list of conditions, split at ", "
and "; ".  Each case has a label, which is its condition, a strength (iff,
sufficient or necessary) and its comparisons, such as "b + a/2 > 2".  In a
frame where the guard holds, the first case whose condition holds decides
the row (`Rule.evaluate`); the last case takes every frame left, so its
label is only printed.  Each text is parsed once, when the catalog is
built, and an unknown phrase fails there.  A condition is a named one
(`_NAMED`, such as "E ample" or "deg = 0 (mod rank)"), a count on a, the
rank or the frame degree ("a >= 2", "rank 4"), "P needs Q and R" (P
implies Q and R), or a comparison, and each compiles into an expression
in the frame's cell (`_expression`): the integers a, b, sn and sd, where
s = sn/sd, and the bundle E, all in that frame (`CELL`).  A guard's
bundle part is its conditions that read only the frame's bundle E (the
rank, the frame degree, (in)decomposable, "E ample", the degree mod the
rank, 3 or 2), and its cell part those that read a or b; a case's
condition reads E only.  A catalog is a plain tuple of rows, and `CATALOGS` holds each
property's by its name.  The bundle parts of one catalog's rows compile
into one function of the bundle (`admits[name]`), which returns the rows a
bundle admits, in catalog order: every other row is inapplicable there.
The engine asks it once per bundle and decides only the admitted rows in
a cell; a row's decider checks the whole guard, so it decides the row in
any frame by itself.  Everything else is derived from the cases: the
row's strength (its first case's), the label and condition text `veryample
rules` prints, and the upper end of an Unknown window, which the engine
reads off each applicable sufficient row whose only comparison is on s
(`S_LABEL`, `Case.end`, read off the case text once): `s > t` leaves
(.., t] open and `s >= t` leaves (.., t) open.  Two rows compare more
than their text (`_BY_HAND`): R-A1-DEC compares every summand, and
R-QUOT-NEC is decided by the engine's quotient screen
(`special="quotient"`).

Comparisons are affine data: a left-hand side is an `_LHS` (beta, k, m),
beta*b + k*a + m with k and m integer pairs of the frame (`_QUANTITY`), and
a right-hand side a number or an `_RHS` pair.  Each is decided in integers,
cross-multiplied over positive denominators in the row's decider, and
built as a Comparison only where a firing or a witness is made
(`Case.comparisons`).

Only rows that can bind are kept.  A sufficient row implied by another
under the same guard (s >= 3 by R-BUTLER's s > 2), or a necessary row whose
every comparison R-QUOT-NEC makes on a single atom (the split rank-3
thresholds), never changes a verdict, a window or a binding rule.

One function decides a row: its decider (`decider`), the whole row, its
guard, case conditions, integer comparisons and outcome table, compiled
into one function of the cell, decider(rule_id)(a, b, sn, sd, E), the
first time the row is decided, so the import compiles no row.  It returns
the deciding case's constant (strength, outcome, case) (`entries`), or
None where the guard fails, and builds nothing: that constant is what the
engine merges on.  A cell passes its integers straight from the plan and
builds no Frame; a Frame passes its own (`Frame.cell`).  A Rule and its
Cases are data only.  `Rule.evaluate(frame)` is the decider on the
frame's cell plus one shared RuleFiring constructor with the case's
comparisons built, the line the trail shows.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from typing import Callable, NamedTuple, Optional

from ._frozen import Frozen, set_slot
# unused here; kept because perfbench/tracing.py wraps rules.sym_power_split
from .atiyah import sym_power_split  # noqa: F401
from .bundles import Bundle
from .verdicts import Comparison, Outcome, RuleFiring, Strength

__all__ = [
    "Case",
    "Frame",
    "Rule",
    "VERY_AMPLE_RULES",
    "GLOBALLY_GENERATED_RULES",
    "NORMALLY_GENERATED_RULES",
    "AMPLE_RULES",
    "ALL_RULES",
    "CATALOGS",
    "RULES_BY_ID",
    "admits",
    "decider",
    "entries",
    "rank3_exception",
]


class Frame(Frozen):
    """One divisor, seen in one twist frame: E(l) with b replaced by b - a*l.

    s = b + a*mu^-(E), invariant under change of frame, is computed once,
    with the frame, as the integers sn/sd with sd > 0.  A cell decides on
    these integers alone and builds no frame; the trail and the tests do.
    """

    __slots__ = ("l", "bundle", "a", "b", "sn", "sd")
    _fields = ("l", "bundle", "a", "b")

    def __init__(self, l: int, bundle: Bundle, a: int, b: int) -> None:
        set_slot(self, "l", l)
        set_slot(self, "bundle", bundle)
        set_slot(self, "a", a)
        set_slot(self, "b", b)
        low = bundle.slope_ends[0]
        set_slot(self, "sn", b * low.rank + a * low.degree)
        set_slot(self, "sd", low.rank)

    @property
    def s(self) -> Fraction:
        return Fraction(self.sn, self.sd)

    @property
    def cell(self) -> tuple[int, int, int, int, Bundle]:
        """The frame as the arguments of a decider (`CELL`)."""
        return self.a, self.b, self.sn, self.sd, self.bundle


def rank3_exception(E: Bundle) -> bool:
    """The one rank-3 split family where the threshold s >= 3 is only known
    to be sufficient: a line bundle L plus an odd-degree rank-2 atom G with
    deg L > deg G / 2.  Twist-invariant."""
    if len(E.atoms) != 2:
        return False
    line, two = E.atoms
    if (line.rank, two.rank) != (1, 2):
        return False
    return two.degree % 2 == 1 and 2 * line.degree > two.degree


# A row's outcome from its strength in the frame, indexed by whether all of
# its comparisons hold.
_OUTCOMES = {
    Strength.IFF: (Outcome.NO, Outcome.YES),
    Strength.SUFFICIENT: (Outcome.INSUFFICIENT, Outcome.YES),
    Strength.NECESSARY: (Outcome.NO, Outcome.PASS),
}


class Case(NamedTuple):
    """One case of a row: where it holds (`label`, a condition; the last
    case takes every frame left), the strength it decides with there, its
    comparisons as written (`text`), and the upper end of the Unknown
    window it leaves open where it is sufficient and fails, read off the
    text without building a Comparison: (t, True) for s > t alone, which
    leaves (.., t] open, (t, False) for s >= t alone, which leaves (.., t),
    else None."""

    label: str
    strength: Strength
    text: str
    end: Optional[tuple[Fraction, bool]]

    def comparisons(self, fr: Frame) -> tuple[Comparison, ...]:
        """The case's comparisons, built in the frame."""
        return _builder(self.text)(*fr.cell)


class Rule(NamedTuple):
    """One catalog row: a guard (its text `scope`) and the cases that
    decide it where the guard holds."""

    rule_id: str
    property_name: str
    citation: str
    scope: str
    cases: tuple[Case, ...]
    special: Optional[str] = None

    @property
    def strength(self) -> Strength:
        """The first case's strength; a later case may only weaken it."""
        return self.cases[0].strength

    @property
    def strength_label(self) -> str:
        return " / ".join(dict.fromkeys(c.strength.value for c in self.cases))

    @property
    def statement(self) -> str:
        """Each case's label, its strength where the row branches, and its
        comparisons; the cases joined by "; "."""
        branching = len({c.strength for c in self.cases}) > 1
        return "; ".join(
            " ".join(filter(None, (
                c.label and f"{c.label}:",
                c.strength.value if branching else "",
                c.text,
            )))
            for c in self.cases
        )

    def evaluate(self, frame: Frame) -> RuleFiring:
        """The row's firing in frame: the guard, the first case that holds and
        its comparisons; strength None if the guard fails.  Only the trail
        and the tests build firings; a cell reads the decision alone
        (`decider`)."""
        k = decider(self.rule_id)(*frame.cell)
        if k is None:
            return RuleFiring(self.rule_id, self.citation, None, Outcome.INAPPLICABLE,
                              frame.l, (), f"guard not met ({self.scope})")
        return RuleFiring(self.rule_id, self.citation, k[0], k[1], frame.l,
                          k[2].comparisons(frame))


# -- comparisons as data ------------------------------------------------------

# The label of every comparison on s; the engine reads the upper end of an
# Unknown window off the sufficient decisions that compare nothing else
# (`Case.end`).
S_LABEL = "b + a*mu^-(E)"

# The arguments of every compiled function of a cell, a decider or a
# builder: a, b, s = sn/sd (sd > 0) and the bundle E, all in one frame.
CELL = "a, b, sn, sd, E"
# An argument of the cell but E, read as a word of an expression.
_READS_CELL = re.compile(r"\b(a|b|sn|sd)\b")

# Each frame quantity, by name: its numerator and denominator (> 0 where
# defined) in the cell (`CELL`).
_QUANTITY: dict[str, tuple[str, str]] = {
    "0": ("0", "1"),
    "1": ("1", "1"),
    "1/2": ("1", "2"),
    "1/3": ("1", "3"),
    "1/r": ("1", "E.rank"),
    "2/r": ("2", "E.rank"),
    "1/(r-2)": ("(1 if E.rank > 2 else -1)", "abs(E.rank - 2)"),
    "1/(d-1)": ("(1 if E.degree > 1 else -1)", "abs(E.degree - 1)"),
    "mu^-": ("E.slope_ends[0].degree", "sd"),
    "mu": ("E.degree", "E.rank"),
}

# Each left-hand side, by label: (beta, k, m) for beta*b + k*a + m ("-q" is -q).
_LHS: dict[str, tuple[int, str, str]] = {
    "a": (0, "1", "0"),
    S_LABEL: (1, "mu^-", "0"),
    "b + mu^-(E)": (1, "0", "mu^-"),
    "b + mu(E)": (1, "0", "mu"),
    "b + a*mu(E)": (1, "mu", "0"),
    "b + (a-1)*mu^-(E)": (1, "mu^-", "-mu^-"),
    "b + (a-1)*mu(E)": (1, "mu", "-mu"),
    "b + a": (1, "1", "0"),
    "b + a/2": (1, "1/2", "0"),
    "b + a/3": (1, "1/3", "0"),
    "b + a/r": (1, "1/r", "0"),
    "b + 2a/r": (1, "2/r", "0"),
    "b + a/(r-2)": (1, "1/(r-2)", "0"),
    "b + a/(d-1)": (1, "1/(d-1)", "0"),
}

# The right-hand sides in the rank r, as pairs like _QUANTITY's; others are numbers.
_RHS: dict[str, tuple[str, str]] = {
    "1 + 1/r": ("E.rank + 1", "E.rank"),
    "1 + 2/r": ("E.rank + 2", "E.rank"),
    "1 + 2/(r-1)": ("E.rank + 1", "E.rank - 1"),
}


def _times(*factors: str) -> str:
    """The product of integer expressions, the factors 1 left out."""
    if "0" in factors:
        return "0"
    return " * ".join(f"({f})" if " " in f else f for f in factors if f != "1") or "1"


def _parse(text: str) -> tuple[str, str, str, str, str, str]:
    """A comparison's label, operator, and sides as expressions in the cell:
    each numerator and positive denominator, (beta*b*kd*md + kn*a*md +
    mn*kd) / (kd*md) on the left."""
    op = ">=" if " >= " in text else ">"
    label, _, rhs = text.partition(f" {op} ")
    beta, k, m = _LHS[label]
    (kn, kd), (mn, md) = _QUANTITY[k], _QUANTITY[m.lstrip("-")]
    mn = f"-{mn}" if m.startswith("-") else mn
    terms = (_times(str(beta), "b", kd, md), _times(kn, "a", md), _times(mn, kd))
    num, den = " + ".join(t for t in terms if t != "0") or "0", _times(kd, md)
    if label == S_LABEL:
        num, den = "sn", "sd"  # the same s, an argument of the cell
    tn, td = _RHS[rhs] if rhs in _RHS else map(str, Fraction(rhs).as_integer_ratio())
    return label, op, num, den, tn, td


@lru_cache(maxsize=None)
def _builder(text: str) -> Callable[..., tuple[Comparison, ...]]:
    """The comparisons of `text`, joined by " and ", built as Comparisons:
    compiled on first use, as only a read of the comparisons needs it."""
    if text in _BY_HAND:
        return _BY_HAND[text][1]
    comps = "".join(
        f"Comparison({label!r}, Fraction({num}, {den}), {op!r}, Fraction({tn}, {td})), "
        for label, op, num, den, tn, td in map(_parse, text.split(" and "))
    )
    return eval(f"lambda {CELL}: ({comps})", {"Comparison": Comparison, "Fraction": Fraction})


def _window_end(text: str) -> Optional[tuple[Fraction, bool]]:
    """For `text` one comparison on s, "s > t" or "s >= t": t and whether
    it is in the window; None for any other text.  A t that is not a
    number, such as "1 + 2/r", raises ValueError when the case is built."""
    if not text.startswith(S_LABEL + " ") or " and " in text:
        return None
    _, op, _, _, tn, td = _parse(text)
    return Fraction(int(tn), int(td)), op == ">"


# -- conditions as data -------------------------------------------------------

# Every condition a guard or a case may name that is neither a count nor a
# comparison, as the expression in the cell it compiles to.
_NAMED: dict[str, str] = {
    "every divisor": "True",
    "indecomposable": "E.is_indecomposable",
    "decomposable": "not E.is_indecomposable",
    "E ample": "E.is_ample",
    "deg even": "E.degree % 2 == 0",
    "deg = 0 (mod rank)": "E.degree % E.rank == 0",
    "deg = 0 (mod 3)": "E.degree % 3 == 0",
    "deg = 1 (mod 3)": "E.degree % 3 == 1",
    "4 <= frame degree < rank": "4 <= E.degree < E.rank",
    "rank = degree + 1": "E.rank == E.degree + 1",
    "outside the exceptional family": "not rank3_exception(E)",
}

# A count: "a = 1", "a >= 2", "rank 4", "frame degree >= 4".
_COUNT = re.compile(r"(a|rank|frame degree) (?:(>=|=) )?(\d+)")


@lru_cache(maxsize=None)
def _expression(text: str) -> str:
    """The expression in the cell of one condition: a named one, a count, "P
    needs Q and R" (P implies Q and R) or a comparison, cross-multiplied
    over its positive denominators.  An unknown phrase raises KeyError.
    Kept per text, as a guard's are read twice: whole, and its bundle part."""
    if text in _NAMED:
        return f"({_NAMED[text]})"
    count = _COUNT.fullmatch(text)
    if count:
        name, op, n = count.groups()
        value = {"a": "a", "rank": "E.rank", "frame degree": "E.degree"}[name]
        return f"{value} {'>=' if op == '>=' else '=='} {int(n)}"
    premise, needs, rest = text.partition(" needs ")
    if needs:
        conclusion = " and ".join(_expression(t) for t in rest.split(" and "))
        return f"(not {_expression(premise)} or {conclusion})"
    _, op, num, den, tn, td = _parse(text)
    return f"({_times(num, td)} {op} {_times(tn, den)})"


def _conditions(scope: str) -> list[str]:
    """A guard's conditions: its text split at ", " and "; "."""
    return re.split("[,;] ", scope)


def _bundle_part(scope: str) -> str:
    """The guard's bundle part: the conjunction, as an expression in E, of
    its conditions that read no argument of the cell but E; "True" if none
    does.  The rest, its cell part, reads a or b."""
    parts = [e for e in map(_expression, _conditions(scope)) if not _READS_CELL.search(e)]
    return " and ".join(parts) or "True"


def _holds(text: str) -> str:
    """The expression in the cell that decides the comparisons `text`, joined
    by " and ", or a text compiled by hand (`_BY_HAND`)."""
    if text in _BY_HAND:
        return _BY_HAND[text][0]
    return " and ".join(map(_expression, text.split(" and ")))


def entries(case: Case) -> tuple[tuple, tuple]:
    """A case's decisions, (strength, outcome, case), indexed by whether
    its comparisons hold: the constants a row's decider returns."""
    return tuple((case.strength, outcome, case) for outcome in _OUTCOMES[case.strength])


@lru_cache(maxsize=None)
def decider(rule_id: str) -> Callable[..., Optional[tuple]]:
    """The catalog row `rule_id` compiled into one function of the frame
    that returns its case's constant (strength, outcome, case), or None
    where the guard fails; compiled on first use, so a process
    compiles only the rows it decides, and the import compiles none."""
    rule = RULES_BY_ID[rule_id]
    names = {"rank3_exception": rank3_exception, "_a1_dec_sides": _a1_dec_sides}
    for i, case in enumerate(rule.cases):
        names[f"K{i}"] = entries(case)
    return eval(_row_source(rule), names)


def _row_source(rule: Rule) -> str:
    """The source of `decider`: where the guard holds, the first case whose
    condition holds picks its K by whether its comparisons hold."""
    last = len(rule.cases) - 1
    pick = " else ".join(
        f"K{i}[{_holds(case.text)}]" + (f" if {_expression(case.label)}" if i < last else "")
        for i, case in enumerate(rule.cases)
    )
    guard = " and ".join(map(_expression, _conditions(rule.scope)))
    return f"lambda {CELL}: ({pick}) if {guard} else None"


def _rule(
    rule_id: str, property_name: str, citation: str, scope: str,
    cases: tuple[Case, ...], special: Optional[str] = None,
) -> Rule:
    """A row whose guard is its `scope`, all of it: `Rule.evaluate` decides
    the row in any frame by itself.  The guard is parsed here, so an unknown
    phrase fails when the catalog is built."""
    for condition in _conditions(scope):
        _expression(condition)
    return Rule(rule_id, property_name, citation, scope, cases, special)


def _cases(*cases: tuple[str, Strength, str]) -> tuple[Case, ...]:
    """A row's cases, each (label, strength, comparisons joined by " and ");
    each case but the last holds where its label, as a condition, does.
    Each label but the last and each text is parsed here."""
    for i, (label, _, text) in enumerate(cases):
        if i < len(cases) - 1:
            _expression(label)
        _holds(text)
    return tuple(Case(label, strength, text, _window_end(text))
                 for label, strength, text in cases)


def _only(strength: Strength, text: str) -> tuple[Case, ...]:
    """The one case of a row that does not branch."""
    return _cases(("", strength, text))


def _a1_dec_sides(b: int, E: Bundle) -> list[tuple]:
    # each summand A, the numerator of b + mu(A) over rank A, and its threshold
    return [(A, b * A.rank + A.degree, 3 if A.degree % A.rank == 0 else 2)
            for A in E.atoms]


_A1_DEC_TEXT = "b + mu(E_j) >= 3 when deg = 0 (mod rank), else >= 2"
_QUOT_TEXT = (
    "the restriction to P(Q) admits no negative rule (rank-1 Q: "
    "b + a*deg(Q) >= 3); screened on the Q that can fail first: "
    "the lowest line and each non-line atom"
)

# The two case texts that compare more than their words: each with its
# expression in the cell and its builder.  R-A1-DEC compares every summand, and
# R-QUOT-NEC holds wherever its guard does, as the engine's quotient screen
# decides it.
_BY_HAND: dict[str, tuple[str, Callable[..., tuple[Comparison, ...]]]] = {
    _A1_DEC_TEXT: (
        "all(n >= t * A.rank for A, n, t in _a1_dec_sides(b, E))",
        lambda a, b, sn, sd, E: tuple(
            Comparison(f"b + mu({A})", Fraction(n, A.rank), ">=", Fraction(t))
            for A, n, t in _a1_dec_sides(b, E)),
    ),
    _QUOT_TEXT: ("True", lambda a, b, sn, sd, E: ()),
}


# -- the catalog --------------------------------------------------------------

VERY_AMPLE_RULES = (
    _rule(
        rule_id="R-FIBER",
        property_name="very_ample",
        citation="restriction to any fiber is O(a) on projective space",
        scope="every divisor",
        cases=_only(Strength.NECESSARY, "a >= 1"),
    ),
    _rule(
        rule_id="R-MIYAOKA",
        property_name="very_ample",
        citation="Miyaoka's ampleness criterion via the pushforward slope",
        scope="every divisor",
        cases=_only(Strength.NECESSARY, "a >= 1 and b + a*mu^-(E) > 0"),
    ),
    _rule(
        rule_id="R-BUTLER",
        property_name="very_ample",
        citation="Butler's bound on a genus-one base",
        scope="a >= 1",
        cases=_only(Strength.SUFFICIENT, "b + a*mu^-(E) > 2"),
    ),
    _rule(
        rule_id="R-D0MODR",
        property_name="very_ample",
        citation="Gushel's criterion for twists of degree-zero bundles",
        scope="a >= 1, indecomposable, deg = 0 (mod rank)",
        cases=_only(Strength.IFF, "b + a*mu(E) >= 3"),
    ),
    _rule(
        rule_id="R-A1-INDEC",
        property_name="very_ample",
        citation="Gushel's classification for a = 1",
        scope="a = 1, indecomposable",
        cases=_cases(
            ("deg = 0 (mod rank)", Strength.IFF, "b + mu(E) >= 3"),
            ("otherwise", Strength.IFF, "b + mu(E) >= 2"),
        ),
    ),
    _rule(
        rule_id="R-A1-DEC",
        property_name="very_ample",
        citation="Gushel's classification for a = 1, summand by summand",
        scope="a = 1, decomposable",
        cases=_cases(("every summand", Strength.IFF, _A1_DEC_TEXT)),
    ),
    _rule(
        rule_id="R-RK2-INDEC",
        property_name="very_ample",
        citation="Biancofiore-Livorni thresholds for elliptic ruled surfaces",
        scope="a >= 2, rank 2, indecomposable",
        cases=_cases(
            ("deg even", Strength.IFF, "b + a*mu^-(E) >= 3"),
            ("deg odd", Strength.IFF, "b + a*mu^-(E) > 1"),
        ),
    ),
    _rule(
        rule_id="R-RK2-DEC",
        property_name="very_ample",
        citation="rank-2 split threshold via unisecant sections",
        scope="a >= 2, rank 2, decomposable",
        cases=_only(Strength.IFF, "b + a*mu^-(E) >= 3"),
    ),
    _rule(
        rule_id="R-RK3-INDEC",
        property_name="very_ample",
        citation="rank-3 indecomposable thresholds by degree class mod 3",
        scope="a >= 2, rank 3, indecomposable",
        cases=_cases(
            ("deg = 0 (mod 3)", Strength.IFF, "b + a*mu^-(E) >= 3"),
            ("deg = 1 (mod 3)", Strength.SUFFICIENT, "b + a*mu^-(E) > 1"),
            ("deg = 2 (mod 3)", Strength.SUFFICIENT, "b + a*mu^-(E) > 4/3"),
        ),
    ),
    _rule(
        rule_id="R-RK3-DEC",
        property_name="very_ample",
        citation="rank-3 split classification",
        scope="a >= 2, rank 3, decomposable",
        cases=_cases(
            ("outside the exceptional family", Strength.IFF, "b + a*mu^-(E) >= 3"),
            ("line L + odd rank-2 G with deg L > deg G/2", Strength.SUFFICIENT,
             "b + a*mu^-(E) >= 3"),
        ),
    ),
    _rule(
        rule_id="R-R4D3",
        property_name="very_ample",
        citation="rank-4 degree-3 classification",
        # b + a*mu(E) is s wherever it is read: on an indecomposable frame
        scope=(
            "a >= 2, rank 4, frame degree 3; indecomposable needs "
            "b + a*mu(E) > 3/4, decomposable needs E ample and b + a/3 > 1/3"
        ),
        cases=_cases(
            ("indecomposable", Strength.IFF, "b + a >= 3"),
            ("decomposable", Strength.SUFFICIENT, "b + a/2 > 2"),
        ),
    ),
    _rule(
        rule_id="R-D3ANYR",
        property_name="very_ample",
        citation="degree-3 induction bound, any rank >= 4",
        scope="a >= 2, rank >= 4, frame degree 3, E ample, b + a*mu^-(E) > 3/5",
        cases=_only(Strength.SUFFICIENT, "b + a/2 > 2 and b + a/3 > 1/3"),
    ),
    _rule(
        rule_id="R-D2-INDEC",
        property_name="very_ample",
        citation="degree-2 indecomposable induction bound",
        scope="a >= 2, rank >= 4, frame degree 2, indecomposable",
        cases=_cases(
            ("rank 4", Strength.SUFFICIENT, "b + a/2 > 2"),
            ("rank >= 5", Strength.SUFFICIENT,
             "b + a/2 > 2 and b + a/3 > 1/3 and b + 2a/r > 1 + 1/r"),
        ),
    ),
    _rule(
        rule_id="R-D2-DEC",
        property_name="very_ample",
        citation="degree-2 split induction bound",
        scope="a >= 2, rank >= 4, frame degree 2, decomposable, E ample",
        cases=_cases(
            ("rank 4", Strength.SUFFICIENT, "b + a/2 > 2 and b + a*mu^-(E) > 3/2"),
            ("rank >= 5", Strength.SUFFICIENT,
             "b + a*mu^-(E) > 1 + 2/r and b + a/3 > 1/3 and b + a/2 > 2"),
        ),
    ),
    _rule(
        rule_id="R-D1-INDEC",
        property_name="very_ample",
        citation="degree-1 indecomposable induction bound",
        scope="a >= 2, rank >= 4, frame degree 1, indecomposable, b + a/r > 1",
        cases=_cases(
            ("rank 4", Strength.SUFFICIENT, "b + a/2 > 2"),
            ("rank 5", Strength.SUFFICIENT, "b + a/3 > 3/2 and b + a/2 > 2"),
            ("rank >= 6", Strength.SUFFICIENT, "b + a/(r-2) > 1 + 2/(r-1) and b + a/2 > 2"),
        ),
    ),
    _rule(
        rule_id="R-DGE4",
        property_name="very_ample",
        citation="mid-degree induction bound, 4 <= deg < rank",
        scope="a >= 2, 4 <= frame degree < rank, E ample",
        cases=_only(Strength.SUFFICIENT, "b + a/(d-1) > 2 and b + (a-1)*mu^-(E) > 0"),
    ),
    _rule(
        rule_id="R-RD1",
        property_name="very_ample",
        citation="corank-one bound, rank = degree + 1",
        scope="a >= 2, indecomposable, frame degree >= 4, rank = degree + 1",
        cases=_only(Strength.SUFFICIENT, "b + (a-1)*mu(E) > 0 and b + a > 2"),
    ),
    _rule(
        rule_id="R-QUOT-NEC",
        property_name="very_ample",
        citation="necessity via restriction to quotient scrolls P(Q)",
        scope="a >= 1, decomposable",
        cases=_cases(("every proper summand sub-sum Q", Strength.NECESSARY, _QUOT_TEXT)),
        special="quotient",
    ),
)


AMPLE_RULES = (
    _rule(
        rule_id="R-AMPLE",
        property_name="ample",
        citation="Miyaoka's ampleness criterion via the pushforward slope",
        scope="every divisor",
        cases=_only(Strength.IFF, "a >= 1 and b + a*mu^-(E) > 0"),
    ),
)


GLOBALLY_GENERATED_RULES = (
    _rule(
        rule_id="R-GG-A1",
        property_name="globally_generated",
        citation="Gushel's global generation equivalence for a = 1",
        scope="a = 1",
        cases=_only(Strength.IFF, "b + mu^-(E) > 1"),
    ),
    _rule(
        rule_id="R-GG-SLOPE",
        property_name="globally_generated",
        citation="global generation from the pushforward slope",
        scope="a >= 1",
        cases=_only(Strength.SUFFICIENT, "b + a*mu^-(E) > 1"),
    ),
)


NORMALLY_GENERATED_RULES = (
    _rule(
        rule_id="R-NG-BUTLER",
        property_name="normally_generated",
        citation="Butler's normal generation bound on a genus-one base",
        scope="a >= 1",
        cases=_only(Strength.SUFFICIENT, "b + a*mu^-(E) > 2"),
    ),
)


# Each property's catalog, by its name: the plan of a property on a bundle
# holds the rows of its catalog, and `veryample rules` prints them in this order.
CATALOGS: dict[str, tuple[Rule, ...]] = {
    "very_ample": VERY_AMPLE_RULES,
    "ample": AMPLE_RULES,
    "globally_generated": GLOBALLY_GENERATED_RULES,
    "normally_generated": NORMALLY_GENERATED_RULES,
}

ALL_RULES: tuple[Rule, ...] = sum(CATALOGS.values(), ())

# each row by its id: the rule a verdict binds on, for `veryample classify`
RULES_BY_ID: dict[str, Rule] = {rule.rule_id: rule for rule in ALL_RULES}


def _admission(rows: tuple[Rule, ...]) -> Callable[[Bundle], tuple[Rule, ...]]:
    """The rows a bundle admits, in catalog order: the bundle parts of their
    guards (`_bundle_part`), compiled into one function of the bundle alone,
    so a part that read a or b would raise NameError."""
    parts = ", ".join(_bundle_part(rule.scope) for rule in rows)
    return eval(f"lambda E: tuple(compress(ROWS, ({parts},)))",
                {"rank3_exception": rank3_exception, "compress": compress, "ROWS": rows})


# Each catalog's admission, by property name.  A row a bundle excludes is
# inapplicable in every frame on that bundle.
admits: dict[str, Callable[[Bundle], tuple[Rule, ...]]] = {
    name: _admission(rows) for name, rows in CATALOGS.items()
}
