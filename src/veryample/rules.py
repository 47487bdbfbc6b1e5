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
the row (`Rule.decide`); the last case takes every frame left, so its label
is only printed.  Each text is parsed once, when the catalog is built, and
an unknown phrase fails there.  A condition is a named one (`_NAMED`, such
as "E ample" or "deg = 0 (mod rank)"), a count on a, the rank or the frame
degree ("a >= 2", "rank 4"), "P needs Q and R" (P implies Q and R), or a
comparison; a guard, or a case's condition, compiles into one function of
the frame (`_compile`).  A comparison's left-hand side names an entry of `_LHS`, one
function of the frame per label, each affine in (a, b), and its right-hand
side is a number or an entry of `_RHS`, the three that depend on the rank.
Everything else is derived from the cases: the row's strength (its first
case's), the label and condition text `veryample rules` prints, the rows
that screen the quotient scrolls for R-QUOT-NEC (every row whose strength
is not sufficient), and the upper end of an Unknown window, which the
engine reads off each applicable sufficient row whose only comparison is on
s (`S_LABEL`): `s > t` leaves (.., t] open and `s >= t` leaves (.., t)
open.  Two rows compare more than their text: R-A1-DEC compares every
summand, so its one case keeps a function, and R-QUOT-NEC is decided by
the engine's quotient screen (`special="quotient"`).

Only rows that can bind are kept.  A sufficient row implied by another
under the same guard (s >= 3 by R-BUTLER's s > 2), or a necessary row whose
every comparison R-QUOT-NEC makes on a single atom (the split rank-3
thresholds), never changes a verdict, a window or a binding rule.

Decision and record are separate: `Rule.decide` decides a row in a frame
(guard, deciding case, comparisons) without building anything, and
`Rule.record` keeps a decision as a RuleFiring that holds the comparisons;
their text is rendered only when the trail is read.  `Rule.evaluate` is the
two in one.  The engine decides each row once, merges on the decisions
and records the same decisions when a trail is read.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from ._frozen import Frozen
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
    "rank3_exception",
]


class Frame(Frozen):
    """One divisor, seen in one twist frame: E(l) with b replaced by b - a*l.

    s = b + a*mu^-(E), invariant under change of frame, is computed once,
    with the frame.
    """

    __slots__ = ("l", "bundle", "a", "b", "s")
    _fields = ("l", "bundle", "a", "b")

    def __init__(self, l: int, bundle: Bundle, a: int, b: int) -> None:
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "bundle", bundle)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "s", b + a * bundle.mu_minus)

    @property
    def rank(self) -> int:
        return self.bundle.rank

    @property
    def deg(self) -> int:
        return self.bundle.degree

    @property
    def indec(self) -> bool:
        return self.bundle.is_indecomposable

    @property
    def mu(self) -> Fraction:
        return self.bundle.slope

    @property
    def mu_minus(self) -> Fraction:
        return self.bundle.mu_minus

    @property
    def ample(self) -> bool:
        return self.bundle.is_ample


def rank3_exception(E: Bundle) -> bool:
    """The one rank-3 split family where the threshold s >= 3 is only known
    to be sufficient: a line bundle L plus an odd-degree rank-2 atom G with
    deg L > deg G / 2.  Twist-invariant."""
    if len(E.atoms) != 2:
        return False
    line, two = E.atoms
    if (line.rank, two.rank) != (1, 2):
        return False
    return two.degree % 2 == 1 and Fraction(line.degree) > Fraction(two.degree, 2)


# A row's outcome from its strength in the frame, indexed by whether all of
# its comparisons hold.
_OUTCOMES = {
    Strength.IFF: (Outcome.NO, Outcome.YES),
    Strength.SUFFICIENT: (Outcome.INSUFFICIENT, Outcome.YES),
    Strength.NECESSARY: (Outcome.NO, Outcome.PASS),
}


class Case(NamedTuple):
    """One case of a row: where it holds (`when`, parsed from `label`;
    None for every frame left), the strength it decides with there, and its
    comparisons, as written (`text`) and as evaluated in a frame
    (`comparisons`)."""

    label: str
    when: Optional[Callable[[Frame], bool]]
    strength: Strength
    text: str
    comparisons: Callable[[Frame], tuple[Comparison, ...]]


class Rule(NamedTuple):
    """One catalog row: a guard (`applies`, parsed from its text `scope`)
    and the cases that decide it where the guard holds."""

    rule_id: str
    property_name: str
    citation: str
    scope: str
    applies: Callable[[Frame], bool]
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

    def decide(
        self, frame: Frame
    ) -> tuple[Outcome, Optional[Strength], tuple[Comparison, ...]]:
        """(outcome, strength, comparisons) of the row in frame: the guard,
        then the first case that holds, then its comparisons.  Nothing is
        built or rendered; strength is None when the guard fails."""
        if not self.applies(frame):
            return Outcome.INAPPLICABLE, None, ()
        for case in self.cases:
            if case.when is None or case.when(frame):
                break
        comps = case.comparisons(frame)
        return _OUTCOMES[case.strength][all(c.holds for c in comps)], case.strength, comps

    def record(
        self, frame: Frame, outcome: Outcome, strength: Optional[Strength],
        comps: tuple[Comparison, ...],
    ) -> RuleFiring:
        """The RuleFiring that keeps a decision this row made in frame."""
        return RuleFiring(
            rule_id=self.rule_id,
            citation=self.citation,
            strength=strength,
            outcome=outcome,
            frame=frame.l,
            comparisons=comps,
            note=(
                f"guard not met ({self.scope})"
                if outcome is Outcome.INAPPLICABLE
                else ""
            ),
        )

    def evaluate(self, frame: Frame) -> RuleFiring:
        """decide, then record."""
        return self.record(frame, *self.decide(frame))


# -- comparisons as data ------------------------------------------------------

# The label of every comparison on s; the engine reads the upper end of an
# Unknown window off the sufficient decisions that compare nothing else.
S_LABEL = "b + a*mu^-(E)"

# Every left-hand side a comparison may name, by its label.
_LHS: dict[str, Callable[[Frame], Fraction]] = {
    "a": lambda fr: Fraction(fr.a),
    S_LABEL: lambda fr: fr.s,
    "b + mu^-(E)": lambda fr: fr.b + fr.mu_minus,
    "b + mu(E)": lambda fr: fr.b + fr.mu,
    "b + a*mu(E)": lambda fr: fr.b + fr.a * fr.mu,
    "b + (a-1)*mu^-(E)": lambda fr: fr.b + (fr.a - 1) * fr.mu_minus,
    "b + (a-1)*mu(E)": lambda fr: fr.b + (fr.a - 1) * fr.mu,
    "b + a": lambda fr: Fraction(fr.b + fr.a),
    "b + a/2": lambda fr: fr.b + Fraction(fr.a, 2),
    "b + a/3": lambda fr: fr.b + Fraction(fr.a, 3),
    "b + a/r": lambda fr: fr.b + Fraction(fr.a, fr.rank),
    "b + 2a/r": lambda fr: fr.b + Fraction(2 * fr.a, fr.rank),
    "b + a/(r-2)": lambda fr: fr.b + Fraction(fr.a, fr.rank - 2),
    "b + a/(d-1)": lambda fr: fr.b + Fraction(fr.a, fr.deg - 1),
}

# The right-hand sides that depend on the rank r; every other one is a number.
_RHS: dict[str, Callable[[int], Fraction]] = {
    "1 + 1/r": lambda r: 1 + Fraction(1, r),
    "1 + 2/r": lambda r: 1 + Fraction(2, r),
    "1 + 2/(r-1)": lambda r: 1 + Fraction(2, r - 1),
}


class _Parsed(tuple):
    """A case's comparisons, each parsed once into (label, lhs, op, rhs);
    called on a frame, it evaluates them there."""

    __slots__ = ()

    def __call__(self, fr: Frame) -> tuple[Comparison, ...]:
        return tuple([
            Comparison(label, lhs(fr), op, rhs if rhs.__class__ is Fraction else rhs(fr.rank))
            for label, lhs, op, rhs in self
        ])


def _parse(text: str) -> tuple:
    op = ">=" if " >= " in text else ">"
    label, _, rhs = text.partition(f" {op} ")
    return label, _LHS[label], op, _RHS[rhs] if rhs in _RHS else Fraction(rhs)


# -- conditions as data -------------------------------------------------------

# Every condition a guard or a case may name that is neither a count nor a
# comparison, as the expression in the frame `fr` it compiles to.
_NAMED: dict[str, str] = {
    "every divisor": "True",
    "indecomposable": "fr.indec",
    "decomposable": "not fr.indec",
    "E ample": "fr.ample",
    "deg even": "fr.deg % 2 == 0",
    "deg = 0 (mod rank)": "fr.deg % fr.rank == 0",
    "deg = 0 (mod 3)": "fr.deg % 3 == 0",
    "deg = 1 (mod 3)": "fr.deg % 3 == 1",
    "4 <= frame degree < rank": "4 <= fr.deg < fr.rank",
    "rank = degree + 1": "fr.rank == fr.deg + 1",
    "outside the exceptional family": "not rank3_exception(fr.bundle)",
}

# A count: "a = 1", "a >= 2", "rank 4", "frame degree >= 4".
_COUNT = re.compile(r"(a|rank|frame degree) (?:(>=|=) )?(\d+)")


def _expression(text: str, names: dict) -> str:
    """The expression in `fr` of one condition: a named one, a count, "P
    needs Q and R" (P implies Q and R) or a comparison, whose parsed form
    goes into `names`.  An unknown phrase raises KeyError."""
    if text in _NAMED:
        return f"({_NAMED[text]})"
    count = _COUNT.fullmatch(text)
    if count:
        name, op, n = count.groups()
        attr = "deg" if name == "frame degree" else name
        return f"fr.{attr} {'>=' if op == '>=' else '=='} {int(n)}"
    premise, needs, rest = text.partition(" needs ")
    if needs:
        conclusion = " and ".join(_expression(t, names) for t in rest.split(" and "))
        return f"(not {_expression(premise, names)} or {conclusion})"
    name = f"_c{len(names)}"
    names[name] = _Parsed([_parse(text)])
    return f"{name}(fr)[0].holds"


def _compile(texts: list[str]) -> Callable[[Frame], bool]:
    """The conjunction of the conditions `texts`, compiled once into one
    function of the frame.  It costs what a hand-written lambda does, where
    a closure per condition would add a call per condition to every row
    decided in every frame."""
    names: dict = {"rank3_exception": rank3_exception}
    body = " and ".join(_expression(text, names) for text in texts)
    return eval(f"lambda fr: {body}", names)


def _rule(
    rule_id: str, property_name: str, citation: str, scope: str,
    cases: tuple[Case, ...], special: Optional[str] = None,
) -> Rule:
    """A row whose guard is its `scope`: conditions split at ", " and "; "."""
    return Rule(
        rule_id, property_name, citation, scope, _compile(re.split("[,;] ", scope)),
        cases, special,
    )


def _cases(*cases: tuple[str, Strength, str]) -> tuple[Case, ...]:
    """A row's cases, each (label, strength, comparisons joined by " and ");
    each case but the last holds where its label, as a condition, does."""
    return tuple(
        Case(
            label, _compile([label]) if i < len(cases) - 1 else None, strength,
            text, _Parsed(map(_parse, text.split(" and "))),
        )
        for i, (label, strength, text) in enumerate(cases)
    )


def _only(strength: Strength, text: str) -> tuple[Case, ...]:
    """The one case of a row that does not branch."""
    return _cases(("", strength, text))


def _a1_dec_comps(fr: Frame) -> tuple[Comparison, ...]:
    return tuple(
        Comparison(
            f"b + mu({atom})", fr.b + atom.slope, ">=",
            Fraction(3 if atom.degree % atom.rank == 0 else 2),
        )
        for atom in fr.bundle.atoms
    )


# -- the catalog --------------------------------------------------------------

VERY_AMPLE_RULES: tuple[Rule, ...] = (
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
        cases=(
            Case("every summand", None, Strength.IFF,
                 "b + mu(E_j) >= 3 when deg = 0 (mod rank), else >= 2", _a1_dec_comps),
        ),
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
        cases=(
            Case(
                "every proper summand sub-sum Q", None, Strength.NECESSARY,
                "the restriction to P(Q) admits no negative rule (rank-1 Q: "
                "b + a*deg(Q) >= 3); screened on the Q that can fail first: "
                "the lowest line and each non-line atom",
                lambda fr: (),
            ),
        ),
        special="quotient",
    ),
)


AMPLE_RULES: tuple[Rule, ...] = (
    _rule(
        rule_id="R-AMPLE",
        property_name="ample",
        citation="Miyaoka's ampleness criterion via the pushforward slope",
        scope="every divisor",
        cases=_only(Strength.IFF, "a >= 1 and b + a*mu^-(E) > 0"),
    ),
)


GLOBALLY_GENERATED_RULES: tuple[Rule, ...] = (
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


NORMALLY_GENERATED_RULES: tuple[Rule, ...] = (
    _rule(
        rule_id="R-NG-BUTLER",
        property_name="normally_generated",
        citation="Butler's normal generation bound on a genus-one base",
        scope="a >= 1",
        cases=_only(Strength.SUFFICIENT, "b + a*mu^-(E) > 2"),
    ),
)


ALL_RULES: tuple[Rule, ...] = (
    VERY_AMPLE_RULES
    + AMPLE_RULES
    + GLOBALLY_GENERATED_RULES
    + NORMALLY_GENERATED_RULES
)
