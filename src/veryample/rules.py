"""The rule catalog: every classification criterion as one guarded row.

Each Rule is a datum, not code to read around: an id, a citation, a guard,
and the exact inequalities with their exact strictness.  The engine
(engine.py) decides every rule in every canonical frame and merges the
decisions; nothing in this file decides a verdict by itself.

Conventions shared by all rows.  Quantities are frame-local: inside a frame
l the bundle is E(l) and b means b - a*l.  mu^- is the minimal summand
slope, mu the total slope, and the slope invariant s = b + a*mu^-(E) does
not depend on the frame.  A guard that fails makes the rule inapplicable
(no conclusion may be drawn, not even a negative one); a failed iff or
necessary condition forces No; a failed sufficient condition forces
nothing.

A row is a guard and its cases.  Each case has a label, a condition, a
strength (iff, sufficient or necessary) and its comparisons, written once
as text such as "b + a/2 > 2".  In a frame where the guard holds, the first
case whose condition holds decides the row (`Rule.decide`).  Each text is
parsed once, when the catalog is built: its left-hand side names an entry
of `_LHS`, one function of the frame per label, each affine in (a, b), and
its right-hand side is a number or an entry of `_RHS`, the three that
depend on the rank.  Everything else is derived from the cases: the row's
strength (its first case's), the label and condition text `veryample
rules` prints, the rows that screen the quotient scrolls for R-QUOT-NEC
(every row whose strength is not sufficient), and the upper end of an
Unknown window, which the engine reads off each applicable sufficient row
whose only comparison is on s (`S_LABEL`): `s > t` leaves (.., t] open and
`s >= t` leaves (.., t) open.  Two rows are not plain text: R-A1-DEC
compares every summand, so its one case keeps a function, and R-QUOT-NEC
is decided by the engine's quotient screen (`special="quotient"`).

Only rows that can bind are kept.  A sufficient row implied by another
under the same guard (s >= 3 by R-BUTLER's s > 2), or a necessary row whose
every comparison R-QUOT-NEC makes on a single atom (the split rank-3
thresholds), never changes a verdict, a window or a binding rule.

Decision and record are separate: `Rule.decide` decides a row in a frame
(guard, deciding case, comparisons) without building anything, and
`Rule.record` keeps a decision as a RuleFiring that holds the comparisons;
their text is rendered only when the trail is read.  `Rule.evaluate` is the
two in one.  The engine decides each row once per frame, merges on the
decisions and records the same decisions when a trail is read.
"""

from __future__ import annotations

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
    """One case of a row: where it holds (`when`, None for every frame
    left), the strength it decides with there, and its comparisons, as
    written (`text`) and as evaluated in a frame (`comparisons`)."""

    label: str
    when: Optional[Callable[[Frame], bool]]
    strength: Strength
    text: str
    comparisons: Callable[[Frame], tuple[Comparison, ...]]


class Rule(NamedTuple):
    """One catalog row: a guard (`applies`, described by `scope`) and the
    cases that decide it where the guard holds."""

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
    label, rhs = text.split(f" {op} ")
    return label, _LHS[label], op, _RHS[rhs] if rhs in _RHS else Fraction(rhs)


def _case(
    label: str, when: Optional[Callable[[Frame], bool]], strength: Strength, text: str
) -> Case:
    """A case whose comparisons are `text`: inequalities joined by " and "."""
    return Case(label, when, strength, text, _Parsed(map(_parse, text.split(" and "))))


def _only(strength: Strength, text: str) -> tuple[Case, ...]:
    """The one case of a row that does not branch."""
    return (_case("", None, strength, text),)


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
    Rule(
        rule_id="R-FIBER",
        property_name="very_ample",
        citation="restriction to any fiber is O(a) on projective space",
        scope="every divisor",
        applies=lambda fr: True,
        cases=_only(Strength.NECESSARY, "a >= 1"),
    ),
    Rule(
        rule_id="R-MIYAOKA",
        property_name="very_ample",
        citation="Miyaoka's ampleness criterion via the pushforward slope",
        scope="every divisor",
        applies=lambda fr: True,
        cases=_only(Strength.NECESSARY, "a >= 1 and b + a*mu^-(E) > 0"),
    ),
    Rule(
        rule_id="R-BUTLER",
        property_name="very_ample",
        citation="Butler's bound on a genus-one base",
        scope="a >= 1",
        applies=lambda fr: fr.a >= 1,
        cases=_only(Strength.SUFFICIENT, "b + a*mu^-(E) > 2"),
    ),
    Rule(
        rule_id="R-D0MODR",
        property_name="very_ample",
        citation="Gushel's criterion for twists of degree-zero bundles",
        scope="a >= 1, indecomposable, deg = 0 (mod rank)",
        applies=lambda fr: fr.a >= 1 and fr.indec and fr.deg % fr.rank == 0,
        cases=_only(Strength.IFF, "b + a*mu(E) >= 3"),
    ),
    Rule(
        rule_id="R-A1-INDEC",
        property_name="very_ample",
        citation="Gushel's classification for a = 1",
        scope="a = 1, indecomposable",
        applies=lambda fr: fr.a == 1 and fr.indec,
        cases=(
            _case("deg = 0 (mod rank)", lambda fr: fr.deg % fr.rank == 0,
                  Strength.IFF, "b + mu(E) >= 3"),
            _case("otherwise", None, Strength.IFF, "b + mu(E) >= 2"),
        ),
    ),
    Rule(
        rule_id="R-A1-DEC",
        property_name="very_ample",
        citation="Gushel's classification for a = 1, summand by summand",
        scope="a = 1, decomposable",
        applies=lambda fr: fr.a == 1 and not fr.indec,
        cases=(
            Case("every summand", None, Strength.IFF,
                 "b + mu(E_j) >= 3 when deg = 0 (mod rank), else >= 2", _a1_dec_comps),
        ),
    ),
    Rule(
        rule_id="R-RK2-INDEC",
        property_name="very_ample",
        citation="Biancofiore-Livorni thresholds for elliptic ruled surfaces",
        scope="a >= 2, rank 2, indecomposable",
        applies=lambda fr: fr.a >= 2 and fr.rank == 2 and fr.indec,
        cases=(
            _case("deg even", lambda fr: fr.deg % 2 == 0,
                  Strength.IFF, "b + a*mu^-(E) >= 3"),
            _case("deg odd", None, Strength.IFF, "b + a*mu^-(E) > 1"),
        ),
    ),
    Rule(
        rule_id="R-RK2-DEC",
        property_name="very_ample",
        citation="rank-2 split threshold via unisecant sections",
        scope="a >= 2, rank 2, decomposable",
        applies=lambda fr: fr.a >= 2 and fr.rank == 2 and not fr.indec,
        cases=_only(Strength.IFF, "b + a*mu^-(E) >= 3"),
    ),
    Rule(
        rule_id="R-RK3-INDEC",
        property_name="very_ample",
        citation="rank-3 indecomposable thresholds by degree class mod 3",
        scope="a >= 2, rank 3, indecomposable",
        applies=lambda fr: fr.a >= 2 and fr.rank == 3 and fr.indec,
        cases=(
            _case("deg = 0 (mod 3)", lambda fr: fr.deg % 3 == 0,
                  Strength.IFF, "b + a*mu^-(E) >= 3"),
            _case("deg = 1", lambda fr: fr.deg % 3 == 1,
                  Strength.SUFFICIENT, "b + a*mu^-(E) > 1"),
            _case("deg = 2", None, Strength.SUFFICIENT, "b + a*mu^-(E) > 4/3"),
        ),
    ),
    Rule(
        rule_id="R-RK3-DEC",
        property_name="very_ample",
        citation="rank-3 split classification",
        scope="a >= 2, rank 3, decomposable",
        applies=lambda fr: fr.a >= 2 and fr.rank == 3 and not fr.indec,
        cases=(
            _case("outside the exceptional family",
                  lambda fr: not rank3_exception(fr.bundle),
                  Strength.IFF, "b + a*mu^-(E) >= 3"),
            _case("line L + odd rank-2 G with deg L > deg G/2", None,
                  Strength.SUFFICIENT, "b + a*mu^-(E) >= 3"),
        ),
    ),
    Rule(
        rule_id="R-R4D3",
        property_name="very_ample",
        citation="rank-4 degree-3 classification",
        scope=(
            "a >= 2, rank 4, frame degree 3; indecomposable needs "
            "b + a*mu(E) > 3/4, decomposable needs E ample and b + a/3 > 1/3"
        ),
        applies=lambda fr: fr.a >= 2 and fr.rank == 4 and fr.deg == 3 and (
            fr.s > Fraction(3, 4) if fr.indec
            else fr.ample and fr.b + Fraction(fr.a, 3) > Fraction(1, 3)
        ),
        cases=(
            _case("indecomposable", lambda fr: fr.indec, Strength.IFF, "b + a >= 3"),
            _case("decomposable", None, Strength.SUFFICIENT, "b + a/2 > 2"),
        ),
    ),
    Rule(
        rule_id="R-D3ANYR",
        property_name="very_ample",
        citation="degree-3 induction bound, any rank >= 4",
        scope="a >= 2, rank >= 4, frame degree 3, E ample, b + a*mu^-(E) > 3/5",
        applies=lambda fr: (
            fr.a >= 2 and fr.rank >= 4 and fr.deg == 3 and fr.ample and fr.s > Fraction(3, 5)
        ),
        cases=_only(Strength.SUFFICIENT, "b + a/2 > 2 and b + a/3 > 1/3"),
    ),
    Rule(
        rule_id="R-D2-INDEC",
        property_name="very_ample",
        citation="degree-2 indecomposable induction bound",
        scope="a >= 2, rank >= 4, frame degree 2, indecomposable",
        applies=lambda fr: fr.a >= 2 and fr.rank >= 4 and fr.deg == 2 and fr.indec,
        cases=(
            _case("rank 4", lambda fr: fr.rank == 4, Strength.SUFFICIENT, "b + a/2 > 2"),
            _case("rank >= 5", None, Strength.SUFFICIENT,
                  "b + a/2 > 2 and b + a/3 > 1/3 and b + 2a/r > 1 + 1/r"),
        ),
    ),
    Rule(
        rule_id="R-D2-DEC",
        property_name="very_ample",
        citation="degree-2 split induction bound",
        scope="a >= 2, rank >= 4, frame degree 2, decomposable, E ample",
        applies=lambda fr: (
            fr.a >= 2 and fr.rank >= 4 and fr.deg == 2 and not fr.indec and fr.ample
        ),
        cases=(
            _case("rank 4", lambda fr: fr.rank == 4, Strength.SUFFICIENT,
                  "b + a/2 > 2 and b + a*mu^-(E) > 3/2"),
            _case("rank >= 5", None, Strength.SUFFICIENT,
                  "b + a*mu^-(E) > 1 + 2/r and b + a/3 > 1/3 and b + a/2 > 2"),
        ),
    ),
    Rule(
        rule_id="R-D1-INDEC",
        property_name="very_ample",
        citation="degree-1 indecomposable induction bound",
        scope="a >= 2, rank >= 4, frame degree 1, indecomposable, b + a/r > 1",
        applies=lambda fr: (
            fr.a >= 2 and fr.rank >= 4 and fr.deg == 1 and fr.indec
            and fr.b + Fraction(fr.a, fr.rank) > 1
        ),
        cases=(
            _case("rank 4", lambda fr: fr.rank == 4, Strength.SUFFICIENT, "b + a/2 > 2"),
            _case("rank 5", lambda fr: fr.rank == 5, Strength.SUFFICIENT,
                  "b + a/3 > 3/2 and b + a/2 > 2"),
            _case("rank >= 6", None, Strength.SUFFICIENT,
                  "b + a/(r-2) > 1 + 2/(r-1) and b + a/2 > 2"),
        ),
    ),
    Rule(
        rule_id="R-DGE4",
        property_name="very_ample",
        citation="mid-degree induction bound, 4 <= deg < rank",
        scope="a >= 2, 4 <= frame degree < rank, E ample",
        applies=lambda fr: fr.a >= 2 and 4 <= fr.deg < fr.rank and fr.ample,
        cases=_only(Strength.SUFFICIENT, "b + a/(d-1) > 2 and b + (a-1)*mu^-(E) > 0"),
    ),
    Rule(
        rule_id="R-RD1",
        property_name="very_ample",
        citation="corank-one bound, rank = degree + 1",
        scope="a >= 2, indecomposable, frame degree >= 4, rank = degree + 1",
        applies=lambda fr: (
            fr.a >= 2 and fr.indec and fr.deg >= 4 and fr.rank == fr.deg + 1
        ),
        cases=_only(Strength.SUFFICIENT, "b + (a-1)*mu(E) > 0 and b + a > 2"),
    ),
    Rule(
        rule_id="R-QUOT-NEC",
        property_name="very_ample",
        citation="necessity via restriction to quotient scrolls P(Q)",
        scope="a >= 1, decomposable",
        applies=lambda fr: fr.a >= 1 and not fr.indec,
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
    Rule(
        rule_id="R-AMPLE",
        property_name="ample",
        citation="Miyaoka's ampleness criterion via the pushforward slope",
        scope="every divisor",
        applies=lambda fr: True,
        cases=_only(Strength.IFF, "a >= 1 and b + a*mu^-(E) > 0"),
    ),
)


GLOBALLY_GENERATED_RULES: tuple[Rule, ...] = (
    Rule(
        rule_id="R-GG-A1",
        property_name="globally_generated",
        citation="Gushel's global generation equivalence for a = 1",
        scope="a = 1",
        applies=lambda fr: fr.a == 1,
        cases=_only(Strength.IFF, "b + mu^-(E) > 1"),
    ),
    Rule(
        rule_id="R-GG-SLOPE",
        property_name="globally_generated",
        citation="global generation from the pushforward slope",
        scope="a >= 1",
        applies=lambda fr: fr.a >= 1,
        cases=_only(Strength.SUFFICIENT, "b + a*mu^-(E) > 1"),
    ),
)


NORMALLY_GENERATED_RULES: tuple[Rule, ...] = (
    Rule(
        rule_id="R-NG-BUTLER",
        property_name="normally_generated",
        citation="Butler's normal generation bound on a genus-one base",
        scope="a >= 1",
        applies=lambda fr: fr.a >= 1,
        cases=_only(Strength.SUFFICIENT, "b + a*mu^-(E) > 2"),
    ),
)


ALL_RULES: tuple[Rule, ...] = (
    VERY_AMPLE_RULES
    + AMPLE_RULES
    + GLOBALLY_GENERATED_RULES
    + NORMALLY_GENERATED_RULES
)
