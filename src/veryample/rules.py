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

Strength is data on the row.  `strength` is iff, sufficient or necessary;
a branching row (R-RK3-INDEC, R-RK3-DEC, R-R4D3) is iff except in the
frames where its `sufficient_when` predicate holds, where it is only
sufficient.  Everything else the engine needs is derived from these two
fields: the strength a row decides in a frame (`Rule.decide`), the label
`veryample rules` prints, the rows that screen the quotient scrolls for
R-QUOT-NEC (every row that is not sufficient), and the upper end of an
Unknown window, which the engine reads off each applicable sufficient row
whose only comparison is on s (`S_LABEL`): `s > t` leaves (.., t] open and
`s >= t` leaves (.., t) open.

Only rows that can bind are kept.  A sufficient row implied by another
under the same guard (s >= 3 by R-BUTLER's s > 2), or a necessary row whose
every comparison R-QUOT-NEC makes on a single atom (the split rank-3
thresholds), never changes a verdict, a window or a binding rule.

Decision and record are separate: `Rule.decide` decides a row in a frame
(guard, strength there, comparisons) without building anything, and
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


class Rule(NamedTuple):
    """One catalog row.  strength is the row's strength wherever it applies,
    except that a branching row drops to sufficient in the frames where
    sufficient_when holds."""

    rule_id: str
    property_name: str
    citation: str
    scope: str
    statement: str
    strength: Strength
    applies: Callable[[Frame], bool]
    comparisons: Callable[[Frame], tuple[Comparison, ...]]
    sufficient_when: Optional[Callable[[Frame], bool]] = None
    special: Optional[str] = None

    @property
    def strength_label(self) -> str:
        if self.sufficient_when is None:
            return self.strength.value
        return f"{self.strength.value} / sufficient"

    def decide(
        self, frame: Frame
    ) -> tuple[Outcome, Optional[Strength], tuple[Comparison, ...]]:
        """(outcome, strength, comparisons) of the row in frame: the guard,
        then the strength there, then the comparisons.  Nothing is built
        or rendered; strength is None when the guard fails."""
        if not self.applies(frame):
            return Outcome.INAPPLICABLE, None, ()
        strength = self.strength
        if self.sufficient_when is not None and self.sufficient_when(frame):
            strength = Strength.SUFFICIENT
        comps = self.comparisons(frame)
        return _OUTCOMES[strength][all(c.holds for c in comps)], strength, comps

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


# -- comparison builders ----------------------------------------------------

def _cmp(label: str, lhs, op: str, rhs) -> Comparison:
    return Comparison(label, Fraction(lhs), op, Fraction(rhs))


# The label of every comparison on s; the engine reads the upper end of an
# Unknown window off the sufficient decisions that compare nothing else.
S_LABEL = "b + a*mu^-(E)"


def _s_cmp(fr: Frame, op: str, rhs) -> Comparison:
    return _cmp(S_LABEL, fr.s, op, rhs)


# -- individual rows ---------------------------------------------------------

def _a1_dec_comps(fr: Frame) -> tuple[Comparison, ...]:
    comps = []
    for atom in fr.bundle.atoms:
        need = 3 if atom.degree % atom.rank == 0 else 2
        comps.append(_cmp(f"b + mu({atom})", fr.b + atom.slope, ">=", need))
    return tuple(comps)


def _rk3_indec_comps(fr: Frame) -> tuple[Comparison, ...]:
    m = fr.deg % 3
    if m == 0:
        return (_s_cmp(fr, ">=", 3),)
    if m == 1:
        return (_s_cmp(fr, ">", 1),)
    return (_s_cmp(fr, ">", Fraction(4, 3)),)


def _r4d3_applies(fr: Frame) -> bool:
    if not (fr.a >= 2 and fr.rank == 4 and fr.deg == 3):
        return False
    if fr.indec:
        return fr.s > Fraction(3, 4)
    return fr.ample and fr.b + Fraction(fr.a, 3) > Fraction(1, 3)


def _r4d3_comps(fr: Frame) -> tuple[Comparison, ...]:
    if fr.indec:
        return (_cmp("b + a", fr.b + fr.a, ">=", 3),)
    return (_cmp("b + a/2", fr.b + Fraction(fr.a, 2), ">", 2),)


def _d2_indec_comps(fr: Frame) -> tuple[Comparison, ...]:
    half = _cmp("b + a/2", fr.b + Fraction(fr.a, 2), ">", 2)
    if fr.rank == 4:
        return (half,)
    r = fr.rank
    return (
        half,
        _cmp("b + a/3", fr.b + Fraction(fr.a, 3), ">", Fraction(1, 3)),
        _cmp("b + 2a/r", fr.b + Fraction(2 * fr.a, r), ">", 1 + Fraction(1, r)),
    )


def _d2_dec_comps(fr: Frame) -> tuple[Comparison, ...]:
    half = _cmp("b + a/2", fr.b + Fraction(fr.a, 2), ">", 2)
    if fr.rank == 4:
        return (half, _s_cmp(fr, ">", Fraction(3, 2)))
    r = fr.rank
    return (
        _s_cmp(fr, ">", 1 + Fraction(2, r)),
        _cmp("b + a/3", fr.b + Fraction(fr.a, 3), ">", Fraction(1, 3)),
        half,
    )


def _d1_indec_comps(fr: Frame) -> tuple[Comparison, ...]:
    half = _cmp("b + a/2", fr.b + Fraction(fr.a, 2), ">", 2)
    r = fr.rank
    if r == 4:
        return (half,)
    if r == 5:
        return (_cmp("b + a/3", fr.b + Fraction(fr.a, 3), ">", Fraction(3, 2)), half)
    return (
        _cmp(
            "b + a/(r-2)",
            fr.b + Fraction(fr.a, r - 2),
            ">",
            1 + Fraction(2, r - 1),
        ),
        half,
    )


def _dge4_comps(fr: Frame) -> tuple[Comparison, ...]:
    return (
        _cmp("b + a/(d-1)", fr.b + Fraction(fr.a, fr.deg - 1), ">", 2),
        _cmp("b + (a-1)*mu^-(E)", fr.b + (fr.a - 1) * fr.mu_minus, ">", 0),
    )


VERY_AMPLE_RULES: tuple[Rule, ...] = (
    Rule(
        rule_id="R-FIBER",
        property_name="very_ample",
        citation="restriction to any fiber is O(a) on projective space",
        scope="every divisor",
        statement="a >= 1",
        applies=lambda fr: True,
        strength=Strength.NECESSARY,
        comparisons=lambda fr: (_cmp("a", fr.a, ">=", 1),),
    ),
    Rule(
        rule_id="R-MIYAOKA",
        property_name="very_ample",
        citation="Miyaoka's ampleness criterion via the pushforward slope",
        scope="every divisor",
        statement="a >= 1 and b + a*mu^-(E) > 0",
        applies=lambda fr: True,
        strength=Strength.NECESSARY,
        comparisons=lambda fr: (_cmp("a", fr.a, ">=", 1), _s_cmp(fr, ">", 0)),
    ),
    Rule(
        rule_id="R-BUTLER",
        property_name="very_ample",
        citation="Butler's bound on a genus-one base",
        scope="a >= 1",
        statement="b + a*mu^-(E) > 2",
        applies=lambda fr: fr.a >= 1,
        strength=Strength.SUFFICIENT,
        comparisons=lambda fr: (_s_cmp(fr, ">", 2),),
    ),
    Rule(
        rule_id="R-D0MODR",
        property_name="very_ample",
        citation="Gushel's criterion for twists of degree-zero bundles",
        scope="a >= 1, indecomposable, deg = 0 (mod rank)",
        statement="b + a*mu(E) >= 3",
        applies=lambda fr: fr.a >= 1 and fr.indec and fr.deg % fr.rank == 0,
        strength=Strength.IFF,
        comparisons=lambda fr: (_cmp("b + a*mu(E)", fr.b + fr.a * fr.mu, ">=", 3),),
    ),
    Rule(
        rule_id="R-A1-INDEC",
        property_name="very_ample",
        citation="Gushel's classification for a = 1",
        scope="a = 1, indecomposable",
        statement="b + mu(E) >= 3 when deg = 0 (mod rank), else b + mu(E) >= 2",
        applies=lambda fr: fr.a == 1 and fr.indec,
        strength=Strength.IFF,
        comparisons=lambda fr: (
            _cmp(
                "b + mu(E)",
                fr.b + fr.mu,
                ">=",
                3 if fr.deg % fr.rank == 0 else 2,
            ),
        ),
    ),
    Rule(
        rule_id="R-A1-DEC",
        property_name="very_ample",
        citation="Gushel's classification for a = 1, summand by summand",
        scope="a = 1, decomposable",
        statement="every summand: b + mu(E_j) >= 3 when deg = 0 (mod rank), else >= 2",
        applies=lambda fr: fr.a == 1 and not fr.indec,
        strength=Strength.IFF,
        comparisons=_a1_dec_comps,
    ),
    Rule(
        rule_id="R-RK2-INDEC",
        property_name="very_ample",
        citation="Biancofiore-Livorni thresholds for elliptic ruled surfaces",
        scope="a >= 2, rank 2, indecomposable",
        statement="deg even: b + a*mu^-(E) >= 3; deg odd: b + a*mu^-(E) > 1",
        applies=lambda fr: fr.a >= 2 and fr.rank == 2 and fr.indec,
        strength=Strength.IFF,
        comparisons=lambda fr: (
            _s_cmp(fr, ">=", 3) if fr.deg % 2 == 0 else _s_cmp(fr, ">", 1),
        ),
    ),
    Rule(
        rule_id="R-RK2-DEC",
        property_name="very_ample",
        citation="rank-2 split threshold via unisecant sections",
        scope="a >= 2, rank 2, decomposable",
        statement="b + a*mu^-(E) >= 3",
        applies=lambda fr: fr.a >= 2 and fr.rank == 2 and not fr.indec,
        strength=Strength.IFF,
        comparisons=lambda fr: (_s_cmp(fr, ">=", 3),),
    ),
    Rule(
        rule_id="R-RK3-INDEC",
        property_name="very_ample",
        citation="rank-3 indecomposable thresholds by degree class mod 3",
        scope="a >= 2, rank 3, indecomposable",
        statement=(
            "deg = 0 (mod 3): iff b + a*mu^-(E) >= 3; "
            "deg = 1: sufficient b + a*mu^-(E) > 1; "
            "deg = 2: sufficient b + a*mu^-(E) > 4/3"
        ),
        applies=lambda fr: fr.a >= 2 and fr.rank == 3 and fr.indec,
        strength=Strength.IFF,
        comparisons=_rk3_indec_comps,
        sufficient_when=lambda fr: fr.deg % 3 != 0,
    ),
    Rule(
        rule_id="R-RK3-DEC",
        property_name="very_ample",
        citation="rank-3 split classification",
        scope="a >= 2, rank 3, decomposable",
        statement="b + a*mu^-(E) >= 3 (iff outside the exceptional family)",
        applies=lambda fr: fr.a >= 2 and fr.rank == 3 and not fr.indec,
        strength=Strength.IFF,
        comparisons=lambda fr: (_s_cmp(fr, ">=", 3),),
        sufficient_when=lambda fr: rank3_exception(fr.bundle),
    ),
    Rule(
        rule_id="R-R4D3",
        property_name="very_ample",
        citation="rank-4 degree-3 classification",
        scope=(
            "a >= 2, rank 4, frame degree 3; indecomposable needs "
            "b + a*mu(E) > 3/4, decomposable needs E ample and b + a/3 > 1/3"
        ),
        statement=(
            "indecomposable: iff b + a >= 3; decomposable: sufficient b + a/2 > 2"
        ),
        applies=_r4d3_applies,
        strength=Strength.IFF,
        comparisons=_r4d3_comps,
        sufficient_when=lambda fr: not fr.indec,
    ),
    Rule(
        rule_id="R-D3ANYR",
        property_name="very_ample",
        citation="degree-3 induction bound, any rank >= 4",
        scope="a >= 2, rank >= 4, frame degree 3, E ample, b + a*mu^-(E) > 3/5",
        statement="b + a/2 > 2 and b + a/3 > 1/3",
        applies=lambda fr: fr.a >= 2
        and fr.rank >= 4
        and fr.deg == 3
        and fr.ample
        and fr.s > Fraction(3, 5),
        strength=Strength.SUFFICIENT,
        comparisons=lambda fr: (
            _cmp("b + a/2", fr.b + Fraction(fr.a, 2), ">", 2),
            _cmp("b + a/3", fr.b + Fraction(fr.a, 3), ">", Fraction(1, 3)),
        ),
    ),
    Rule(
        rule_id="R-D2-INDEC",
        property_name="very_ample",
        citation="degree-2 indecomposable induction bound",
        scope="a >= 2, rank >= 4, frame degree 2, indecomposable",
        statement=(
            "rank 4: b + a/2 > 2; rank >= 5: b + a/2 > 2 and b + a/3 > 1/3 "
            "and b + 2a/r > 1 + 1/r"
        ),
        applies=lambda fr: fr.a >= 2 and fr.rank >= 4 and fr.deg == 2 and fr.indec,
        strength=Strength.SUFFICIENT,
        comparisons=_d2_indec_comps,
    ),
    Rule(
        rule_id="R-D2-DEC",
        property_name="very_ample",
        citation="degree-2 split induction bound",
        scope="a >= 2, rank >= 4, frame degree 2, decomposable, E ample",
        statement=(
            "rank 4: b + a/2 > 2 and b + a*mu^-(E) > 3/2; "
            "rank >= 5: b + a*mu^-(E) > 1 + 2/r and b + a/3 > 1/3 and b + a/2 > 2"
        ),
        applies=lambda fr: fr.a >= 2
        and fr.rank >= 4
        and fr.deg == 2
        and not fr.indec
        and fr.ample,
        strength=Strength.SUFFICIENT,
        comparisons=_d2_dec_comps,
    ),
    Rule(
        rule_id="R-D1-INDEC",
        property_name="very_ample",
        citation="degree-1 indecomposable induction bound",
        scope="a >= 2, rank >= 4, frame degree 1, indecomposable, b + a/r > 1",
        statement=(
            "rank 4: b + a/2 > 2; rank 5: b + a/3 > 3/2 and b + a/2 > 2; "
            "rank >= 6: b + a/(r-2) > 1 + 2/(r-1) and b + a/2 > 2"
        ),
        applies=lambda fr: fr.a >= 2
        and fr.rank >= 4
        and fr.deg == 1
        and fr.indec
        and fr.b + Fraction(fr.a, fr.rank) > 1,
        strength=Strength.SUFFICIENT,
        comparisons=_d1_indec_comps,
    ),
    Rule(
        rule_id="R-DGE4",
        property_name="very_ample",
        citation="mid-degree induction bound, 4 <= deg < rank",
        scope="a >= 2, 4 <= frame degree < rank, E ample",
        statement="b + a/(d-1) > 2 and b + (a-1)*mu^-(E) > 0",
        applies=lambda fr: fr.a >= 2 and 4 <= fr.deg < fr.rank and fr.ample,
        strength=Strength.SUFFICIENT,
        comparisons=_dge4_comps,
    ),
    Rule(
        rule_id="R-RD1",
        property_name="very_ample",
        citation="corank-one bound, rank = degree + 1",
        scope="a >= 2, indecomposable, frame degree >= 4, rank = degree + 1",
        statement="b + (a-1)*mu(E) > 0 and b + a > 2",
        applies=lambda fr: fr.a >= 2
        and fr.indec
        and fr.deg >= 4
        and fr.rank == fr.deg + 1,
        strength=Strength.SUFFICIENT,
        comparisons=lambda fr: (
            _cmp(
                "b + (a-1)*mu(E)",
                fr.b + (fr.a - 1) * fr.mu,
                ">",
                0,
            ),
            _cmp("b + a", fr.b + fr.a, ">", 2),
        ),
    ),
    Rule(
        rule_id="R-QUOT-NEC",
        property_name="very_ample",
        citation="necessity via restriction to quotient scrolls P(Q)",
        scope="a >= 1, decomposable",
        statement=(
            "every proper summand sub-sum Q: the restriction to P(Q) admits "
            "no negative rule (rank-1 Q: b + a*deg(Q) >= 3); screened on the "
            "Q that can fail first: the lowest line and each non-line atom"
        ),
        applies=lambda fr: fr.a >= 1 and not fr.indec,
        strength=Strength.NECESSARY,
        comparisons=lambda fr: (),
        special="quotient",
    ),
)


AMPLE_RULES: tuple[Rule, ...] = (
    Rule(
        rule_id="R-AMPLE",
        property_name="ample",
        citation="Miyaoka's ampleness criterion via the pushforward slope",
        scope="every divisor",
        statement="a >= 1 and b + a*mu^-(E) > 0",
        applies=lambda fr: True,
        strength=Strength.IFF,
        comparisons=lambda fr: (_cmp("a", fr.a, ">=", 1), _s_cmp(fr, ">", 0)),
    ),
)


GLOBALLY_GENERATED_RULES: tuple[Rule, ...] = (
    Rule(
        rule_id="R-GG-A1",
        property_name="globally_generated",
        citation="Gushel's global generation equivalence for a = 1",
        scope="a = 1",
        statement="b + mu^-(E) > 1",
        applies=lambda fr: fr.a == 1,
        strength=Strength.IFF,
        comparisons=lambda fr: (
            _cmp("b + mu^-(E)", fr.b + fr.mu_minus, ">", 1),
        ),
    ),
    Rule(
        rule_id="R-GG-SLOPE",
        property_name="globally_generated",
        citation="global generation from the pushforward slope",
        scope="a >= 1",
        statement="b + a*mu^-(E) > 1",
        applies=lambda fr: fr.a >= 1,
        strength=Strength.SUFFICIENT,
        comparisons=lambda fr: (_s_cmp(fr, ">", 1),),
    ),
)


NORMALLY_GENERATED_RULES: tuple[Rule, ...] = (
    Rule(
        rule_id="R-NG-BUTLER",
        property_name="normally_generated",
        citation="Butler's normal generation bound on a genus-one base",
        scope="a >= 1",
        statement="b + a*mu^-(E) > 2",
        applies=lambda fr: fr.a >= 1,
        strength=Strength.SUFFICIENT,
        comparisons=lambda fr: (_s_cmp(fr, ">", 2),),
    ),
)


ALL_RULES: tuple[Rule, ...] = (
    VERY_AMPLE_RULES
    + AMPLE_RULES
    + GLOBALLY_GENERATED_RULES
    + NORMALLY_GENERATED_RULES
)
