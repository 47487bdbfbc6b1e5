"""Decision and merge: from the rule catalog to a single Verdict.

Every classification follows the same path: build the canonical twist
frame, decide every catalog row in it, then merge the decisions under
the lattice  No  >  Yes(iff)  >  Yes(sufficient)  >  Unknown.  A
simultaneous Yes and No is not a tie to break: it means the catalog is
transcribed wrong, and it raises ContradictionError instead of returning
anything.

Deciding builds no record.  Each row is decided once, R-QUOT-NEC too: it
is No as soon as one screened sub-sum Q has a negative witness, so its
screen stops there.  The verdict binds on these decisions, reads its
Unknown window off them, and keeps them: the first read of its `firings`
records them as the trail, in which only R-QUOT-NEC is screened again, for
one firing per screened sub-sum.

The quotient screen.  R-QUOT-NEC restricts D to the quotient scrolls P(Q),
Q a proper sub-sum of E's atoms, and says No when a row that can say No
(`_SCREEN_RULES`; on a line Q the curve threshold b + a*deg(Q) >= 3)
rejects one of them.  It runs only at a >= 1.  The decision and the trail
both read one set of sub-sums, `_proper_sub_multisets`: the lowest-degree
line and every distinct non-line atom, at most n + 1 for n distinct atoms
instead of all prod(m_i + 1) - 2.  No sub-sum left out can carry a witness
that a kept one does not.  On a decomposable Q the only screen rows that
can say No are R-FIBER (never at a >= 1), R-MIYAOKA, R-A1-DEC, R-RK2-DEC,
and R-RK3-DEC outside `rank3_exception`; every other row is sufficient on
a decomposable bundle or does not apply to one.  A No from any of them shows on
one atom A of Q: the minimal-slope atom for R-MIYAOKA, R-RK2-DEC and
R-RK3-DEC (b + a*mu(A) then fails R-MIYAOKA, R-D0MODR or, on a line, the
curve threshold), and the atom it names for R-A1-DEC (which fails
R-A1-INDEC or the curve threshold).  A line's No also shows on the lowest
line, because the curve threshold drops with the degree.  An odd rank-2 G
of minimal slope in L + G is exactly `rank3_exception`, where R-RK3-DEC is
only sufficient.  The tests check these assumptions against the catalog, and
the decision against the full enumeration, so a catalog edit that breaks
the pruning fails them.

Frames: twisting E by a degree-l line bundle re-coordinatizes P(E) and
sends aT + bf to aT + (b - a*l)f.  The canonical frame is the twist l0 with
0 <= deg E(l0) < rank; in any other frame each row is inapplicable or
decides as in l0.  The rows guarded by a frame degree (R-R4D3, R-D3ANYR,
R-D2-*, R-D1-INDEC, R-DGE4, R-RD1) need one in 1..rank - 1, which only l0
has, and only they read b + a, b + a/k or "E ample".  Every other row reads
what a twist keeps: a, s, b + a*mu(E), the rank, deg mod rank,
indecomposability, `rank3_exception`, and at a = 1 b + mu(E), b + mu^-(E)
and each b + mu(A).  The tests check this for every row in frame l0 + 1.
The slope invariant and all verdicts are frame-independent; the firing
records keep the frame they fired in (R-QUOT-NEC's is the untwisted one).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Sequence

from ._frozen import validated_make
from .atiyah import pushforward_mu_minus
from .bundles import Bundle
from .errors import ContradictionError, DomainError
from .rules import (
    AMPLE_RULES,
    GLOBALLY_GENERATED_RULES,
    NORMALLY_GENERATED_RULES,
    S_LABEL,
    VERY_AMPLE_RULES,
    Frame,
    Rule,
)
from .verdicts import (
    Comparison,
    Outcome,
    RuleFiring,
    Status,
    Strength,
    Verdict,
    Window,
)

__all__ = [
    "Divisor",
    "canonical_frames",
    "applicable_rules",
    "classify_ample",
    "classify_globally_generated",
    "classify_normally_generated",
    "classify_very_ample",
]


class _DivisorFields(NamedTuple):
    a: int
    b: int


class Divisor(_DivisorFields):
    """The numerical divisor class aT + bf on P(E).  The numerical classes
    of P(E) are ZT + Zf, so a and b are integers: any other value, a bool
    included, raises DomainError."""

    __slots__ = ()
    _make = classmethod(validated_make)

    def __new__(cls, a: int, b: int) -> "Divisor":
        for name, value in (("a", a), ("b", b)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise DomainError(
                    f"divisor coefficient {name} must be an integer, got {value!r}"
                )
        return tuple.__new__(cls, (a, b))

    def __str__(self) -> str:
        return f"{self.a}T{self.b:+d}f"


def _require_projective_bundle(E: Bundle) -> None:
    if E.rank < 2:
        raise DomainError(
            f"divisor classification needs rank >= 2; P({E}) has rank {E.rank}"
        )


@lru_cache(maxsize=8192)
def _twisted(E: Bundle, l: int) -> Bundle:
    # sweeps hit the same (bundle, twist) pairs for every divisor cell
    return E.twist(l)


def canonical_frames(E: Bundle, D: Divisor) -> tuple[Frame, ...]:
    """The one canonical frame, as a one-element tuple: the twist l0 with
    0 <= deg E(l0) < rank, carrying the transformed divisor coefficient
    b - a*l0 (module docstring)."""
    l = -(E.degree // E.rank)
    return (Frame(l, _twisted(E, l), D.a, D.b - D.a * l),)


# -- quotient-scroll necessity (R-QUOT-NEC) ----------------------------------

# Rows that can output No; sufficient-only rows are pointless when screening
# restrictions for a negative witness.
_SCREEN_RULES = tuple(
    r for r in VERY_AMPLE_RULES
    if r.strength is not Strength.SUFFICIENT and r.special != "quotient"
)


@lru_cache(maxsize=2048)
def _proper_sub_multisets(E: Bundle) -> tuple[Bundle, ...]:
    """The proper sub-sums the quotient screen visits, in (rank, atoms)
    order: the lowest line and each distinct non-line atom (module
    docstring)."""
    # atoms sort by (rank, degree), so a line E.atoms[0] is the lowest one
    subs = {Bundle((A,)) for A in E.atoms if A.rank > 1 or A == E.atoms[0]}
    subs.discard(E)
    return tuple(sorted(subs, key=lambda Q: (Q.rank, Q.atoms)))


def _curve_comparison(Q: Bundle, D: Divisor) -> Comparison:
    # restriction to the section cut by a line-bundle sub-sum lands on the
    # base curve, where very ample means degree >= 3
    return Comparison(
        f"b + a*deg({Q})", Fraction(D.b + D.a * Q.degree), ">=", Fraction(3)
    )


def _negative_witness(
    Q: Bundle, D: Divisor
) -> Optional[tuple[str, tuple[Comparison, ...]]]:
    """The name and comparisons of the first negative-capable row that
    rejects the restriction to P(Q), or None when none does."""
    if Q.rank == 1:
        comp = _curve_comparison(Q, D)
        return None if comp.holds else ("curve threshold", (comp,))
    frame, = canonical_frames(Q, D)
    for rule in _SCREEN_RULES:
        outcome, _, comps = rule.decide(frame)
        if outcome is Outcome.NO:
            return rule.rule_id, comps
    return None


def _quotient_firings(rule: Rule, whole: Frame, D: Divisor) -> list[RuleFiring]:
    """R-QUOT-NEC's firings in the untwisted frame of a bundle it applies
    to, one per screened sub-sum."""
    firings = []
    for Q in _proper_sub_multisets(whole.bundle):
        witness = _negative_witness(Q, D)
        if witness is None:
            outcome = Outcome.PASS
            note = f"restriction to P({Q}): no negative rule applies; "
            comps = (
                _curve_comparison(Q, D)
                if Q.rank == 1
                else Comparison(
                    f"b + a*mu^-({Q})", D.b + D.a * Q.mu_minus, ">", Fraction(0)
                ),
            )
        else:
            outcome, (rejecter, comps) = Outcome.NO, witness
            note = f"restriction to P({Q}) is rejected by {rejecter}: "
        firing = rule.record(whole, outcome, Strength.NECESSARY, comps)
        firings.append(firing._replace(note=note))
    return firings


# -- decision, trail and merge -----------------------------------------------

class _Decision(NamedTuple):
    """One row decided in one frame: what Rule.decide returns there.  The
    fields _merge reads are fields of a RuleFiring too."""

    rule: Rule
    frame: Frame
    outcome: Outcome
    strength: Optional[Strength]
    comparisons: tuple[Comparison, ...]

    @property
    def rule_id(self) -> str:
        return self.rule.rule_id


def _decide_catalog(
    rules: tuple[Rule, ...], E: Bundle, D: Divisor
) -> list[_Decision]:
    """Every row decided once, in the canonical frame.  R-QUOT-NEC is
    decided in the untwisted frame, and its pass turns into No at the
    first screened sub-sum with a negative witness."""
    frame, = canonical_frames(E, D)
    decisions = []
    for rule in rules:
        if rule.special == "quotient":
            whole = Frame(0, E, D.a, D.b)
            outcome, strength, comps = rule.decide(whole)
            if outcome is Outcome.PASS and any(
                _negative_witness(Q, D) is not None for Q in _proper_sub_multisets(E)
            ):
                outcome = Outcome.NO
            decisions.append(_Decision(rule, whole, outcome, strength, comps))
        else:
            decisions.append(_Decision(rule, frame, *rule.decide(frame)))
    return decisions


def _trail(decisions: Sequence[_Decision], D: Divisor) -> tuple[RuleFiring, ...]:
    """The firings of decisions, sorted by rule id: each decision
    recorded, except that an applicable R-QUOT-NEC becomes one firing per
    screened sub-sum."""
    firings: list[RuleFiring] = []
    for rule, frame, outcome, strength, comps in decisions:
        if rule.special == "quotient" and outcome is not Outcome.INAPPLICABLE:
            firings.extend(_quotient_firings(rule, frame, D))
        else:
            firings.append(rule.record(frame, outcome, strength, comps))
    firings.sort(key=lambda f: f.rule_id)
    return tuple(firings)


def _evaluate_catalog(
    rules: tuple[Rule, ...], E: Bundle, D: Divisor
) -> tuple[RuleFiring, ...]:
    """The firing trail of a fresh decision of every row."""
    return _trail(_decide_catalog(rules, E, D), D)


_AFFIRMATIVE_RANK = {Strength.IFF: 0, Strength.SUFFICIENT: 1}
_NEGATIVE_RANK = {Strength.IFF: 0, Strength.NECESSARY: 1}


def _merge(
    property_name: str,
    E: Bundle,
    D: Divisor,
    decisions: Sequence[_Decision],
    lo: Optional[tuple[Fraction, bool]],
    trail: Callable[[], tuple[RuleFiring, ...]],
) -> Verdict:
    """Bind the verdict on decisions, or on the firings of a trail, which
    carry the same fields.  trail builds the firings the verdict shows when
    they are read."""
    s = pushforward_mu_minus(E, D.a, D.b)
    yes = [f for f in decisions if f.outcome is Outcome.YES]
    no = [f for f in decisions if f.outcome is Outcome.NO]
    if yes and no:
        # the message quotes the first of each in the trail, with its text
        firings = trail()
        yes = [f for f in firings if f.outcome is Outcome.YES]
        no = [f for f in firings if f.outcome is Outcome.NO]
        raise ContradictionError(
            f"rule table contradiction for {property_name} on P({E}) with "
            f"D = {D}: {yes[0].rule_id} concludes yes ({yes[0].condition}) "
            f"but {no[0].rule_id} concludes no ({no[0].condition})"
        )
    for status, found, ranking in (
        (Status.NO, no, _NEGATIVE_RANK), (Status.YES, yes, _AFFIRMATIVE_RANK)
    ):
        if found:
            # strongest first, then lowest rule id; the ties share both,
            # which is all a verdict keeps of its binding decision
            f = min(found, key=lambda d: (ranking[d.strength], d.rule_id))
            return Verdict(
                property_name, status, f.strength, f.rule_id, trail,
                slope_invariant=s,
            )
    # a sufficient s > t leaves (.., t] open, and s >= t leaves (.., t)
    hi = min(
        ((c.rhs, c.op == ">") for f in decisions
         if f.strength is Strength.SUFFICIENT and len(f.comparisons) == 1
         and (c := f.comparisons[0]).label == S_LABEL),
        default=None,
    )
    window = Window(
        lo=lo[0] if lo else None,
        lo_strict=lo[1] if lo else True,
        hi=hi[0] if hi else None,
        hi_inclusive=hi[1] if hi else False,
    )
    reason = (
        "open-range"
        if any(f.outcome is Outcome.INSUFFICIENT for f in decisions)
        else "no-applicable-rule"
    )
    return Verdict(
        property_name, Status.UNKNOWN, None, None, trail,
        unknown_window=window, unknown_reason=reason, slope_invariant=s,
    )


def applicable_rules(E: Bundle, D: Divisor) -> tuple[RuleFiring, ...]:
    """Every very-ampleness rule evaluated in the canonical frame,
    inapplicable rows included, ordered by rule id; R-QUOT-NEC fires in
    the untwisted frame, once per screened sub-sum."""
    _require_projective_bundle(E)
    return _evaluate_catalog(VERY_AMPLE_RULES, E, D)


def _classify(
    property_name: str,
    rules: tuple[Rule, ...],
    E: Bundle,
    D: Divisor,
    lo: Optional[tuple[Fraction, bool]],
) -> Verdict:
    decisions = _decide_catalog(rules, E, D)
    return _merge(
        property_name, E, D, decisions, lo, lambda: _trail(decisions, D)
    )


def classify_very_ample(E: Bundle, D: Divisor) -> Verdict:
    """Three-valued very-ampleness verdict; its full firing trail is built
    when `firings` is first read."""
    _require_projective_bundle(E)
    return _classify("very_ample", VERY_AMPLE_RULES, E, D, lo=(Fraction(0), True))


def classify_ample(E: Bundle, D: Divisor) -> bool:
    """aT + bf is ample iff a >= 1 and b + a*mu^-(E) > 0 (Miyaoka, R-AMPLE)."""
    _require_projective_bundle(E)
    return _classify("ample", AMPLE_RULES, E, D, lo=None).is_yes


def classify_globally_generated(E: Bundle, D: Divisor) -> Verdict:
    """Global generation: an iff for a = 1, a sufficient slope bound above.

    Never returns No for a >= 2: below the bound the answer genuinely varies
    (twice the tautological class on the odd rank-2 bundle is globally
    generated at slope invariant 1).
    """
    _require_projective_bundle(E)
    if D.a < 1:
        raise DomainError(f"global generation is classified for a >= 1, got a={D.a}")
    return _classify("globally_generated", GLOBALLY_GENERATED_RULES, E, D, lo=None)


def classify_normally_generated(E: Bundle, D: Divisor) -> Verdict:
    """Normal generation via the slope bound; only a sufficient direction
    is known, so the answer is Yes or Unknown, never No."""
    _require_projective_bundle(E)
    if D.a < 1:
        raise DomainError(f"normal generation is classified for a >= 1, got a={D.a}")
    return _classify("normally_generated", NORMALLY_GENERATED_RULES, E, D, lo=None)
