"""Decision and merge: from the rule catalog to a single Verdict.

Every classification follows the same path: build the canonical twist
frames, decide every catalog row in every frame, then merge the decisions
under the lattice  No  >  Yes(iff)  >  Yes(sufficient)  >  Unknown.  A
simultaneous Yes and No is not a tie to break: it means the catalog is
transcribed wrong, and it raises ContradictionError instead of returning
anything.

Deciding builds no record.  R-QUOT-NEC is one decision, No as soon as one
screened sub-sum Q has a negative witness, so its screen stops there.  The
firing trail (`_evaluate_catalog`: every row in every frame, one R-QUOT-NEC
firing per screened sub-sum) is built from scratch the first time a
verdict's `firings` is read, and holds exactly the outcomes that were
merged.

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
sends aT + bf to aT + (b - a*l)f.  The canonical frames are the two
consecutive twists with 0 <= deg E(l) <= 2*rank - 1; every degree-guarded
row sees the frame it wants there.  The slope invariant b + a*mu^-(E) and
all verdicts are frame-independent; the firing records keep the frame they
fired in.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Sequence, Union

from .atiyah import pushforward_mu_minus
from .bundles import Bundle
from .errors import ContradictionError, DomainError
from .rules import (
    AMPLE_RULES,
    GLOBALLY_GENERATED_RULES,
    NORMALLY_GENERATED_RULES,
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


class Divisor(NamedTuple):
    """The numerical divisor class aT + bf on P(E)."""

    a: int
    b: int

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
    """The two consecutive twists l with 0 <= deg E(l) <= 2*rank - 1.

    Returned in ascending l, each carrying the transformed divisor
    coefficient b - a*l.
    """
    r, d = E.rank, E.degree
    lo = -(d // r)
    hi = (2 * r - 1 - d) // r
    return tuple(
        Frame(l, _twisted(E, l), D.a, D.b - D.a * l) for l in range(lo, hi + 1)
    )


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
    for frame in canonical_frames(Q, D):
        for rule in _SCREEN_RULES:
            outcome, _, comps = rule.decide(frame)
            if outcome is Outcome.NO:
                return rule.rule_id, comps
    return None


def _quotient_firings(rule: Rule, E: Bundle, D: Divisor) -> list[RuleFiring]:
    whole = Frame(0, E, D.a, D.b)
    if not rule.applies(whole):
        return [rule.evaluate(whole)]
    firings = []
    for Q in _proper_sub_multisets(E):
        witness = _negative_witness(Q, D)
        if witness is None:
            note = f"restriction to P({Q}): no negative rule applies; "
            comps = (
                _curve_comparison(Q, D)
                if Q.rank == 1
                else Comparison(
                    f"b + a*mu^-({Q})", D.b + D.a * Q.mu_minus, ">", Fraction(0)
                ),
            )
        else:
            rejecter, comps = witness
            note = f"restriction to P({Q}) is rejected by {rejecter}: "
        firings.append(
            RuleFiring(
                rule_id=rule.rule_id,
                citation=rule.citation,
                strength=Strength.NECESSARY,
                outcome=Outcome.PASS if witness is None else Outcome.NO,
                frame=0,
                comparisons=comps,
                note=note,
            )
        )
    return firings


# -- decision, trail and merge -----------------------------------------------

class _Decision(NamedTuple):
    """What one row concluded in one frame: the fields _merge reads of a
    RuleFiring."""

    rule_id: str
    strength: Optional[Strength]
    outcome: Outcome


def _decide_catalog(
    rules: tuple[Rule, ...], E: Bundle, D: Divisor
) -> list[_Decision]:
    """Every row decided in every canonical frame, with the outcome and
    strength _evaluate_catalog records there.  R-QUOT-NEC is one decision:
    No if some sub-sum's firing would say No, which the screen knows at the
    first witness."""
    frames = canonical_frames(E, D)
    decisions = []
    for rule in rules:
        if rule.special == "quotient":
            if not rule.applies(Frame(0, E, D.a, D.b)):
                decisions.append(_Decision(rule.rule_id, None, Outcome.INAPPLICABLE))
                continue
            rejected = any(
                _negative_witness(Q, D) is not None for Q in _proper_sub_multisets(E)
            )
            outcome = Outcome.NO if rejected else Outcome.PASS
            decisions.append(_Decision(rule.rule_id, Strength.NECESSARY, outcome))
            continue
        for frame in frames:
            outcome, strength, _ = rule.decide(frame)
            decisions.append(_Decision(rule.rule_id, strength, outcome))
    return decisions


def _evaluate_catalog(
    rules: tuple[Rule, ...], E: Bundle, D: Divisor
) -> tuple[RuleFiring, ...]:
    """The firing trail: every row evaluated in every canonical frame, one
    R-QUOT-NEC firing per proper sub-sum, sorted by (rule id, frame)."""
    frames = canonical_frames(E, D)
    firings: list[RuleFiring] = []
    for rule in rules:
        if rule.special == "quotient":
            firings.extend(_quotient_firings(rule, E, D))
            continue
        for frame in frames:
            firings.append(rule.evaluate(frame))
    firings.sort(key=lambda f: (f.rule_id, f.frame))
    return tuple(firings)


_AFFIRMATIVE_RANK = {Strength.IFF: 0, Strength.SUFFICIENT: 1}
_NEGATIVE_RANK = {Strength.IFF: 0, Strength.NECESSARY: 1}


_Decided = Union[_Decision, RuleFiring]


def _binding(decisions: list[_Decided], ranking: dict) -> _Decided:
    # strongest first, then lowest rule id; the ties share both, which is
    # all a verdict keeps of its binding decision
    return min(decisions, key=lambda f: (ranking[f.strength], f.rule_id))


def _merge(
    property_name: str,
    E: Bundle,
    D: Divisor,
    decisions: Sequence[_Decided],
    rules: tuple[Rule, ...],
    lo: Optional[tuple[Fraction, bool]],
    trail: Optional[Callable[[], tuple[RuleFiring, ...]]] = None,
) -> Verdict:
    """Bind the verdict on decisions.  trail builds the firings the verdict
    shows when they are read; without it, decisions are a recorded trail
    and are shown themselves."""
    if trail is None:
        recorded = tuple(decisions)
        trail = lambda: recorded  # noqa: E731
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
    if no:
        f = _binding(no, _NEGATIVE_RANK)
        return Verdict(
            property_name, Status.NO, f.strength, f.rule_id, trail,
            slope_invariant=s,
        )
    if yes:
        f = _binding(yes, _AFFIRMATIVE_RANK)
        return Verdict(
            property_name, Status.YES, f.strength, f.rule_id, trail,
            slope_invariant=s,
        )
    hi = min(
        (bound for frame in canonical_frames(E, D) for rule in rules
         if (bound := rule.window_bound(frame)) is not None),
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
        property_name,
        Status.UNKNOWN,
        None,
        None,
        trail,
        unknown_window=window,
        unknown_reason=reason,
        slope_invariant=s,
    )


def applicable_rules(E: Bundle, D: Divisor) -> tuple[RuleFiring, ...]:
    """Every very-ampleness rule evaluated in every canonical frame,
    inapplicable rows included, ordered by (rule id, frame)."""
    _require_projective_bundle(E)
    return _evaluate_catalog(VERY_AMPLE_RULES, E, D)


def _classify(
    property_name: str,
    rules: tuple[Rule, ...],
    E: Bundle,
    D: Divisor,
    lo: Optional[tuple[Fraction, bool]],
) -> Verdict:
    return _merge(
        property_name, E, D, _decide_catalog(rules, E, D), rules, lo,
        trail=lambda: _evaluate_catalog(rules, E, D),
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
