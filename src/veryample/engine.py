"""Evaluation and merge: from the rule catalog to a single Verdict.

Every classification follows the same path: build the canonical twist
frames, evaluate every catalog row in every frame, then merge the firings
under the lattice  No  >  Yes(iff)  >  Yes(sufficient)  >  Unknown.  A
simultaneous Yes and No is not a tie to break: it means the catalog is
transcribed wrong, and it raises ContradictionError instead of returning
anything.

Frames: twisting E by a degree-l line bundle re-coordinatizes P(E) and
sends aT + bf to aT + (b - a*l)f.  The canonical frames are the two
consecutive twists with 0 <= deg E(l) <= 2*rank - 1; every degree-guarded
row sees the frame it wants there.  The slope invariant b + a*mu^-(E) and
all verdicts are frame-independent; the firing records keep the frame they
fired in.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, product
from typing import Optional

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


@dataclass(frozen=True)
class Divisor:
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
    """Every non-empty proper sub-multiset of the atoms, deduplicated and in
    a deterministic order.  Sub-multisets of sub-multisets appear themselves,
    so one flat pass already carries the recursive closure."""
    counts = Counter(E.atoms)
    distinct = sorted(counts)
    full = tuple(counts[atom] for atom in distinct)
    subs = []
    for combo in product(*(range(n + 1) for n in full)):
        if not any(combo) or combo == full:
            continue
        atoms = tuple(
            chain.from_iterable(
                (atom,) * k for atom, k in zip(distinct, combo)
            )
        )
        subs.append(Bundle(atoms))
    subs.sort(key=lambda Q: (Q.rank, Q.atoms))
    return tuple(subs)


def _curve_comparison(Q: Bundle, D: Divisor) -> Comparison:
    # restriction to the section cut by a line-bundle sub-sum lands on the
    # base curve, where very ample means degree >= 3
    return Comparison(
        f"b + a*deg({Q})", Fraction(D.b + D.a * Q.degree), ">=", Fraction(3)
    )


def _negative_witness(Q: Bundle, D: Divisor) -> Optional[RuleFiring]:
    """First negative-capable firing rejecting the restriction to P(Q)."""
    if Q.rank == 1:
        comp = _curve_comparison(Q, D)
        if comp.holds:
            return None
        return RuleFiring(
            rule_id="curve threshold",
            citation="very ampleness on an elliptic curve",
            strength=Strength.IFF,
            condition=comp.render(),
            lhs=comp.lhs,
            threshold=comp.rhs,
            strict=False,
            outcome=Outcome.NO,
            frame=0,
        )
    for frame in canonical_frames(Q, D):
        for rule in _SCREEN_RULES:
            firing = rule.evaluate(frame)
            if firing.outcome is Outcome.NO:
                return firing
    return None


def _quotient_firings(rule: Rule, E: Bundle, D: Divisor) -> list[RuleFiring]:
    whole = Frame(0, E, D.a, D.b)
    if not rule.applies(whole):
        return [rule.evaluate(whole)]
    firings = []
    for Q in _proper_sub_multisets(E):
        witness = _negative_witness(Q, D)
        if witness is None:
            comp = (
                _curve_comparison(Q, D)
                if Q.rank == 1
                else Comparison(
                    f"b + a*mu^-({Q})",
                    D.b + D.a * Q.mu_minus,
                    ">",
                    Fraction(0),
                )
            )
            firings.append(
                RuleFiring(
                    rule_id=rule.rule_id,
                    citation=rule.citation,
                    strength=Strength.NECESSARY,
                    condition=(
                        f"restriction to P({Q}): no negative rule applies; "
                        + comp.render()
                    ),
                    lhs=comp.lhs,
                    threshold=comp.rhs,
                    strict=comp.op == ">",
                    outcome=Outcome.PASS,
                    frame=0,
                )
            )
        else:
            firings.append(
                RuleFiring(
                    rule_id=rule.rule_id,
                    citation=rule.citation,
                    strength=Strength.NECESSARY,
                    condition=(
                        f"restriction to P({Q}) is rejected by "
                        f"{witness.rule_id}: {witness.condition}"
                    ),
                    lhs=witness.lhs,
                    threshold=witness.threshold,
                    strict=witness.strict,
                    outcome=Outcome.NO,
                    frame=0,
                )
            )
    return firings


# -- evaluation and merge ----------------------------------------------------

def _evaluate_catalog(
    rules: tuple[Rule, ...], E: Bundle, D: Divisor
) -> tuple[RuleFiring, ...]:
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


def _binding(firings: list[RuleFiring], ranking: dict) -> RuleFiring:
    # strongest first, then lowest rule id, then the frame closest to 0
    return min(
        firings,
        key=lambda f: (ranking[f.strength], f.rule_id, abs(f.frame), f.frame),
    )


def _merge(
    property_name: str,
    E: Bundle,
    D: Divisor,
    firings: tuple[RuleFiring, ...],
    rules: tuple[Rule, ...],
    lo: Optional[tuple[Fraction, bool]],
) -> Verdict:
    s = pushforward_mu_minus(E, D.a, D.b)
    yes = [f for f in firings if f.outcome is Outcome.YES]
    no = [f for f in firings if f.outcome is Outcome.NO]
    if yes and no:
        raise ContradictionError(
            f"rule table contradiction for {property_name} on P({E}) with "
            f"D = {D}: {yes[0].rule_id} concludes yes ({yes[0].condition}) "
            f"but {no[0].rule_id} concludes no ({no[0].condition})"
        )
    if no:
        f = _binding(no, _NEGATIVE_RANK)
        return Verdict(
            property_name, Status.NO, f.strength, f.rule_id, firings,
            slope_invariant=s,
        )
    if yes:
        f = _binding(yes, _AFFIRMATIVE_RANK)
        return Verdict(
            property_name, Status.YES, f.strength, f.rule_id, firings,
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
        if any(f.outcome is Outcome.INSUFFICIENT for f in firings)
        else "no-applicable-rule"
    )
    return Verdict(
        property_name,
        Status.UNKNOWN,
        None,
        None,
        firings,
        unknown_window=window,
        unknown_reason=reason,
        slope_invariant=s,
    )


def applicable_rules(E: Bundle, D: Divisor) -> tuple[RuleFiring, ...]:
    """Every very-ampleness rule evaluated in every canonical frame,
    inapplicable rows included, ordered by (rule id, frame)."""
    _require_projective_bundle(E)
    return _evaluate_catalog(VERY_AMPLE_RULES, E, D)


def classify_very_ample(E: Bundle, D: Divisor) -> Verdict:
    """Three-valued very-ampleness verdict with the full firing trail."""
    _require_projective_bundle(E)
    firings = _evaluate_catalog(VERY_AMPLE_RULES, E, D)
    return _merge("very_ample", E, D, firings, VERY_AMPLE_RULES, lo=(Fraction(0), True))


def classify_ample(E: Bundle, D: Divisor) -> bool:
    """aT + bf is ample iff a >= 1 and b + a*mu^-(E) > 0 (Miyaoka, R-AMPLE)."""
    _require_projective_bundle(E)
    firings = _evaluate_catalog(AMPLE_RULES, E, D)
    return _merge("ample", E, D, firings, AMPLE_RULES, lo=None).is_yes


def classify_globally_generated(E: Bundle, D: Divisor) -> Verdict:
    """Global generation: an iff for a = 1, a sufficient slope bound above.

    Never returns No for a >= 2: below the bound the answer genuinely varies
    (twice the tautological class on the odd rank-2 bundle is globally
    generated at slope invariant 1).
    """
    _require_projective_bundle(E)
    if D.a < 1:
        raise DomainError(f"global generation is classified for a >= 1, got a={D.a}")
    firings = _evaluate_catalog(GLOBALLY_GENERATED_RULES, E, D)
    return _merge("globally_generated", E, D, firings, GLOBALLY_GENERATED_RULES, lo=None)


def classify_normally_generated(E: Bundle, D: Divisor) -> Verdict:
    """Normal generation via the slope bound; only a sufficient direction
    is known, so the answer is Yes or Unknown, never No."""
    _require_projective_bundle(E)
    if D.a < 1:
        raise DomainError(f"normal generation is classified for a >= 1, got a={D.a}")
    firings = _evaluate_catalog(NORMALLY_GENERATED_RULES, E, D)
    return _merge("normally_generated", E, D, firings, NORMALLY_GENERATED_RULES, lo=None)
