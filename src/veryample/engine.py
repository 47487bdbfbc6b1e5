"""Decision and merge: from the rule catalog to a single Verdict.

Every classification follows the same path: build the canonical twist
frame, decide every catalog row in it, then merge the decisions under
the lattice  No  >  Yes(iff)  >  Yes(sufficient)  >  Unknown.  A
simultaneous Yes and No is not a tie to break: it means the catalog is
transcribed wrong, and it raises ContradictionError instead of returning
anything.

One plan per bundle.  The plan of a catalog on E (`_twisted`, the one
cache keyed by bundle besides the screen's sub-sums) holds l0, E(l0) and
the rows of the catalog that E(l0) admits (`rules.admits`, from each
guard's bundle part); a row it excludes is inapplicable in every cell on
that bundle.  A cell reads the plan once, builds one frame and evaluates
only the admitted rows, each once, by `Rule.evaluate`.  R-QUOT-NEC is
admitted on the canonical bundle, as its bundle part, "decomposable", is
the same in every twist; admitted, its guard is down to a >= 1, so it is
decided without evaluating a row: No as soon as one screened sub-sum Q has
a negative witness, so its screen stops there, and each Q is screened by
the rows of its own plan.  The verdict binds on these decisions, the
strongest No or Yes found in one pass, reads its slope invariant off the
frame and its Unknown window's upper end off the case texts of the
sufficient ones; an excluded row says neither yes nor no and compares
nothing, so it would change neither.

The trail comes from the catalog alone.  A verdict keeps the property, E
and D, plain data, so it pickles; the first read of its `firings`
evaluates every row of the catalog in the canonical frame, R-QUOT-NEC in
frame 0, the untwisted one, where it applies screened again for one firing
per screened sub-sum, and sorts them by rule id.  `Rule.evaluate` decides
any row in any frame by itself, so the trail shows what the cell decided.

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
records keep the frame they fired in, and R-QUOT-NEC's record frame 0.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from ._frozen import validated_make
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
    admits,
    window_end,
)
from .verdicts import (
    Comparison,
    DeferredComparisons,
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


def canonical_frames(E: Bundle, D: Divisor) -> Frame:
    """The one canonical frame: the twist l0 with 0 <= deg E(l0) < rank,
    carrying the transformed divisor coefficient b - a*l0 (module
    docstring)."""
    l = -(E.degree // E.rank)
    return Frame(l, E.twist(l), D.a, D.b - D.a * l)


# -- quotient-scroll necessity (R-QUOT-NEC) ----------------------------------

# Rows that can output No; sufficient-only rows are pointless when screening
# restrictions for a negative witness.
_SCREEN_RULES = tuple(
    r for r in VERY_AMPLE_RULES
    if r.strength is not Strength.SUFFICIENT and r.special != "quotient"
)

# Each catalog by the name its plan is kept under: a property's, and the screen's.
_CATALOGS: dict[str, tuple[Rule, ...]] = {
    "very_ample": VERY_AMPLE_RULES,
    "ample": AMPLE_RULES,
    "globally_generated": GLOBALLY_GENERATED_RULES,
    "normally_generated": NORMALLY_GENERATED_RULES,
    "screen": _SCREEN_RULES,
}


@lru_cache(maxsize=8192)
def _twisted(catalog: str, E: Bundle) -> tuple[int, Bundle, tuple[Rule, ...]]:
    """The plan of `catalog` on E: the canonical twist l0, E(l0), and the
    rows of the catalog that E(l0) admits, in catalog order.  Sweeps decide
    every cell of a bundle on the same plan."""
    l = -(E.degree // E.rank)
    twisted = E.twist(l)
    admitted = admits(twisted)
    return l, twisted, tuple(r for r in _CATALOGS[catalog] if admitted[r.rule_id])


@lru_cache(maxsize=2048)
def _proper_sub_multisets(E: Bundle) -> tuple[Bundle, ...]:
    """The proper sub-sums the quotient screen visits, in (rank, atoms)
    order: the lowest line and each distinct non-line atom (module
    docstring)."""
    # atoms sort by (rank, degree), so a line E.atoms[0] is the lowest one
    subs = {Bundle((A,)) for A in E.atoms if A.rank > 1 or A == E.atoms[0]}
    subs.discard(E)
    return tuple(sorted(subs, key=lambda Q: (Q.rank, Q.atoms)))


def _curve_comparisons(Q: Bundle, D: Divisor) -> tuple[Comparison]:
    # restriction to the section cut by a line-bundle sub-sum lands on the
    # base curve, where very ample means degree >= 3
    return (Comparison(f"b + a*deg({Q})", Fraction(D.b + D.a * Q.degree), ">=", Fraction(3)),)


def _negative_witness(
    Q: Bundle, D: Divisor
) -> Optional[tuple[str, Iterable[Comparison]]]:
    """The name and (deferred) comparisons of the first negative-capable row
    that rejects the restriction to P(Q), or None when none does.  Only the
    rows Q's canonical frame admits are evaluated."""
    if Q.rank == 1:  # _curve_comparisons, decided in integers
        return None if D.b + D.a * Q.degree >= 3 else (
            "curve threshold", DeferredComparisons(_curve_comparisons, Q, D))
    l, twisted, rows = _twisted("screen", Q)
    frame = Frame(l, twisted, D.a, D.b - D.a * l)
    for rule in rows:
        firing = rule.evaluate(frame)
        if firing.outcome is Outcome.NO:
            return firing.rule_id, firing.comparisons
    return None


def _quotient_firings(E: Bundle, D: Divisor) -> list[RuleFiring]:
    """R-QUOT-NEC's firings on a bundle it applies to, one per screened
    sub-sum, in frame 0."""
    firings = []
    for Q in _proper_sub_multisets(E):
        witness = _negative_witness(Q, D)
        if witness is None:
            outcome = Outcome.PASS
            note = f"restriction to P({Q}): no negative rule applies; "
            comps = _curve_comparisons(Q, D) if Q.rank == 1 else (Comparison(
                f"b + a*mu^-({Q})", pushforward_mu_minus(Q, D.a, D.b), ">", Fraction(0)
            ),)
        else:
            outcome, (rejecter, comps) = Outcome.NO, witness
            note = f"restriction to P({Q}) is rejected by {rejecter}: "
        firings.append(RuleFiring(
            _QUOTIENT.rule_id, _QUOTIENT.citation, Strength.NECESSARY, outcome, 0,
            tuple(comps), note,
        ))
    return firings


# -- decision, trail and merge -----------------------------------------------

_QUOTIENT = next(r for r in VERY_AMPLE_RULES if r.special == "quotient")
# its decisions on a bundle that admits it, field by field what
# Rule.evaluate returns in frame 0: a pass turned into No, a pass, and the
# inapplicable one at a < 1
_QUOTIENT_NO, _QUOTIENT_PASS, _QUOTIENT_UNMET = (
    RuleFiring(_QUOTIENT.rule_id, _QUOTIENT.citation, strength, outcome, 0, (), note)
    for strength, outcome, note in (
        (Strength.NECESSARY, Outcome.NO, ""),
        (Strength.NECESSARY, Outcome.PASS, ""),
        (None, Outcome.INAPPLICABLE, f"guard not met ({_QUOTIENT.scope})"),
    )
)


def _decide_quotient(E: Bundle, D: Divisor) -> RuleFiring:
    """R-QUOT-NEC's decision on a bundle that admits it: No at the first
    screened sub-sum with a negative witness, else a pass.  Admitted, its
    guard is down to a >= 1, so no row is evaluated for it."""
    if D.a < 1:
        return _QUOTIENT_UNMET
    for Q in _proper_sub_multisets(E):
        if _negative_witness(Q, D) is not None:
            return _QUOTIENT_NO
    return _QUOTIENT_PASS


def _trail(property_name: str, E: Bundle, D: Divisor) -> tuple[RuleFiring, ...]:
    """Every row of the property's catalog evaluated in the canonical frame,
    with its comparisons built, sorted by rule id; R-QUOT-NEC is evaluated in
    frame 0 and, where it applies, written as one firing per screened
    sub-sum."""
    frame = canonical_frames(E, D)
    firings: list[RuleFiring] = []
    for rule in _CATALOGS[property_name]:
        if rule.special is None:
            f = rule.evaluate(frame)
            firings.append(f._replace(comparisons=tuple(f.comparisons)))
        else:
            f = rule.evaluate(Frame(0, E, D.a, D.b))
            firings.extend([f] if f.outcome is Outcome.INAPPLICABLE else _quotient_firings(E, D))
    firings.sort(key=lambda f: f.rule_id)
    return tuple(firings)


def _merge(
    property_name: str,
    E: Bundle,
    D: Divisor,
    s: Fraction,
    decisions: Sequence[RuleFiring],
    lo: Optional[tuple[int, bool]],
    trail: Callable[[], tuple[RuleFiring, ...]],
) -> Verdict:
    """Bind the verdict on decisions, the firings each row returned; s is
    the slope invariant, read off the cell's frame.  trail builds the
    firings the verdict shows when they are read."""
    # the strongest No and Yes: an iff first, then the lowest rule id; the
    # ties share both, which is all a verdict keeps of its binding decision
    no = yes = None
    for f in decisions:
        if f.outcome is Outcome.NO:
            if no is None or _stronger(f, no):
                no = f
        elif f.outcome is Outcome.YES:
            if yes is None or _stronger(f, yes):
                yes = f
    if yes is not None and no is not None:
        # the message quotes the first of each in the trail, with its text
        firings = trail()
        yes = next(f for f in firings if f.outcome is Outcome.YES)
        no = next(f for f in firings if f.outcome is Outcome.NO)
        raise ContradictionError(
            f"rule table contradiction for {property_name} on P({E}) with "
            f"D = {D}: {yes.rule_id} concludes yes ({yes.condition}) "
            f"but {no.rule_id} concludes no ({no.condition})"
        )
    for status, f in ((Status.NO, no), (Status.YES, yes)):
        if f is not None:
            return Verdict(
                property_name, status, f.strength, f.rule_id, trail, slope_invariant=s,
            )
    hi = None
    for f in decisions:
        if f.strength is Strength.SUFFICIENT:
            end = window_end(f.comparisons)
            if end is not None and (hi is None or end < hi):
                hi = end
    window = Window(
        lo=Fraction(lo[0]) if lo else None,
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


def _stronger(f: RuleFiring, g: RuleFiring) -> bool:
    """Whether f binds before g: an iff before any other strength, then the
    lower rule id."""
    return ((f.strength is not Strength.IFF, f.rule_id)
            < (g.strength is not Strength.IFF, g.rule_id))


def _classify(
    property_name: str, E: Bundle, D: Divisor, lo: Optional[tuple[int, bool]]
) -> Verdict:
    """The verdict on the rows the plan of E admits, each evaluated once in
    the cell's frame; the trail is built from the catalog when read."""
    l, twisted, rows = _twisted(property_name, E)
    frame = Frame(l, twisted, D.a, D.b - D.a * l)
    decisions = [
        rule.evaluate(frame) if rule.special is None else _decide_quotient(E, D)
        for rule in rows
    ]
    return _merge(property_name, E, D, frame.s, decisions, lo,
                  partial(_trail, property_name, E, D))


def classify_very_ample(E: Bundle, D: Divisor) -> Verdict:
    """Three-valued very-ampleness verdict; its full firing trail is built
    when `firings` is first read."""
    _require_projective_bundle(E)
    return _classify("very_ample", E, D, lo=(0, True))


def classify_ample(E: Bundle, D: Divisor) -> bool:
    """aT + bf is ample iff a >= 1 and b + a*mu^-(E) > 0 (Miyaoka, R-AMPLE)."""
    _require_projective_bundle(E)
    return _classify("ample", E, D, lo=None).is_yes


def classify_globally_generated(E: Bundle, D: Divisor) -> Verdict:
    """Global generation: an iff for a = 1, a sufficient slope bound above.

    Never returns No for a >= 2: below the bound the answer genuinely varies
    (twice the tautological class on the odd rank-2 bundle is globally
    generated at slope invariant 1).
    """
    _require_projective_bundle(E)
    if D.a < 1:
        raise DomainError(f"global generation is classified for a >= 1, got a={D.a}")
    return _classify("globally_generated", E, D, lo=None)


def classify_normally_generated(E: Bundle, D: Divisor) -> Verdict:
    """Normal generation via the slope bound; only a sufficient direction
    is known, so the answer is Yes or Unknown, never No."""
    _require_projective_bundle(E)
    if D.a < 1:
        raise DomainError(f"normal generation is classified for a >= 1, got a={D.a}")
    return _classify("normally_generated", E, D, lo=None)
