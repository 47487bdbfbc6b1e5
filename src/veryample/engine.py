"""Decision and merge: from the rule catalog to a single Verdict.

Every classification follows the same path: take the canonical twist
frame, decide every catalog row in it, then merge the decisions under
the lattice  No  >  Yes(iff)  >  Yes(sufficient)  >  Unknown.  A
simultaneous Yes and No is not a tie to break: it means the catalog is
transcribed wrong, and it raises ContradictionError instead of returning
anything.

One plan per property and bundle.  The plan of a property's catalog on E
(`_twisted`, the one cache keyed by bundle besides the screen's sub-sums)
holds l0, E(l0), the minimal-slope atom of E(l0) as (rank r, degree d),
and the rows of the catalog that E(l0) admits (`rules.admits[property]`,
from each guard's bundle part), each as its id and its decider
(`rules.decider`); a row it excludes is inapplicable in every cell on that
bundle.  A cell reads the plan once and builds no frame: its integers are
a, b' = b - a*l0 and s = sn/sd with sn = b'*r + a*d and sd = r, and
`_merge` calls each admitted row's decider once, on these and E(l0), and
binds in the same pass.  A decider returns its case's constant (strength,
outcome, case), or None where the guard fails, and builds no record.
R-QUOT-NEC is admitted on the canonical bundle, as its bundle part,
"decomposable", is the same in every twist; admitted, its guard is down
to a >= 1, and its decider is the screen, which the plan holds: l0, the
lowest line's degree and each non-line atom's own very-ample plan, whose
rows it decides on that atom's integers.  It returns the row's No as soon
as one screened sub-sum Q has a negative witness, so it stops there, and
its pass otherwise.  The verdict binds on the strongest No or Yes found in
that pass, takes sn/sd as its slope invariant and its Unknown window's
upper end off the cases of the insufficient rows (`Case.end`); an excluded
row says neither yes nor no and compares nothing, so it would change
neither.

The trail comes from the catalog alone.  A verdict keeps the property, E
and D, plain data, so it pickles; the first read of its `firings`
evaluates every row of the catalog in the canonical frame by
`Rule.evaluate`, which is the row's decider on the frame's integers
(`Frame.cell`) and one RuleFiring constructor, R-QUOT-NEC in frame 0, the
untwisted one, where it applies screened again for one firing per
screened sub-sum, and sorts them by rule id.  A decider decides its row in
any frame by itself, so the trail shows what the cell decided.

The quotient screen.  R-QUOT-NEC restricts D to the quotient scrolls P(Q),
Q a proper sub-sum of E's atoms: if D is very ample on P(E), its
restriction is very ample on each P(Q).  So it says No when the catalog
says No on one of them: on a line Q the curve threshold b + a*deg(Q) >= 3,
on any other Q the first row of Q's own very-ample plan that says No (a
sufficient row never does).  It runs only at a >= 1.  The decision and
the trail both read one set of sub-sums, `_proper_sub_multisets`: the
lowest-degree line and every distinct non-line atom, at most n + 1 for n
distinct atoms instead of all prod(m_i + 1) - 2.  No sub-sum left out can
carry a witness that a kept one does not.  On a decomposable Q the only
rows that can say No, R-QUOT-NEC aside (its No on Q is a witness on a
sub-sum of Q), are R-FIBER (never at a >= 1), R-MIYAOKA, R-A1-DEC,
R-RK2-DEC, and R-RK3-DEC outside `rank3_exception`; every other row is
sufficient on a decomposable bundle or does not apply to one.  A No from
any of them shows on one atom A of Q: the minimal-slope atom for
R-MIYAOKA, R-RK2-DEC and R-RK3-DEC (b + a*mu(A) then fails R-MIYAOKA,
R-D0MODR or, on a line, the curve threshold), and the atom it names for
R-A1-DEC (which fails R-A1-INDEC or the curve threshold).  A line's No
also shows on the lowest line, because the curve threshold drops with the
degree.  An odd rank-2 G of minimal slope in L + G is exactly
`rank3_exception`, where R-RK3-DEC is only sufficient.  The tests check
these assumptions against the catalog, and the decision against the full
enumeration, so a catalog edit that breaks the pruning fails them.

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
from typing import Callable, NamedTuple, Optional, Sequence

from ._frozen import validated_make
from .atiyah import pushforward_mu_minus
from .bundles import Bundle, IndecBundle
from .errors import ContradictionError, DomainError
from .rules import CATALOGS, VERY_AMPLE_RULES, Frame, admits, decider, entries
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


# -- the plan, and the quotient screen (R-QUOT-NEC) ---------------------------

# the members a cell compares, read once: on Python 3.11 an enum member read
# off its class (Outcome.NO) takes ten times as long as a global
_NO, _YES, _INSUFFICIENT = Outcome.NO, Outcome.YES, Outcome.INSUFFICIENT
_IFF, _STATUS_NO, _STATUS_YES = Strength.IFF, Status.NO, Status.YES


@lru_cache(maxsize=8192)
def _twisted(
    catalog: str, E: Bundle
) -> tuple[int, Bundle, IndecBundle, tuple[tuple[str, Callable], ...]]:
    """The plan of a property's catalog on E: the canonical twist l0,
    E(l0), its minimal-slope atom (rank, degree), and the rows of the
    catalog that E(l0) admits, in catalog order, each as its id and its
    decider; R-QUOT-NEC's decider holds its screen.  Sweeps decide every
    cell of a bundle on the same plan."""
    l = -(E.degree // E.rank)
    twisted = E.twist(l)
    return l, twisted, twisted.slope_ends[0], tuple(
        (r.rule_id, decider(r.rule_id) if r.special is None else _quotient_decider(l, E))
        for r in admits[catalog](twisted)
    )


@lru_cache(maxsize=2048)
def _proper_sub_multisets(E: Bundle) -> tuple[Bundle, ...]:
    """The proper sub-sums the quotient screen visits, in (rank, atoms)
    order: the lowest line and each distinct non-line atom (module
    docstring)."""
    # atoms sort by (rank, degree), so a line E.atoms[0] is the lowest one,
    # and the distinct atoms come in the order of their sub-sums
    if len(E.atoms) == 1:
        return ()
    lowest = E.atoms[0]
    return tuple(Bundle((A,)) for A in dict.fromkeys(E.atoms) if A.rank > 1 or A == lowest)


_QUOTIENT = next(r for r in VERY_AMPLE_RULES if r.special == "quotient")
# its decisions, No and pass, by whether no screened sub-sum has a witness
_QUOTIENT_DECISIONS = entries(_QUOTIENT.cases[0])


def _quotient_decider(l: int, E: Bundle) -> Callable[..., Optional[tuple]]:
    """R-QUOT-NEC's decider on a bundle E that admits it, in E's canonical
    twist l, holding its screen: the lowest line's degree (None if the
    screen visits no line) and the very-ample plan of each non-line
    sub-sum."""
    subs = _proper_sub_multisets(E)
    line = subs[0].degree if subs and subs[0].rank == 1 else None
    return partial(_decide_quotient, l, line,
                   tuple(_twisted("very_ample", Q) for Q in subs if Q.rank > 1))


def _decide_quotient(
    l: int, line: Optional[int], plans: tuple, a: int, b: int, sn: int, sd: int, E: Bundle
) -> Optional[tuple]:
    """R-QUOT-NEC's decision in the cell, in the twist l: No at the first
    screened sub-sum with a negative witness, else a pass.  Admitted, its
    guard is down to a >= 1, so it returns None only below that."""
    if a < 1:
        return None
    b += a * l  # D's b, in frame 0
    if line is not None and b + a * line < 3:
        return _QUOTIENT_DECISIONS[0]
    for lq, Q, (r, d), rows in plans:
        bq = b - a * lq
        if _rejecter(rows, a, bq, bq * r + a * d, r, Q) is not None:
            return _QUOTIENT_DECISIONS[0]
    return _QUOTIENT_DECISIONS[1]


def _curve_comparisons(Q: Bundle, D: Divisor) -> tuple[Comparison]:
    # restriction to the section cut by a line-bundle sub-sum lands on the
    # base curve, where very ample means degree >= 3
    return (Comparison(f"b + a*deg({Q})", Fraction(D.b + D.a * Q.degree), ">=", Fraction(3)),)


def _rejecter(
    rows: Sequence[tuple[str, Callable]], a: int, b: int, sn: int, sd: int, E: Bundle
) -> Optional[tuple[str, tuple]]:
    """The id and decision of the first of a plan's rows that says No in
    the cell, or None when none does; a sufficient row never says No."""
    for rule_id, decide in rows:
        k = decide(a, b, sn, sd, E)
        if k is not None and k[1] is _NO:
            return rule_id, k
    return None


def _negative_witness(
    Q: Bundle, D: Divisor
) -> Optional[tuple[str, tuple[Comparison, ...]]]:
    """The name and comparisons of the first row that says No on the
    restriction of D to P(Q), or None when none does: the curve threshold
    on a line Q, and otherwise the rows of Q's own very-ample plan but
    R-QUOT-NEC.  The screen asks only on single atoms, whose plans never
    admit R-QUOT-NEC; on a sum Q a witness is a row's No on Q itself, never
    R-QUOT-NEC's on a sub-sum of Q, so it always quotes comparisons."""
    if Q.rank == 1:  # _curve_comparisons, decided in integers
        return None if D.b + D.a * Q.degree >= 3 else ("curve threshold", _curve_comparisons(Q, D))
    l, twisted, (r, d), rows = _twisted("very_ample", Q)
    a, b = D.a, D.b - D.a * l
    witness = _rejecter([row for row in rows if row[0] != _QUOTIENT.rule_id],
                        a, b, b * r + a * d, r, twisted)
    return None if witness is None else (
        witness[0], witness[1][2].comparisons(Frame(l, twisted, a, b)))


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
            _QUOTIENT.rule_id, _QUOTIENT.citation, Strength.NECESSARY, outcome, 0, comps, note,
        ))
    return firings


# -- trail and merge ----------------------------------------------------------

def _trail(property_name: str, E: Bundle, D: Divisor) -> tuple[RuleFiring, ...]:
    """Every row of the property's catalog evaluated in the canonical frame,
    sorted by rule id; R-QUOT-NEC is evaluated in frame 0 and, where it
    applies, written as one firing per screened sub-sum."""
    frame = canonical_frames(E, D)
    firings: list[RuleFiring] = []
    for rule in CATALOGS[property_name]:
        if rule.special is None:
            firings.append(rule.evaluate(frame))
        else:
            f = rule.evaluate(Frame(0, E, D.a, D.b))
            firings.extend([f] if f.outcome is Outcome.INAPPLICABLE else _quotient_firings(E, D))
    firings.sort(key=lambda f: f.rule_id)
    return tuple(firings)


def _merge(
    property_name: str,
    E: Bundle,
    D: Divisor,
    lo: Optional[tuple[int, bool]],
    trail: Callable[[], tuple[RuleFiring, ...]],
    rows: Sequence[tuple[str, Callable]],
    a: int, b: int, sn: int, sd: int, F: Bundle,
) -> Verdict:
    """Decide each of a plan's rows in the cell (a, b, sn, sd, F), the
    plan's frame, and bind the verdict in the same pass: a decider returns
    (strength, outcome, case), or None where the guard fails.  The slope
    invariant is sn/sd; trail builds the firings the verdict shows when
    they are read."""
    # the strongest No and Yes, as (not iff, rule id, strength): an iff
    # first, then the lowest rule id; and each insufficient row's window end
    no = yes = None
    ends = []
    for rule_id, decide in rows:
        k = decide(a, b, sn, sd, F)
        if k is None:
            continue
        outcome = k[1]
        if outcome is _NO:
            key = (k[0] is not _IFF, rule_id, k[0])
            if no is None or key < no:
                no = key
        elif outcome is _YES:
            key = (k[0] is not _IFF, rule_id, k[0])
            if yes is None or key < yes:
                yes = key
        elif outcome is _INSUFFICIENT:
            ends.append(k[2].end)
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
    s = Fraction(sn, sd)
    if no is not None:
        return Verdict(property_name, _STATUS_NO, no[2], no[1], trail, None, None, s)
    if yes is not None:
        return Verdict(property_name, _STATUS_YES, yes[2], yes[1], trail, None, None, s)
    # the window's upper end: the least that the insufficient rows leave open
    hi = min(filter(None, ends), default=None)
    window = Window(
        lo=Fraction(lo[0]) if lo else None,
        lo_strict=lo[1] if lo else True,
        hi=hi[0] if hi else None,
        hi_inclusive=hi[1] if hi else False,
    )
    reason = "open-range" if ends else "no-applicable-rule"
    return Verdict(property_name, Status.UNKNOWN, None, None, trail, window, reason, s)


def _classify(
    property_name: str, E: Bundle, D: Divisor, lo: Optional[tuple[int, bool]]
) -> Verdict:
    """The verdict on the rows the plan of E admits, each decided once in
    the plan's frame on the cell's integers; the trail is built from the
    catalog when read."""
    l, twisted, (r, d), rows = _twisted(property_name, E)
    a, b = D
    b -= a * l
    return _merge(property_name, E, D, lo, partial(_trail, property_name, E, D),
                  rows, a, b, b * r + a * d, r, twisted)


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
