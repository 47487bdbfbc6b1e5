"""Result types for the classification engine.

A classification never returns a bare boolean: it returns a Verdict carrying
the three-valued status, the strength of the justification, the binding rule,
and the full list of RuleFiring records (one per rule, including rules that
did not apply, and one per screened quotient scroll).  Unknown verdicts carry the exact open interval of
the slope invariant b + a*mu^-(E) in which the question is unsettled.

The engine decides a verdict without building its records: a Verdict holds
a `trail` callable, and the firings are built by it the first time
`firings` is read, then kept.  Equality, hashing and repr of a Verdict
leave the trail out.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from ._frozen import Frozen, validated_make

__all__ = [
    "Status",
    "Strength",
    "Outcome",
    "Comparison",
    "RuleFiring",
    "Window",
    "Verdict",
    "frac_text",
    "frac_json",
]


def frac_text(q: Fraction) -> str:
    """Exact decimal-free rendering: integers plain, otherwise p/q."""
    return str(q)


def frac_json(q: Optional[Fraction]):
    if q is None:
        return None
    return {"num": q.numerator, "den": q.denominator}


class Status(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


class Strength(str, enum.Enum):
    IFF = "iff"
    SUFFICIENT = "sufficient"
    NECESSARY = "necessary"


class Outcome(str, enum.Enum):
    """What one rule said about one divisor in one frame.

    yes / no force the verdict; pass records a necessary condition that
    held; insufficient records a sufficient condition that evaluated false
    (no conclusion); inapplicable records a guard that did not match.
    """

    YES = "yes"
    NO = "no"
    PASS = "pass"
    INSUFFICIENT = "insufficient"
    INAPPLICABLE = "inapplicable"


class _ComparisonFields(NamedTuple):
    label: str
    lhs: Fraction
    op: str
    rhs: Fraction


class Comparison(_ComparisonFields):
    """One exact inequality, evaluated: lhs op rhs with op in {>, >=}."""

    __slots__ = ()
    _make = classmethod(validated_make)

    def __new__(cls, label: str, lhs: Fraction, op: str, rhs: Fraction) -> "Comparison":
        if op not in (">", ">="):
            raise ValueError(f"comparison operator must be > or >=, got {op!r}")
        return tuple.__new__(cls, (label, lhs, op, rhs))

    @property
    def holds(self) -> bool:
        return self.lhs > self.rhs if self.op == ">" else self.lhs >= self.rhs

    def render(self) -> str:
        verdict = "holds" if self.holds else "fails"
        return (
            f"{self.label} = {frac_text(self.lhs)}, needs {self.op} "
            f"{frac_text(self.rhs)}: {verdict}"
        )


class RuleFiring(NamedTuple):
    """One rule evaluated against one divisor in one frame.

    The record keeps the comparisons the rule made and a note that prefixes
    them: why the rule did not apply, or which restriction it speaks for.
    The condition text and the deciding lhs, threshold and strictness are
    derived from those two when read, so a firing nobody prints is never
    rendered.
    """

    rule_id: str
    citation: str
    strength: Optional[Strength]
    outcome: Outcome
    frame: int
    comparisons: tuple[Comparison, ...] = ()
    note: str = ""

    @property
    def deciding(self) -> Optional[Comparison]:
        """The first failing comparison; if all hold, the first one."""
        return next(
            (c for c in self.comparisons if not c.holds),
            self.comparisons[0] if self.comparisons else None,
        )

    @property
    def condition(self) -> str:
        return self.note + "; ".join(c.render() for c in self.comparisons)

    @property
    def lhs(self) -> Optional[Fraction]:
        c = self.deciding
        return None if c is None else c.lhs

    @property
    def threshold(self) -> Optional[Fraction]:
        c = self.deciding
        return None if c is None else c.rhs

    @property
    def strict(self) -> Optional[bool]:
        c = self.deciding
        return None if c is None else c.op == ">"

    def to_json_dict(self) -> dict:
        return {
            "rule_id": self.rule_id,
            "citation": self.citation,
            "strength": self.strength.value if self.strength else None,
            "condition": self.condition,
            "lhs": frac_json(self.lhs),
            "threshold": frac_json(self.threshold),
            "strict": self.strict,
            "outcome": self.outcome.value,
            "frame": self.frame,
        }


class Window(NamedTuple):
    """An interval for the slope invariant b + a*mu^-(E); None means
    unbounded on that side."""

    lo: Optional[Fraction]
    lo_strict: bool
    hi: Optional[Fraction]
    hi_inclusive: bool

    def render(self) -> str:
        left = "(" if (self.lo_strict or self.lo is None) else "["
        right = "]" if (self.hi_inclusive and self.hi is not None) else ")"
        lo = "-inf" if self.lo is None else frac_text(self.lo)
        hi = "inf" if self.hi is None else frac_text(self.hi)
        return f"{left}{lo}, {hi}{right}"

    def to_json_dict(self) -> dict:
        return {
            "lo": frac_json(self.lo),
            "lo_strict": self.lo_strict,
            "hi": frac_json(self.hi),
            "hi_inclusive": self.hi_inclusive,
            "text": self.render(),
        }


_STATUS_WORDS = {
    "very_ample": {Status.YES: "VeryAmple", Status.NO: "NotVeryAmple", Status.UNKNOWN: "Unknown"},
    "globally_generated": {Status.YES: "Yes", Status.NO: "No", Status.UNKNOWN: "Unknown"},
    "normally_generated": {Status.YES: "Yes", Status.NO: "No", Status.UNKNOWN: "Unknown"},
}


class Verdict(Frozen):
    """A classification with its full justification trail.

    trail builds the firings; it runs on the first read of `firings`, which
    keeps them.  ==, hash and repr leave the trail out.
    """

    __slots__ = (
        "property_name", "outcome", "strength", "binding_rule", "trail",
        "unknown_window", "unknown_reason", "slope_invariant", "_firings",
    )
    _fields = (
        "property_name", "outcome", "strength", "binding_rule",
        "unknown_window", "unknown_reason", "slope_invariant",
    )

    def __init__(
        self,
        property_name: str,
        outcome: Status,
        strength: Optional[Strength],
        binding_rule: Optional[str],
        trail: Callable[[], tuple[RuleFiring, ...]],
        unknown_window: Optional[Window] = None,
        unknown_reason: Optional[str] = None,
        slope_invariant: Optional[Fraction] = None,
    ) -> None:
        object.__setattr__(self, "property_name", property_name)
        object.__setattr__(self, "outcome", outcome)
        object.__setattr__(self, "strength", strength)
        object.__setattr__(self, "binding_rule", binding_rule)
        object.__setattr__(self, "trail", trail)
        object.__setattr__(self, "unknown_window", unknown_window)
        object.__setattr__(self, "unknown_reason", unknown_reason)
        object.__setattr__(self, "slope_invariant", slope_invariant)

    @property
    def firings(self) -> tuple[RuleFiring, ...]:
        """Every rule's firing, ordered by rule id."""
        try:
            return self._firings
        except AttributeError:
            object.__setattr__(self, "_firings", self.trail())
            return self._firings

    @property
    def status(self) -> str:
        """Property-flavoured status word (VeryAmple / NotVeryAmple /
        Unknown for very ampleness; Yes / No / Unknown otherwise)."""
        return _STATUS_WORDS[self.property_name][self.outcome]

    @property
    def is_yes(self) -> bool:
        return self.outcome is Status.YES

    @property
    def is_no(self) -> bool:
        return self.outcome is Status.NO

    @property
    def is_unknown(self) -> bool:
        return self.outcome is Status.UNKNOWN

    def to_json_dict(self) -> dict:
        return {
            "property": self.property_name,
            "status": self.status,
            "strength": self.strength.value if self.strength else None,
            "binding_rule": self.binding_rule,
            "slope_invariant": frac_json(self.slope_invariant),
            "unknown_window": self.unknown_window.to_json_dict() if self.unknown_window else None,
            "unknown_reason": self.unknown_reason,
            "firings": [f.to_json_dict() for f in self.firings],
        }
