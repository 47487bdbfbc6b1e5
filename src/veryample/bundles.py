"""Vector bundles on an elliptic curve, reduced to their numerical shadow.

Every bundle here is a finite direct sum of indecomposable pieces, and an
indecomposable bundle on an elliptic curve is determined, for our purposes,
by its (rank, degree) pair: it is semistable of slope d/r (Atiyah).  So a
bundle is modelled as a multiset of atoms, each atom an exact (rank, degree)
pair, and every derived quantity (slope, HN data, ampleness) is computed in
exact rational arithmetic.  No moduli information is kept: two atoms with the
same rank and degree are numerically interchangeable.

The text form ``r:d,r:d,...`` (e.g. ``1:2,2:3``) is the wire format used by
the CLI and by tests.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

Rational = Fraction

__all__ = [
    "Rational",
    "IndecBundle",
    "Bundle",
    "HNStage",
    "BundleParseError",
    "parse_bundle",
]


class BundleParseError(ValueError):
    """Raised when bundle text does not match the r:d,r:d,... grammar."""


_ATOM_RE = re.compile(r"^(\d+):(-?\d+)$")


@dataclass(frozen=True, order=True)
class IndecBundle:
    """An indecomposable bundle, known by rank and degree alone.

    Indecomposable bundles on an elliptic curve are semistable, so the atom
    carries its own slope and needs no filtration.
    """

    rank: int
    degree: int

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError(f"atom rank must be >= 1, got {self.rank}")

    @property
    def slope(self) -> Fraction:
        return Fraction(self.degree, self.rank)

    def twist(self, l: int) -> "IndecBundle":
        """Tensor with a degree-l line bundle: degree shifts by rank * l."""
        return IndecBundle(self.rank, self.degree + self.rank * l)

    def dual(self) -> "IndecBundle":
        return IndecBundle(self.rank, -self.degree)

    def normalize(self) -> tuple["IndecBundle", int]:
        """The twist putting the degree into [0, rank), and the twist used.

        Returns (E(l), l) with 0 <= degree + rank*l <= rank - 1; l is unique.
        """
        l = -(self.degree // self.rank)
        return self.twist(l), l

    def __str__(self) -> str:
        return f"{self.rank}:{self.degree}"


@dataclass(frozen=True)
class HNStage:
    """One slope layer of the Harder-Narasimhan filtration."""

    slope: Fraction
    atoms: tuple[IndecBundle, ...]

    @property
    def rank(self) -> int:
        return sum(atom.rank for atom in self.atoms)

    @property
    def degree(self) -> int:
        return sum(atom.degree for atom in self.atoms)


@dataclass(frozen=True)
class Bundle:
    """A direct sum of atoms; the multiset is kept in canonical sorted order."""

    atoms: tuple[IndecBundle, ...]

    def __init__(self, atoms: Iterable[IndecBundle | tuple[int, int]]) -> None:
        normalized = tuple(
            a if isinstance(a, IndecBundle) else IndecBundle(*a) for a in atoms
        )
        if not normalized:
            raise ValueError("a bundle needs at least one atom")
        object.__setattr__(self, "atoms", tuple(sorted(normalized)))

    @cached_property
    def rank(self) -> int:
        return sum(atom.rank for atom in self.atoms)

    @cached_property
    def degree(self) -> int:
        return sum(atom.degree for atom in self.atoms)

    @cached_property
    def slope(self) -> Fraction:
        return Fraction(self.degree, self.rank)

    @cached_property
    def mu_minus(self) -> Fraction:
        """Minimal slope among the atoms: the slope of the last HN quotient."""
        return min(atom.slope for atom in self.atoms)

    @cached_property
    def mu_plus(self) -> Fraction:
        """Maximal slope among the atoms: the slope of the first HN piece.

        For a direct sum the maximal subsheaf slope is attained on a single
        atom (any sub-sum slope is a mediant, hence <= the largest atom
        slope), so the max over atoms is exact.
        """
        return max(atom.slope for atom in self.atoms)

    @property
    def is_indecomposable(self) -> bool:
        return len(self.atoms) == 1

    @property
    def is_semistable(self) -> bool:
        return self.mu_minus == self.mu_plus

    @cached_property
    def is_ample(self) -> bool:
        """Ample iff every atom has positive degree (Hartshorne, genus one)."""
        return all(atom.degree > 0 for atom in self.atoms)

    def hn_filtration(self) -> tuple[HNStage, ...]:
        """Slope layers in strictly decreasing order; atoms of equal slope
        form a single semistable stage."""
        by_slope: dict[Fraction, list[IndecBundle]] = {}
        for atom in self.atoms:
            by_slope.setdefault(atom.slope, []).append(atom)
        return tuple(
            HNStage(slope, tuple(sorted(by_slope[slope])))
            for slope in sorted(by_slope, reverse=True)
        )

    def twist(self, l: int) -> "Bundle":
        """Tensor with a degree-l line bundle, atom by atom."""
        return Bundle(atom.twist(l) for atom in self.atoms)

    def dual(self) -> "Bundle":
        return Bundle(atom.dual() for atom in self.atoms)

    def __str__(self) -> str:
        return ",".join(str(atom) for atom in self.atoms)


def parse_bundle(text: str) -> Bundle:
    """Parse ``r:d(,r:d)*`` into a Bundle.

    Rank must be a positive integer, degree any integer.  Raises
    BundleParseError on empty input, malformed atoms, or rank < 1.
    """
    if not isinstance(text, str) or not text.strip():
        raise BundleParseError("empty bundle text")
    atoms = []
    for chunk in text.strip().split(","):
        m = _ATOM_RE.match(chunk.strip())
        if m is None:
            raise BundleParseError(f"malformed atom {chunk.strip()!r}, expected r:d")
        try:
            rank, degree = int(m.group(1)), int(m.group(2))
        except ValueError:  # past the interpreter's int-string digit limit
            digits = max(len(m.group(1)), len(m.group(2).lstrip("-")))
            raise BundleParseError(
                f"malformed atom: an integer of {digits} digits is too long"
            ) from None
        if rank < 1:
            raise BundleParseError(f"atom rank must be >= 1, got {rank}")
        atoms.append(IndecBundle(rank, degree))
    return Bundle(atoms)
