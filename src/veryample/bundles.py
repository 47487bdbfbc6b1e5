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
from fractions import Fraction
from typing import Iterable, NamedTuple

from ._frozen import Frozen, set_slot, validated_make

__all__ = [
    "IndecBundle",
    "Bundle",
    "HNStage",
    "BundleParseError",
    "parse_bundle",
]


class BundleParseError(ValueError):
    """Raised when bundle text does not match the r:d,r:d,... grammar."""


# ASCII digits only, matched whole: \d takes any Unicode digit
_ATOM_RE = re.compile(r"([0-9]+):(-?[0-9]+)")


class _IndecBundleFields(NamedTuple):
    rank: int
    degree: int


class IndecBundle(_IndecBundleFields):
    """An indecomposable bundle, known by rank and degree alone; atoms order
    by (rank, degree).

    Indecomposable bundles on an elliptic curve are semistable, so the atom
    carries its own slope and needs no filtration.
    """

    __slots__ = ()
    _make = classmethod(validated_make)

    def __new__(cls, rank: int, degree: int) -> "IndecBundle":
        if rank < 1:
            raise ValueError(f"atom rank must be >= 1, got {rank}")
        return tuple.__new__(cls, (rank, degree))

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


class HNStage(NamedTuple):
    """One slope layer of the Harder-Narasimhan filtration."""

    slope: Fraction
    atoms: tuple[IndecBundle, ...]

    @property
    def rank(self) -> int:
        return sum(atom.rank for atom in self.atoms)

    @property
    def degree(self) -> int:
        return sum(atom.degree for atom in self.atoms)


class Bundle(Frozen):
    """A direct sum of atoms; the multiset is kept in canonical sorted order.

    rank, degree, slope, slope_ends, mu_minus, mu_plus, is_ample and
    is_indecomposable are each computed on their first read (`_DERIVED`) and
    kept in their slot; a pickle carries the atoms only.
    """

    __slots__ = (
        "atoms", "_hash", "rank", "degree", "slope", "slope_ends", "mu_minus", "mu_plus",
        "is_ample", "is_indecomposable",
    )
    _fields = ("atoms",)

    def __init__(self, atoms: Iterable[IndecBundle | tuple[int, int]]) -> None:
        normalized = tuple(
            a if isinstance(a, IndecBundle) else IndecBundle(*a) for a in atoms
        )
        if not normalized:
            raise ValueError("a bundle needs at least one atom")
        atoms = tuple(sorted(normalized))
        set_slot(self, "atoms", atoms)
        # Frozen's hash of the key (atoms,), kept: every _twisted lookup hashes
        set_slot(self, "_hash", hash((atoms,)))

    def __getattr__(self, name: str):
        # reached only for an empty slot: derive the value once and keep it
        try:
            derive = _DERIVED[name]
        except KeyError:
            raise AttributeError(
                f"'Bundle' object has no attribute {name!r}"
            ) from None
        value = derive(self)
        set_slot(self, name, value)
        return value

    def __eq__(self, other):
        # Frozen's ==, without building the keys
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.atoms == other.atoms

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Bundle, (self.atoms,)

    @property
    def is_semistable(self) -> bool:
        return self.mu_minus == self.mu_plus

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
        """Tensor with a degree-l line bundle, atom by atom.  A twist adds
        r*l to the degree of each atom of rank r, which keeps the atoms'
        (rank, degree) order, so they are neither sorted nor validated
        again, and it keeps the rank and adds rank*l to the degree;
        twist(0) is the bundle itself."""
        if l == 0:
            return self
        new = tuple.__new__
        atoms = tuple([new(IndecBundle, (r, d + r * l)) for r, d in self.atoms])
        twisted = object.__new__(Bundle)
        set_slot(twisted, "atoms", atoms)
        set_slot(twisted, "_hash", hash((atoms,)))
        set_slot(twisted, "rank", self.rank)
        set_slot(twisted, "degree", self.degree + self.rank * l)
        return twisted

    def dual(self) -> "Bundle":
        return Bundle(atom.dual() for atom in self.atoms)

    def __str__(self) -> str:
        return ",".join(str(atom) for atom in self.atoms)


def _slope_ends(E: Bundle) -> tuple[IndecBundle, IndecBundle]:
    """The first atoms of least and greatest slope: one scan, in integers."""
    lo = hi = E.atoms[0]
    for atom in E.atoms[1:]:
        if atom.degree * lo.rank < lo.degree * atom.rank:
            lo = atom
        elif atom.degree * hi.rank > hi.degree * atom.rank:
            hi = atom
    return lo, hi


_DERIVED = {
    "rank": lambda E: sum(atom.rank for atom in E.atoms),
    "degree": lambda E: sum(atom.degree for atom in E.atoms),
    "slope": lambda E: Fraction(E.degree, E.rank),
    "slope_ends": _slope_ends,
    # the minimal slope among the atoms: the slope of the last HN quotient
    "mu_minus": lambda E: E.slope_ends[0].slope,
    # the maximal slope among the atoms: the slope of the first HN piece.
    # For a direct sum the maximal subsheaf slope is attained on a single
    # atom (any sub-sum slope is a mediant, hence <= the largest atom
    # slope), so the max over atoms is exact.
    "mu_plus": lambda E: E.slope_ends[1].slope,
    # ample iff every atom has positive degree (Hartshorne, genus one)
    "is_ample": lambda E: all(atom.degree > 0 for atom in E.atoms),
    "is_indecomposable": lambda E: len(E.atoms) == 1,
}


def parse_bundle(text: str) -> Bundle:
    """Parse ``r:d(,r:d)*`` into a Bundle.

    Rank must be a positive integer, degree any integer.  Raises
    BundleParseError on empty input, malformed atoms, or rank < 1.
    """
    if not isinstance(text, str) or not text.strip():
        raise BundleParseError("empty bundle text")
    atoms = []
    for chunk in text.strip().split(","):
        m = _ATOM_RE.fullmatch(chunk.strip())
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
