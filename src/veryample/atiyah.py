"""Atiyah's degree-zero bundles and symmetric-power bookkeeping.

F_r denotes the unique indecomposable bundle of rank r and degree 0 with a
nonzero section; every indecomposable E(r, d) factors as E' tensor F_h with
h = gcd(d, r) (h = r when d = 0) and E' of coprime type.  The Clebsch-Gordan
style decomposition of F_r tensor F_s and the split-principle data for
symmetric powers live here; everything is pure integer combinatorics.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, gcd
from typing import Iterable, NamedTuple

from ._frozen import validated_make
from .bundles import Bundle, IndecBundle

__all__ = [
    "FBundle",
    "SplitDegrees",
    "tensor_f_orders",
    "gcd_factor",
    "sym_power_split",
    "sym_rank",
    "sym_degree",
    "pushforward_mu_minus",
]


class _FBundleFields(NamedTuple):
    order: int


class FBundle(_FBundleFields):
    """The indecomposable degree-0 bundle F_r, determined by its order r.

    F_r is self-dual, has h^0 = 1, and is an iterated extension of r copies
    of the trivial line bundle.
    """

    __slots__ = ()
    _make = classmethod(validated_make)

    def __new__(cls, order: int) -> "FBundle":
        if order < 1:
            raise ValueError(f"F_r needs r >= 1, got {order}")
        return tuple.__new__(cls, (order,))

    @property
    def rank(self) -> int:
        return self.order

    @property
    def degree(self) -> int:
        return 0

    @property
    def h0(self) -> int:
        return 1

    def as_atom(self) -> IndecBundle:
        return IndecBundle(self.order, 0)

    def __str__(self) -> str:
        return f"F_{self.order}"


class _SplitDegreesFields(NamedTuple):
    degrees: tuple[int, ...]


class SplitDegrees(_SplitDegreesFields):
    """A multiset of line-bundle degrees, the numerical shadow of a split
    bundle.  Kept sorted ascending."""

    __slots__ = ()
    _make = classmethod(validated_make)

    def __new__(cls, degrees: Iterable[int]) -> "SplitDegrees":
        ds = tuple(sorted(int(d) for d in degrees))
        if not ds:
            raise ValueError("a split bundle needs at least one line bundle")
        return tuple.__new__(cls, (ds,))

    @classmethod
    def from_bundle(cls, bundle: Bundle) -> "SplitDegrees":
        if any(atom.rank != 1 for atom in bundle.atoms):
            raise ValueError(f"{bundle} is not a sum of line bundles")
        return cls(atom.degree for atom in bundle.atoms)

    @property
    def rank(self) -> int:
        return len(self.degrees)

    @property
    def degree(self) -> int:
        return sum(self.degrees)

    @property
    def min_degree(self) -> int:
        return self.degrees[0]


def tensor_f_orders(r: int, s: int) -> tuple[int, ...]:
    """Orders of the summands of F_r tensor F_s, ascending.

    F_r (x) F_s = sum of F_{r+s+1-2i} for i = 1..min(r, s); characteristic
    zero is assumed.  Total rank r*s is conserved and all summands have
    degree 0.
    """
    if r < 1 or s < 1:
        raise ValueError("tensor_f_orders needs r, s >= 1")
    return tuple(sorted(r + s + 1 - 2 * i for i in range(1, min(r, s) + 1)))


def gcd_factor(atom: IndecBundle) -> tuple[IndecBundle, FBundle]:
    """Factor an indecomposable as E' tensor F_h with gcd(rank E', deg E') = 1.

    h = gcd(d, r), which is r itself when d = 0; the coprime part E' has
    rank r/h and degree d/h and the same slope as the input.
    """
    h = gcd(abs(atom.degree), atom.rank)
    return IndecBundle(atom.rank // h, atom.degree // h), FBundle(h)


def sym_power_split(degrees: SplitDegrees | Iterable[int], a: int) -> SplitDegrees:
    """Line-bundle degrees of S^a applied to a split bundle.

    Each monomial of weight a in the summands contributes the matching sum
    of degrees; the multiset has C(a + n - 1, n - 1) entries for n summands.
    Accepts a SplitDegrees or any iterable of integer degrees.
    """
    if a < 0:
        raise ValueError("symmetric power needs a >= 0")
    if not isinstance(degrees, SplitDegrees):
        degrees = SplitDegrees(degrees)
    return SplitDegrees(
        sum(combo)
        for combo in combinations_with_replacement(degrees.degrees, a)
    )


def sym_rank(r: int, a: int) -> int:
    """rank S^a E for rank E = r: the count of weight-a monomials."""
    if r < 1 or a < 0:
        raise ValueError("sym_rank needs r >= 1 and a >= 0")
    return comb(a + r - 1, r - 1)


def sym_degree(r: int, d: int, a: int) -> int:
    """deg S^a E for rank E = r, deg E = d.

    Equals sym_rank(r, a) * (a * d / r) = C(a + r - 1, r) * d, an integer for
    every (r, d, a); it depends only on rank and total degree, not on the
    splitting type.
    """
    if r < 1 or a < 0:
        raise ValueError("sym_degree needs r >= 1 and a >= 0")
    return comb(a + r - 1, r) * d


def pushforward_mu_minus(E: Bundle, a: int, b: int) -> Fraction:
    """Minimal slope of the pushforward of O(aT + bf): a*mu^-(E) + b.

    Symmetric powers of semistable bundles stay semistable on an elliptic
    curve, so the minimal HN slope scales linearly through S^a and shifts
    by the fiber twist.
    """
    low = E.slope_ends[0]
    return Fraction(a * low.degree + b * low.rank, low.rank)
