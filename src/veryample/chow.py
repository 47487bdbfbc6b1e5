"""The numerical intersection ring of P(E) over an elliptic curve.

For E of rank r and degree d on an elliptic base, numerical classes on P(E)
are integer combinations of the monomials T^i f^j with 0 <= i <= r-1 and
j in {0, 1}, where T is the tautological divisor class and f the fiber.
The whole ring structure is two relations:

    f^2 = 0        and        T^r = d * T^(r-1) f,

and the point class is T^(r-1) f = 1.  Together they force T^k = 0 for
k > r and T^k f = 0 for k >= r, so multiplication always lands back in the
basis above.  Everything is exact integer arithmetic.

h^0 computations ride on the pushforward: when the minimal slope of
S^a(E)(b) is positive, higher cohomology vanishes on the genus-one base and
h^0 is read off the degree and rank of the pushforward alone.
"""

from __future__ import annotations

from typing import NamedTuple

from ._frozen import validated_make
from .atiyah import pushforward_mu_minus, sym_degree, sym_rank
from .bundles import Bundle, IndecBundle
from .errors import ContextMismatchError, DomainError, H0UndefinedError

__all__ = [
    "NumClass",
    "divisor_class",
    "divisor_degree",
    "h0_divisor",
    "embedding_profile",
    "section_curve_class",
]


class _NumClassFields(NamedTuple):
    rank: int
    degree: int
    coeffs: tuple[tuple[tuple[int, int], int], ...]


class NumClass(_NumClassFields):
    """An element of the numerical ring of P(E), in the T^i f^j basis.

    rank and degree pin down the ambient P(E); coeffs maps basis exponents
    (i, j) to integer coefficients, zero entries dropped.
    """

    __slots__ = ()
    _make = classmethod(validated_make)

    def __new__(cls, rank: int, degree: int, coeffs) -> "NumClass":
        if rank < 1:
            raise DomainError(f"P(E) needs rank >= 1, got {rank}")
        cleaned = {}
        for (i, j), c in dict(coeffs).items():
            if not (0 <= i <= rank - 1 and j in (0, 1)):
                raise DomainError(f"monomial T^{i} f^{j} outside the basis")
            if c:
                cleaned[(i, j)] = int(c)
        return tuple.__new__(cls, (rank, degree, tuple(sorted(cleaned.items()))))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, rank: int, degree: int) -> "NumClass":
        return cls(rank, degree, {})

    @classmethod
    def one(cls, rank: int, degree: int) -> "NumClass":
        return cls(rank, degree, {(0, 0): 1})

    @classmethod
    def taut(cls, rank: int, degree: int) -> "NumClass":
        """The tautological class T (reduced via T = d*f when rank is 1)."""
        if rank == 1:
            return cls(rank, degree, {(0, 1): degree})
        return cls(rank, degree, {(1, 0): 1})

    @classmethod
    def fiber(cls, rank: int, degree: int) -> "NumClass":
        return cls(rank, degree, {(0, 1): 1})

    # -- ring structure ----------------------------------------------------

    def _same_context(self, other: "NumClass") -> None:
        if (self.rank, self.degree) != (other.rank, other.degree):
            raise ContextMismatchError(
                f"classes live on different P(E): rank/degree "
                f"({self.rank},{self.degree}) vs ({other.rank},{other.degree})"
            )

    def coefficient(self, i: int, j: int) -> int:
        return dict(self.coeffs).get((i, j), 0)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def point_coefficient(self) -> int:
        """Coefficient of the point class T^(r-1) f."""
        return self.coefficient(self.rank - 1, 1)

    def __add__(self, other: "NumClass") -> "NumClass":
        self._same_context(other)
        acc = dict(self.coeffs)
        for key, c in other.coeffs:
            acc[key] = acc.get(key, 0) + c
        return NumClass(self.rank, self.degree, acc)

    def __neg__(self) -> "NumClass":
        return NumClass(self.rank, self.degree, {k: -c for k, c in self.coeffs})

    def __sub__(self, other: "NumClass") -> "NumClass":
        return self + (-other)

    def __rmul__(self, scalar: int) -> "NumClass":
        if not isinstance(scalar, int):
            return NotImplemented
        return NumClass(self.rank, self.degree, {k: scalar * c for k, c in self.coeffs})

    def __mul__(self, other):
        if isinstance(other, int):
            return other * self
        if not isinstance(other, NumClass):
            return NotImplemented
        self._same_context(other)
        r, d = self.rank, self.degree
        acc: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in self.coeffs:
            for (i2, j2), c2 in other.coeffs:
                i, j, c = i1 + i2, j1 + j2, c1 * c2
                if j >= 2:
                    continue  # f^2 = 0
                if j == 1 and i >= r:
                    continue  # T^i f = 0 for i >= r
                if j == 0 and i >= r:
                    # T^r = d*T^(r-1) f and T^i = 0 beyond that
                    if i > r:
                        continue
                    i, j, c = r - 1, 1, c * d
                acc[(i, j)] = acc.get((i, j), 0) + c
        return NumClass(r, d, acc)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for (i, j), c in sorted(self.coeffs, reverse=True):
            mono = "".join(
                [f"T^{i}" if i > 1 else "T" * i, "f" if j else ""]
            ) or "1"
            parts.append(f"{c}*{mono}" if mono != "1" else str(c))
        return " + ".join(parts).replace("+ -", "- ")


def divisor_class(E: Bundle, a: int, b: int) -> NumClass:
    """The class aT + bf on P(E)."""
    r, d = E.rank, E.degree
    return a * NumClass.taut(r, d) + b * NumClass.fiber(r, d)


def divisor_degree(E: Bundle, a: int, b: int) -> int:
    """Top self-intersection (aT + bf)^r = a^r * d + r * a^(r-1) * b.

    Closed form of the expansion: only T^r and r copies of T^(r-1) f
    survive the relations.
    """
    r, d = E.rank, E.degree
    return a**r * d + r * a ** (r - 1) * b


def h0_divisor(E: Bundle, a: int, b: int) -> int:
    """Global sections of O(aT + bf), via the degree of the pushforward.

    Requires a >= 1 and a positive minimal pushforward slope; under that
    positivity h^1 of the pushforward vanishes on the genus-one base and
    h^0 = deg S^a(E) + rank S^a(E) * b.  Outside it the count is not a
    function of (rank, degree) alone, so H0UndefinedError is raised.
    """
    if a < 1:
        raise H0UndefinedError(f"h^0 formula needs a >= 1, got a={a}")
    slope = pushforward_mu_minus(E, a, b)
    if slope <= 0:
        raise H0UndefinedError(
            f"h^0 formula needs b + a*mu^-(E) > 0, got {slope}"
        )
    r = E.rank
    return sym_degree(r, E.degree, a) + sym_rank(r, a) * b


def embedding_profile(E: Bundle, a: int, b: int) -> tuple[int, int]:
    """(degree, ambient projective dimension) of the image under |aT + bf|.

    The dimension is h^0 - 1; the same positivity precondition as
    h0_divisor applies.
    """
    return divisor_degree(E, a, b), h0_divisor(E, a, b) - 1


def section_curve_class(E: Bundle, W: IndecBundle) -> NumClass:
    """Class of the section of P(E) cut by a rank-one summand W.

    Only meaningful for rank 2 and 3, where the class is
    T^(r-1) - (d - deg W) * T^(r-2) f; it meets aT + bf in b + a*deg W
    points.
    """
    r, d = E.rank, E.degree
    if r not in (2, 3):
        raise DomainError(f"section curve classes are kept for rank 2 and 3, not {r}")
    if W.rank != 1:
        raise DomainError(f"the summand must be a line bundle, got rank {W.rank}")
    if W not in E.atoms:
        raise DomainError(f"{W} is not a summand of {E}")
    return NumClass(
        r, d, {(r - 1, 0): 1, (r - 2, 1): -(d - W.degree)}
    )
