"""Numerical ring of P(E): relations, degrees, section counts."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veryample import (
    Bundle,
    ContextMismatchError,
    DomainError,
    H0UndefinedError,
    IndecBundle,
    NumClass,
    divisor_class,
    divisor_degree,
    embedding_profile,
    h0_divisor,
    parse_bundle,
    section_curve_class,
)


def convolve_then_reduce(x: NumClass, y: NumClass) -> NumClass:
    """Reference product: convolve freely in Z[T, f]/(f^2), keeping T powers
    up to 2r-2, and only afterwards push everything through T^r = d*T^(r-1)f.
    Independent of the incremental reduction inside NumClass.__mul__."""
    r, d = x.rank, x.degree
    raw: dict[tuple[int, int], int] = {}
    for (i1, j1), c1 in x.coeffs:
        for (i2, j2), c2 in y.coeffs:
            i, j = i1 + i2, j1 + j2
            if j >= 2:
                continue
            raw[(i, j)] = raw.get((i, j), 0) + c1 * c2
    reduced: dict[tuple[int, int], int] = {}
    for (i, j), c in raw.items():
        if j == 0 and i >= r:
            # one application of the defining relation; anything left over
            # carries a T power at least r against f and dies
            if i == r:
                i, j, c = r - 1, 1, c * d
            else:
                continue
        if j == 1 and i >= r:
            continue
        reduced[(i, j)] = reduced.get((i, j), 0) + c
    return NumClass(r, d, reduced)


def random_classes(rank: int, degree: int):
    monomials = [(i, j) for i in range(rank) for j in (0, 1)]
    return st.builds(
        lambda cs: NumClass(rank, degree, dict(zip(monomials, cs))),
        st.lists(
            st.integers(-9, 9), min_size=len(monomials), max_size=len(monomials)
        ),
    )


class TestRelations:
    def test_fiber_squares_to_zero(self):
        f = NumClass.fiber(3, 4)
        assert (f * f).is_zero

    def test_taut_power_reduces(self):
        T = NumClass.taut(3, 4)
        assert T * T == NumClass(3, 4, {(2, 0): 1})
        assert T * T * T == NumClass(3, 4, {(2, 1): 4})
        assert (T * T * T * T).is_zero

    def test_point_class(self):
        T, f = NumClass.taut(2, 5), NumClass.fiber(2, 5)
        assert (T * f).point_coefficient == 1
        assert (T * T).point_coefficient == 5

    def test_rank_one_taut_is_degree_times_fiber(self):
        assert NumClass.taut(1, 7) == 7 * NumClass.fiber(1, 7)

    def test_rejects_monomials_outside_basis(self):
        with pytest.raises(DomainError):
            NumClass(2, 3, {(2, 0): 1})
        with pytest.raises(DomainError):
            NumClass(2, 3, {(0, 2): 1})
        with pytest.raises(DomainError):
            NumClass(0, 0, {})

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatchError):
            NumClass.taut(2, 3) + NumClass.taut(2, 4)
        with pytest.raises(ContextMismatchError):
            NumClass.taut(2, 3) * NumClass.taut(3, 3)


class TestRingLaws:
    @settings(max_examples=120, derandomize=True)
    @given(random_classes(4, 3), random_classes(4, 3))
    def test_product_matches_reference(self, x, y):
        assert x * y == convolve_then_reduce(x, y)

    @settings(max_examples=120, derandomize=True)
    @given(random_classes(3, -2), random_classes(3, -2), random_classes(3, -2))
    def test_associative_commutative_distributive(self, x, y, z):
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z

    def test_scalar_action(self):
        T = NumClass.taut(2, 1)
        assert 3 * T == T + T + T
        assert 0 * T == NumClass.zero(2, 1)


class TestSectionGeometry:
    def test_rank_two_restriction_identity(self):
        # On P(O(h) + O(g)) the section cut by O(h) meets aT + bf in
        # a*g + b points: (aT + bf)(T - h*f) = (a*g + b) * point.
        for h, g, a, b in itertools.product(range(-3, 4), range(-3, 4),
                                            range(0, 4), range(-3, 4)):
            E = Bundle(((1, h), (1, g)))
            D = divisor_class(E, a, b)
            section = NumClass(2, h + g, {(1, 0): 1, (0, 1): -h})
            assert (D * section).point_coefficient == a * g + b

    def test_section_curve_class_examples(self):
        E = parse_bundle("1:2,2:3")
        C = section_curve_class(E, IndecBundle(1, 2))
        assert C == NumClass(3, 5, {(2, 0): 1, (1, 1): -3})

    def test_section_meets_divisor_in_b_plus_a_deg(self):
        for degs in itertools.product(range(-2, 3), repeat=3):
            E = Bundle(tuple((1, w) for w in degs))
            for w in set(degs):
                C = section_curve_class(E, IndecBundle(1, w))
                for a, b in itertools.product(range(0, 4), range(-3, 4)):
                    D = divisor_class(E, a, b)
                    assert (D * C).point_coefficient == b + a * w

    def test_section_curve_class_domain_errors(self):
        with pytest.raises(DomainError):
            section_curve_class(parse_bundle("1:1,1:1,1:1,1:0"), IndecBundle(1, 1))
        with pytest.raises(DomainError):
            section_curve_class(parse_bundle("1:2,2:3"), IndecBundle(2, 3))
        with pytest.raises(DomainError):
            section_curve_class(parse_bundle("1:2,2:3"), IndecBundle(1, 9))


class TestDegreesAndSections:
    def test_divisor_degree_examples(self):
        assert divisor_degree(parse_bundle("3:4"), 2, -1) == 20
        assert divisor_degree(parse_bundle("2:1"), 2, 1) == 8

    @given(st.integers(1, 6), st.integers(-6, 6), st.integers(-5, 5),
           st.integers(-5, 5))
    def test_degree_closed_form_matches_expansion(self, r, d, a, b):
        E = Bundle(((r, d),))
        D = divisor_class(E, a, b)
        power = NumClass.one(r, d)
        for _ in range(r):
            power = power * D
        assert power.point_coefficient == divisor_degree(E, a, b)

    def test_h0_examples(self):
        assert h0_divisor(parse_bundle("3:4"), 2, -1) == 10
        assert h0_divisor(parse_bundle("2:1"), 2, 1) == 6
        # split case: h^0 of O(1) + O(2) is 1 + 2 on a genus-one base
        assert h0_divisor(parse_bundle("1:1,1:2"), 1, 0) == 3

    def test_h0_requires_positive_pushforward_slope(self):
        with pytest.raises(H0UndefinedError):
            h0_divisor(parse_bundle("2:0"), 1, 0)
        with pytest.raises(H0UndefinedError):
            h0_divisor(parse_bundle("2:1"), 0, 5)
        with pytest.raises(H0UndefinedError):
            h0_divisor(parse_bundle("2:1"), 2, -1)

    @given(st.integers(1, 6), st.integers(-8, 8), st.integers(1, 5),
           st.integers(-8, 8), st.integers(-3, 3))
    def test_h0_is_twist_invariant(self, r, d, a, b, l):
        E = Bundle(((r, d),))
        try:
            reference = h0_divisor(E, a, b)
        except H0UndefinedError:
            with pytest.raises(H0UndefinedError):
                h0_divisor(E.twist(l), a, b - a * l)
            return
        assert h0_divisor(E.twist(l), a, b - a * l) == reference

    def test_embedding_profiles(self):
        assert embedding_profile(parse_bundle("3:4"), 2, -1) == (20, 9)
        assert embedding_profile(parse_bundle("2:1"), 2, 1) == (8, 5)

    def test_trivial_bundle_sanity(self):
        # On P(O + O) = P^1 x E the pushforward of O(T + f) is two degree-one
        # line bundles, one section each.
        assert h0_divisor(parse_bundle("1:0,1:0"), 1, 1) == 2
