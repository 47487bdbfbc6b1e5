"""Atom grammar, slope invariants, filtration, twist and dual, and the
contract of the public value types."""

from __future__ import annotations

import copy
import itertools
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veryample import (
    Bundle,
    BundleParseError,
    Comparison,
    Divisor,
    DomainError,
    FBundle,
    Frame,
    HNStage,
    IndecBundle,
    NumClass,
    Outcome,
    Rule,
    RuleFiring,
    SplitDegrees,
    Status,
    Strength,
    Verdict,
    Window,
    parse_bundle,
)
from veryample import bundles as bundles_module
from veryample.rules import Case

from conftest import bundles, small_bundles


def sub_multiset_slopes(B: Bundle) -> list[Fraction]:
    """Slopes of every nonempty sub-multiset of atoms.  Brute oracle for
    mu^+ / mu^-: the extremes over all subsheaf/quotient shadows."""
    slopes = []
    for k in range(1, len(B.atoms) + 1):
        for combo in itertools.combinations(B.atoms, k):
            rank = sum(A.rank for A in combo)
            degree = sum(A.degree for A in combo)
            slopes.append(Fraction(degree, rank))
    return slopes


class TestGrammar:
    def test_parse_round_trip(self):
        B = parse_bundle("1:2,2:3")
        assert B.atoms == (IndecBundle(1, 2), IndecBundle(2, 3))
        assert str(B) == "1:2,2:3"

    def test_atom_order_is_canonical(self):
        assert parse_bundle("2:3,1:2") == parse_bundle("1:2,2:3")

    def test_whitespace_tolerated(self):
        assert parse_bundle(" 2:1 , 1:0 ") == parse_bundle("1:0,2:1")

    def test_negative_degree(self):
        assert parse_bundle("2:-3").atoms == (IndecBundle(2, -3),)

    @pytest.mark.parametrize(
        "text",
        ["", "  ", "0:1", "2:", ":3", "x", "1:2,,2:3", "1.5:2", "2:3;1:1", "-1:2",
         # digits other than ASCII ones: Arabic-Indic 2:1, and a full-width 3
         "\u0662:\u0661", "1:\uff13"],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(BundleParseError):
            parse_bundle(text)

    def test_programmatic_rank_validation(self):
        with pytest.raises(ValueError):
            IndecBundle(0, 1)
        with pytest.raises(ValueError):
            Bundle(())


class TestSlopes:
    def test_indecomposable(self):
        E = parse_bundle("2:1")
        assert E.slope == Fraction(1, 2)
        assert E.mu_minus == E.mu_plus == Fraction(1, 2)
        assert E.is_semistable

    def test_two_stage(self):
        E = parse_bundle("1:2,2:3")
        assert E.rank == 3
        assert E.degree == 5
        assert E.slope == Fraction(5, 3)
        assert E.mu_minus == Fraction(3, 2)
        assert E.mu_plus == 2
        assert not E.is_semistable

    def test_semistable_decomposable(self):
        E = parse_bundle("1:1,2:2,3:3")
        assert E.is_semistable
        assert E.mu_minus == E.mu_plus == 1

    def test_extremes_against_brute_enumeration(self):
        for B in small_bundles(4, 3):
            slopes = sub_multiset_slopes(B)
            assert B.mu_plus == max(slopes)
            assert B.mu_minus == min(slopes)

    @settings(max_examples=150, derandomize=True)
    @given(bundles(max_rank=6, max_abs_degree=8))
    def test_extremes_against_brute_enumeration_sampled(self, B):
        slopes = sub_multiset_slopes(B)
        assert B.mu_plus == max(slopes)
        assert B.mu_minus == min(slopes)


class TestFiltration:
    def test_example(self):
        E = parse_bundle("1:2,2:3,1:1")
        stages = E.hn_filtration()
        assert [stage.slope for stage in stages] == [2, Fraction(3, 2), 1]
        assert stages[0].atoms == (IndecBundle(1, 2),)
        assert stages[1].rank == 2 and stages[1].degree == 3

    @settings(max_examples=150, derandomize=True)
    @given(bundles())
    def test_properties(self, B):
        stages = B.hn_filtration()
        slopes = [stage.slope for stage in stages]
        assert slopes == sorted(slopes, reverse=True)
        assert len(set(slopes)) == len(slopes)
        regrouped = tuple(sorted(A for stage in stages for A in stage.atoms))
        assert regrouped == B.atoms
        assert slopes[0] == B.mu_plus
        assert slopes[-1] == B.mu_minus
        for stage in stages:
            assert all(A.slope == stage.slope for A in stage.atoms)


class TestTwistAndDual:
    def test_twist_example(self):
        assert parse_bundle("2:1").twist(2) == parse_bundle("2:5")

    def test_normalize_examples(self):
        assert IndecBundle(3, 4).normalize() == (IndecBundle(3, 1), -1)
        assert IndecBundle(2, -3).normalize() == (IndecBundle(2, 1), 2)

    @settings(max_examples=150, derandomize=True)
    @given(bundles(), st.integers(-5, 5))
    def test_twist_shifts_slopes(self, B, l):
        twisted = B.twist(l)
        assert twisted.rank == B.rank
        assert twisted.degree == B.degree + B.rank * l
        assert twisted.slope == B.slope + l
        assert twisted.mu_minus == B.mu_minus + l
        assert twisted.mu_plus == B.mu_plus + l

    def test_twist_is_the_bundle_of_the_twisted_atoms(self):
        # a twist keeps the atoms' order, so it builds them without sorting
        # or validating again; each derived value is the one the sorted,
        # validated constructor gives, and twist(0) is the bundle itself
        checked = 0
        for E in small_bundles(4, 2):
            assert E.twist(0) is E
            for l in range(-3, 4):
                twisted, built = E.twist(l), Bundle(A.twist(l) for A in E.atoms)
                assert twisted.atoms == built.atoms
                assert all(type(A) is IndecBundle for A in twisted.atoms)
                assert twisted == built and hash(twisted) == hash(built)
                assert (twisted.rank, twisted.degree, twisted.slope_ends) == (
                    built.rank, built.degree, built.slope_ends)
                checked += 1
        assert checked == 275 * 7

    @given(st.integers(1, 8), st.integers(-20, 20))
    def test_normalize_lands_in_fundamental_range(self, r, d):
        reduced, l = IndecBundle(r, d).normalize()
        assert 0 <= reduced.degree < r
        assert reduced == IndecBundle(r, d).twist(l)
        again, l2 = reduced.normalize()
        assert again == reduced and l2 == 0

    @settings(max_examples=150, derandomize=True)
    @given(bundles())
    def test_dual_involution_and_slope_flip(self, B):
        assert B.dual().dual() == B
        assert B.dual().mu_minus == -B.mu_plus
        assert B.dual().mu_plus == -B.mu_minus


class TestAmpleness:
    def test_examples(self):
        assert parse_bundle("2:1").is_ample
        assert parse_bundle("1:1,2:3").is_ample
        assert not parse_bundle("1:0,1:3").is_ample
        assert not parse_bundle("3:-1").is_ample

    @settings(max_examples=150, derandomize=True)
    @given(bundles())
    def test_ample_iff_every_atom_positive(self, B):
        assert B.is_ample == all(A.degree > 0 for A in B.atoms)
        assert B.is_ample == (B.mu_minus > 0)


# (factory, a field, repr): the factory builds a fresh value on each call
VALUES = [
    (lambda: IndecBundle(rank=1, degree=2), "rank", "IndecBundle(rank=1, degree=2)"),
    (
        lambda: Bundle([(2, 3), IndecBundle(1, 2)]),
        "atoms",
        "Bundle(atoms=(IndecBundle(rank=1, degree=2), IndecBundle(rank=2, degree=3)))",
    ),
    (
        lambda: HNStage(Fraction(1), (IndecBundle(1, 1),)),
        "slope",
        "HNStage(slope=Fraction(1, 1), atoms=(IndecBundle(rank=1, degree=1),))",
    ),
    (lambda: FBundle(2), "order", "FBundle(order=2)"),
    (lambda: SplitDegrees([2, 1]), "degrees", "SplitDegrees(degrees=(1, 2))"),
    (
        lambda: NumClass(2, 1, {(1, 0): 1, (0, 1): 0}),
        "coeffs",
        "NumClass(rank=2, degree=1, coeffs=(((1, 0), 1),))",
    ),
    (lambda: Divisor(2, -1), "b", "Divisor(a=2, b=-1)"),
    (
        lambda: Frame(0, parse_bundle("2:1"), 2, -1),
        "b",
        "Frame(l=0, bundle=Bundle(atoms=(IndecBundle(rank=2, degree=1),)), a=2, b=-1)",
    ),
    (
        lambda: Rule("R-X", "very_ample", "c", "every divisor",
                     (Case("", Strength.IFF, "a >= 1", None),)),
        "rule_id",
        "Rule(rule_id='R-X', property_name='very_ample', citation='c', "
        "scope='every divisor', cases=(Case(label='', "
        "strength=<Strength.IFF: 'iff'>, text='a >= 1', "
        "end=None),), special=None)",
    ),
    (
        lambda: Comparison("s", Fraction(1), ">=", Fraction(3)),
        "op",
        "Comparison(label='s', lhs=Fraction(1, 1), op='>=', rhs=Fraction(3, 1))",
    ),
    (
        lambda: RuleFiring("R-X", "c", Strength.IFF, Outcome.YES, 0),
        "outcome",
        "RuleFiring(rule_id='R-X', citation='c', strength=<Strength.IFF: 'iff'>, "
        "outcome=<Outcome.YES: 'yes'>, frame=0, comparisons=(), note='')",
    ),
    (
        lambda: Window(Fraction(0), True, None, False),
        "hi",
        "Window(lo=Fraction(0, 1), lo_strict=True, hi=None, hi_inclusive=False)",
    ),
    (
        lambda: Verdict("very_ample", Status.YES, Strength.IFF, "R-X", tuple),
        "outcome",
        "Verdict(property_name='very_ample', outcome=<Status.YES: 'yes'>, "
        "strength=<Strength.IFF: 'iff'>, binding_rule='R-X', unknown_window=None, "
        "unknown_reason=None, slope_invariant=None)",
    ),
]
VALUE_IDS = [text[: text.index("(")] for _, _, text in VALUES]


class TestValueTypes:
    """What callers rely on of every public value type."""

    @pytest.mark.parametrize("make, field, text", VALUES, ids=VALUE_IDS)
    def test_equality_hash_and_repr(self, make, field, text):
        x, y = make(), make()
        assert x is not y and x == y and hash(x) == hash(y)
        assert repr(x) == text
        assert copy.deepcopy(x) == x
        assert x != object()

    @pytest.mark.parametrize("make, field, text", VALUES, ids=VALUE_IDS)
    def test_setting_an_attribute_raises(self, make, field, text):
        x = make()
        for name in (field, "not_a_field"):
            with pytest.raises(AttributeError):
                setattr(x, name, 0)
        assert repr(x) == text

    def test_a_bundle_pickles_its_atoms_only(self):
        def derived(B):
            # read each slot past Bundle.__getattr__, which would derive it
            found = []
            for name in bundles_module._DERIVED:
                try:
                    Bundle.__dict__[name].__get__(B)
                except AttributeError:
                    continue
                found.append(name)
            return found

        E = parse_bundle("1:2,2:3")
        data = pickle.dumps(E)
        assert derived(E) == []
        F = pickle.loads(data)
        assert F == E and hash(F) == hash(E) and derived(F) == []
        assert (F.rank, F.mu_minus, F.mu_plus) == (3, Fraction(3, 2), 2)
        assert pickle.dumps(F) == data  # derived slots never travel

    def test_atom_order_and_canonical_sum(self):
        atoms = [IndecBundle(2, -1), IndecBundle(1, 5), IndecBundle(1, -3), IndecBundle(2, -4)]
        ordered = (IndecBundle(1, -3), IndecBundle(1, 5), IndecBundle(2, -4), IndecBundle(2, -1))
        assert tuple(sorted(atoms)) == ordered
        assert IndecBundle(1, 5) < IndecBundle(2, -4) <= IndecBundle(2, -4)
        assert Bundle(atoms).atoms == ordered
        assert Bundle(atoms) == Bundle(reversed(atoms))
        assert hash(Bundle(atoms)) == hash(Bundle(reversed(atoms)))
        assert Bundle([(2, -1), (1, 5)]) == Bundle([IndecBundle(1, 5), IndecBundle(2, -1)])
        assert Bundle(atoms) != Bundle(atoms[:3])

    @pytest.mark.parametrize(
        "make, error, message",
        [
            (lambda: IndecBundle(0, 1), ValueError, "atom rank must be >= 1, got 0"),
            (lambda: IndecBundle(rank=-2, degree=1), ValueError, "atom rank must be >= 1, got -2"),
            (lambda: Bundle([(0, 3)]), ValueError, "atom rank must be >= 1, got 0"),
            (lambda: Bundle(()), ValueError, "a bundle needs at least one atom"),
            (lambda: FBundle(0), ValueError, "F_r needs r >= 1, got 0"),
            (lambda: SplitDegrees([]), ValueError, "a split bundle needs at least one line bundle"),
            (lambda: NumClass(0, 1, {}), DomainError, "P(E) needs rank >= 1, got 0"),
            (
                lambda: Comparison("s", Fraction(1), "<", Fraction(0)),
                ValueError,
                "comparison operator must be > or >=, got '<'",
            ),
            # namedtuple's _make and _replace go through the same checks
            (lambda: IndecBundle._make((0, 1)), ValueError, "atom rank must be >= 1, got 0"),
            (lambda: IndecBundle(2, 1)._replace(rank=-3), ValueError,
             "atom rank must be >= 1, got -3"),
            (lambda: FBundle._make((0,)), ValueError, "F_r needs r >= 1, got 0"),
            (lambda: SplitDegrees([1])._replace(degrees=()), ValueError,
             "a split bundle needs at least one line bundle"),
            (lambda: NumClass._make((0, 1, ())), DomainError, "P(E) needs rank >= 1, got 0"),
            (
                lambda: Comparison("s", Fraction(1), ">", Fraction(0))._replace(op="<"),
                ValueError,
                "comparison operator must be > or >=, got '<'",
            ),
            (lambda: Divisor(2, 0.5), DomainError,
             "divisor coefficient b must be an integer, got 0.5"),
            (lambda: Divisor(True, 3), DomainError,
             "divisor coefficient a must be an integer, got True"),
            (lambda: Divisor._make((2, Fraction(1, 2))), DomainError,
             "divisor coefficient b must be an integer, got Fraction(1, 2)"),
            (lambda: Divisor(2, 1)._replace(a=2.0), DomainError,
             "divisor coefficient a must be an integer, got 2.0"),
        ],
        ids=["IndecBundle", "IndecBundle-keywords", "Bundle-atom", "Bundle-empty",
             "FBundle", "SplitDegrees", "NumClass", "Comparison",
             "IndecBundle-make", "IndecBundle-replace", "FBundle-make",
             "SplitDegrees-replace", "NumClass-make", "Comparison-replace",
             "Divisor-float", "Divisor-bool", "Divisor-make", "Divisor-replace"],
    )
    def test_validation_errors(self, make, error, message):
        with pytest.raises(error, match=re.escape(message)):
            make()

    @settings(max_examples=200, derandomize=True)
    @given(
        st.one_of(
            st.fractions().filter(lambda q: q.denominator != 1),
            st.floats(allow_nan=True, allow_infinity=True),
            st.booleans(),
        ),
        st.integers(-8, 8),
        st.booleans(),
    )
    def test_divisor_refuses_every_non_integer(self, bad, other, bad_is_a):
        # the numerical classes of P(E) are ZT + Zf; an integral float or
        # Fraction is refused too, as it is not an int
        args = (bad, other) if bad_is_a else (other, bad)
        with pytest.raises(DomainError, match="must be an integer"):
            Divisor(*args)
