"""Verdict engine: frames, rule firings, merge behavior, invariants."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veryample import (
    Bundle,
    ContradictionError,
    Divisor,
    DomainError,
    Outcome,
    Status,
    Strength,
    applicable_rules,
    canonical_frames,
    classify_ample,
    classify_globally_generated,
    classify_normally_generated,
    classify_very_ample,
    parse_bundle,
    pushforward_mu_minus,
    rank3_exception,
)
from veryample.engine import _merge
from veryample.verdicts import RuleFiring

from conftest import bundles, small_bundles


def va(text: str, a: int, b: int):
    return classify_very_ample(parse_bundle(text), Divisor(a, b))


class TestFrames:
    def test_canonical_frames_for_high_degree(self):
        frames = canonical_frames(parse_bundle("3:4"), Divisor(2, -1))
        assert [fr.l for fr in frames] == [-1, 0]
        assert frames[0].bundle == parse_bundle("3:1")
        assert frames[0].b == 1
        assert frames[1].bundle == parse_bundle("3:4")
        assert frames[1].b == -1

    def test_canonical_frames_for_low_degree(self):
        frames = canonical_frames(parse_bundle("2:1"), Divisor(2, 0))
        assert [fr.l for fr in frames] == [0, 1]
        assert frames[1].bundle == parse_bundle("2:3")
        assert frames[1].b == -2

    @settings(max_examples=150, derandomize=True)
    @given(bundles(), st.integers(0, 5), st.integers(-8, 8))
    def test_frames_land_in_fundamental_window(self, E, a, b):
        frames = canonical_frames(E, Divisor(a, b))
        assert len(frames) == 2
        assert frames[1].l == frames[0].l + 1
        for fr in frames:
            assert 0 <= fr.bundle.degree <= 2 * E.rank - 1
            assert fr.b == b - a * fr.l
            assert fr.s == pushforward_mu_minus(E, a, b)


class TestWorkedVerdicts:
    def test_semistable_rank3_sufficient(self):
        v = va("3:4", 2, -1)
        assert v.status == "VeryAmple"
        assert v.strength is Strength.SUFFICIENT
        assert v.binding_rule == "R-RK3-INDEC"
        assert v.slope_invariant == Fraction(5, 3)

    def test_degenerate_rank2_iff_no(self):
        v = va("2:0", 2, 2)
        assert v.status == "NotVeryAmple"
        assert v.binding_rule == "R-D0MODR"
        assert v.strength is Strength.IFF

    def test_odd_rank2_iff_yes(self):
        v = va("2:1", 2, 1)
        assert v.status == "VeryAmple"
        assert v.strength is Strength.IFF
        assert v.binding_rule == "R-RK2-INDEC"

    def test_exception_family_yes_then_window_then_no(self):
        yes = va("1:2,2:3", 2, 0)
        assert yes.status == "VeryAmple"
        assert yes.strength is Strength.SUFFICIENT

        open_case = va("1:2,2:3", 2, -1)
        assert open_case.status == "Unknown"
        assert open_case.unknown_window.render() == "(0, 2]"
        assert open_case.unknown_reason == "open-range"

        no = va("1:2,2:3", 2, -2)
        assert no.status == "NotVeryAmple"
        assert no.strength is Strength.NECESSARY
        assert no.binding_rule == "R-QUOT-NEC"

    def test_rank4_degree3_iff_boundary(self):
        assert va("4:3", 4, -1).status == "VeryAmple"
        assert va("4:3", 4, -1).strength is Strength.IFF
        assert va("4:3", 4, -2).status == "NotVeryAmple"

    def test_fiber_multiples_are_never_very_ample(self):
        v = va("2:1", 0, 5)
        assert v.status == "NotVeryAmple"
        assert v.binding_rule == "R-FIBER"

    def test_rank_one_is_rejected(self):
        with pytest.raises(DomainError):
            va("1:5", 2, 0)


class TestFiringTrail:
    def test_every_rule_reports_in_every_frame(self):
        firings = applicable_rules(parse_bundle("3:4"), Divisor(2, -1))
        by_rule = {}
        for f in firings:
            by_rule.setdefault(f.rule_id, []).append(f.frame)
        assert set(by_rule) == {
            "R-FIBER", "R-MIYAOKA", "R-BUTLER", "R-MU3",
            "R-D0MODR", "R-A1-INDEC", "R-A1-DEC", "R-RK2-INDEC", "R-RK2-DEC",
            "R-RK3-INDEC", "R-RK3-DEC", "R-RK3-DEC-NEC", "R-R4D3",
            "R-D3ANYR", "R-D2-INDEC", "R-D2-DEC", "R-D1-INDEC", "R-DGE4",
            "R-RD1", "R-QUOT-NEC",
        }
        for frames in by_rule.values():
            assert frames == sorted(frames)

    def test_rank3_rule_fires_yes_in_both_frames(self):
        firings = applicable_rules(parse_bundle("3:4"), Divisor(2, -1))
        rk3 = [f for f in firings if f.rule_id == "R-RK3-INDEC"]
        assert [f.frame for f in rk3] == [-1, 0]
        assert all(f.outcome is Outcome.YES for f in rk3)

    def test_necessary_rules_record_passes(self):
        firings = applicable_rules(parse_bundle("1:2,2:3"), Divisor(2, -1))
        quot = [f for f in firings if f.rule_id == "R-QUOT-NEC"
                and f.outcome is not Outcome.INAPPLICABLE]
        assert len(quot) == 2  # proper sub-sums 1:2 and 2:3
        assert all(f.outcome is Outcome.PASS for f in quot)
        nec = [f for f in firings if f.rule_id == "R-RK3-DEC-NEC"]
        assert any(f.outcome is Outcome.PASS for f in nec)

    def test_quotient_failure_names_the_witness(self):
        firings = applicable_rules(parse_bundle("1:2,2:3"), Divisor(2, -2))
        rejected = [f for f in firings if f.rule_id == "R-QUOT-NEC"
                    and f.outcome is Outcome.NO]
        assert rejected
        assert "P(1:2)" in rejected[0].condition
        assert rejected[0].lhs == 2 and rejected[0].threshold == 3

    def test_guard_misses_are_reported_inapplicable(self):
        firings = applicable_rules(parse_bundle("3:4"), Divisor(2, -1))
        d0 = [f for f in firings if f.rule_id == "R-D0MODR"]
        assert all(f.outcome is Outcome.INAPPLICABLE for f in d0)
        assert all("guard not met" in f.condition for f in d0)


class TestMergeContract:
    @staticmethod
    def _firing(rule_id, strength, outcome):
        return RuleFiring(
            rule_id=rule_id, citation="synthetic", strength=strength,
            condition="synthetic", lhs=Fraction(0), threshold=Fraction(0),
            strict=False, outcome=outcome, frame=0,
        )

    def test_simultaneous_yes_and_no_aborts(self):
        firings = (
            self._firing("R-SYNTH-A", Strength.SUFFICIENT, Outcome.YES),
            self._firing("R-SYNTH-B", Strength.NECESSARY, Outcome.NO),
        )
        with pytest.raises(ContradictionError):
            _merge("very_ample", parse_bundle("2:1"), Divisor(2, 1),
                   firings, [], lo=(Fraction(0), True))

    def test_iff_outranks_sufficient_for_binding(self):
        firings = (
            self._firing("R-SYNTH-Z", Strength.IFF, Outcome.YES),
            self._firing("R-SYNTH-A", Strength.SUFFICIENT, Outcome.YES),
        )
        v = _merge("very_ample", parse_bundle("2:1"), Divisor(2, 1),
                   firings, [], lo=(Fraction(0), True))
        assert v.binding_rule == "R-SYNTH-Z"
        assert v.strength is Strength.IFF


class TestOtherProperties:
    def test_ample_examples(self):
        assert classify_ample(parse_bundle("2:1"), Divisor(2, 0))
        assert not classify_ample(parse_bundle("2:1"), Divisor(2, -1))
        assert not classify_ample(parse_bundle("2:1"), Divisor(0, 5))
        assert classify_ample(parse_bundle("1:2,2:3"), Divisor(1, -1))

    def test_globally_generated_examples(self):
        v = classify_globally_generated(parse_bundle("2:3"), Divisor(1, 0))
        assert v.status == "Yes" and v.strength is Strength.IFF

        v = classify_globally_generated(parse_bundle("2:1"), Divisor(2, 1))
        assert v.status == "Yes" and v.strength is Strength.SUFFICIENT

        v = classify_globally_generated(parse_bundle("2:1"), Divisor(2, 0))
        assert v.status == "Unknown"
        assert v.unknown_window.render() == "(-inf, 1]"

        with pytest.raises(DomainError):
            classify_globally_generated(parse_bundle("2:1"), Divisor(0, 3))

    def test_normally_generated_examples(self):
        v = classify_normally_generated(parse_bundle("2:1"), Divisor(2, 2))
        assert v.status == "Yes" and v.binding_rule == "R-NG-BUTLER"

        v = classify_normally_generated(parse_bundle("2:1"), Divisor(2, 1))
        assert v.status == "Unknown"
        assert v.unknown_window.render() == "(-inf, 2]"

        with pytest.raises(DomainError):
            classify_normally_generated(parse_bundle("2:1"), Divisor(0, 3))


class TestExceptionDetector:
    def test_examples(self):
        assert rank3_exception(parse_bundle("1:2,2:3"))
        assert not rank3_exception(parse_bundle("1:1,2:3"))
        assert not rank3_exception(parse_bundle("1:2,2:4"))
        assert not rank3_exception(parse_bundle("1:1,1:2,1:3"))
        assert not rank3_exception(parse_bundle("3:2"))

    @given(st.integers(-8, 8), st.integers(-8, 8), st.integers(-3, 3))
    def test_twist_invariance(self, dl, dg, l):
        E = Bundle(((1, dl), (2, dg)))
        assert rank3_exception(E) == rank3_exception(E.twist(l))


class TestEngineInvariants:
    GRID = [(a, b) for a in range(0, 5) for b in range(-5, 6)]

    def test_deterministic_slice(self):
        # every rank 2..3 bundle with small atom degrees, full divisor box
        for E in small_bundles(3, 2):
            for a, b in self.GRID:
                v = classify_very_ample(E, Divisor(a, b))
                if v.is_yes:
                    assert classify_ample(E, Divisor(a, b))
                if v.is_unknown:
                    s = v.slope_invariant
                    assert 0 < s <= 2
                    assert a >= 2

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(bundles(), st.integers(0, 6), st.integers(-8, 8),
           st.integers(-3, 3))
    def test_twist_invariance_of_verdicts(self, E, a, b, l):
        v = classify_very_ample(E, Divisor(a, b))
        w = classify_very_ample(E.twist(l), Divisor(a, b - a * l))
        assert (v.status, v.strength, v.binding_rule) == \
            (w.status, w.strength, w.binding_rule)
        if v.unknown_window is not None:
            assert v.unknown_window == w.unknown_window

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(bundles(), st.integers(1, 6), st.integers(-8, 8))
    def test_monotone_in_fiber_coefficient(self, E, a, b):
        here = classify_very_ample(E, Divisor(a, b))
        up = classify_very_ample(E, Divisor(a, b + 1))
        if here.is_yes:
            assert up.is_yes
        if up.is_no:
            assert here.is_no

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(bundles(max_rank=5), st.integers(-8, 8))
    def test_hyperplane_frame_is_complete(self, E, b):
        # a = 1 admits an if-and-only-if answer for every shape
        assert not classify_very_ample(E, Divisor(1, b)).is_unknown

    def test_rank2_is_complete(self):
        for E in small_bundles(2, 3):
            for a, b in self.GRID:
                assert not classify_very_ample(E, Divisor(a, b)).is_unknown

    def test_rank3_windows(self):
        # indecomposable rank 3, a >= 2: the verdict is an exact trichotomy
        # in s, with an open strip whose width depends on degree mod 3
        strips = {1: Fraction(1), 2: Fraction(4, 3)}
        for d in range(-4, 5):
            E = Bundle(((3, d),))
            for a in range(2, 7):
                for b in range(-8, 9):
                    v = classify_very_ample(E, Divisor(a, b))
                    s = pushforward_mu_minus(E, a, b)
                    if d % 3 == 0:
                        assert not v.is_unknown
                        assert v.is_yes == (s >= 3)
                        continue
                    hi = strips[d % 3]
                    if s <= 0:
                        assert v.is_no
                    elif s <= hi:
                        assert v.is_unknown
                        assert v.unknown_window.hi == hi
                    else:
                        assert v.is_yes
