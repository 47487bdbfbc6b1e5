"""Verdict engine: frames, rule firings, merge behavior, invariants."""

from __future__ import annotations

import hashlib
import itertools
import json
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
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
from veryample import engine, rules
from veryample.engine import _classify, _evaluate_catalog, _merge
from veryample.rules import (
    ALL_RULES,
    AMPLE_RULES,
    GLOBALLY_GENERATED_RULES,
    NORMALLY_GENERATED_RULES,
    VERY_AMPLE_RULES,
    Case,
    Frame,
    Rule,
)
from veryample.verdicts import RuleFiring

from conftest import bundles, small_bundles


def va(text: str, a: int, b: int):
    return classify_very_ample(parse_bundle(text), Divisor(a, b))


class TestFrames:
    def test_canonical_frames_for_high_degree(self):
        frame, = canonical_frames(parse_bundle("3:4"), Divisor(2, -1))
        assert (frame.l, frame.bundle, frame.b) == (-1, parse_bundle("3:1"), 1)

    def test_canonical_frames_for_low_degree(self):
        frame, = canonical_frames(parse_bundle("2:1"), Divisor(2, 0))
        assert (frame.l, frame.bundle, frame.b) == (0, parse_bundle("2:1"), 0)
        frame, = canonical_frames(parse_bundle("1:-3,2:-2"), Divisor(2, 0))
        assert (frame.l, frame.bundle, frame.b) == (2, parse_bundle("1:-1,2:2"), -4)

    @settings(max_examples=150, derandomize=True)
    @given(bundles(), st.integers(0, 5), st.integers(-8, 8))
    def test_frames_land_in_fundamental_window(self, E, a, b):
        frame, = canonical_frames(E, Divisor(a, b))
        assert 0 <= frame.bundle.degree < E.rank
        assert frame.bundle == E.twist(frame.l)
        assert frame.b == b - a * frame.l
        assert frame.s == pushforward_mu_minus(E, a, b)

    def test_the_next_frame_adds_no_decision(self):
        # in frame l0 + 1 every row is inapplicable or decides as in l0
        # (engine.py docstring), so deciding l0 alone loses nothing
        rows = [rule for rule in ALL_RULES if rule.special is None]
        decisions = 0
        for E in TestGuards.SWEEP + small_bundles(4, 2):
            l = 1 - E.degree // E.rank
            twisted = E.twist(l)
            for a in range(0, 7):
                for b in range(-9, 9):
                    here, = canonical_frames(E, Divisor(a, b))
                    there = Frame(l, twisted, a, b - a * l)
                    for rule in rows:
                        outcome, strength, _ = rule.decide(there)
                        assert outcome is Outcome.INAPPLICABLE or (
                            (outcome, strength) == rule.decide(here)[:2]
                        ), (rule.rule_id, str(E), a, b)
                        decisions += 1
        assert decisions == 1_153_656


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

    def test_a_non_integer_b_is_refused(self):
        # at s = 17/8 R-BUTLER would say yes and R-D0MODR no: the catalog
        # speaks about integer b only, so the divisor is refused first
        with pytest.raises(DomainError, match="must be an integer"):
            classify_very_ample(parse_bundle("2:-2"), Divisor(2, Fraction(33, 8)))


class TestFiringTrail:
    def test_every_rule_reports_in_every_frame(self):
        firings = applicable_rules(parse_bundle("3:4"), Divisor(2, -1))
        by_rule = {}
        for f in firings:
            by_rule.setdefault(f.rule_id, []).append(f.frame)
        assert set(by_rule) == {
            "R-FIBER", "R-MIYAOKA", "R-BUTLER",
            "R-D0MODR", "R-A1-INDEC", "R-A1-DEC", "R-RK2-INDEC", "R-RK2-DEC",
            "R-RK3-INDEC", "R-RK3-DEC", "R-R4D3",
            "R-D3ANYR", "R-D2-INDEC", "R-D2-DEC", "R-D1-INDEC", "R-DGE4",
            "R-RD1", "R-QUOT-NEC",
        }
        for frames in by_rule.values():
            assert frames == sorted(frames)

    def test_rank3_rule_fires_yes_in_the_canonical_frame(self):
        firings = applicable_rules(parse_bundle("3:4"), Divisor(2, -1))
        rk3 = [f for f in firings if f.rule_id == "R-RK3-INDEC"]
        assert [f.frame for f in rk3] == [-1]
        assert all(f.outcome is Outcome.YES for f in rk3)

    def test_necessary_rules_record_passes(self):
        firings = applicable_rules(parse_bundle("1:2,2:3"), Divisor(2, -1))
        quot = [f for f in firings if f.rule_id == "R-QUOT-NEC"
                and f.outcome is not Outcome.INAPPLICABLE]
        assert len(quot) == 2  # proper sub-sums 1:2 and 2:3
        assert all(f.outcome is Outcome.PASS for f in quot)

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

    # sha256 of the trail of the sweep below, byte for byte: every field
    # to_json_dict emits for every firing, the derived ones included
    TRAIL_DIGEST = "376cf5056c29290ad060f7ae83d6ae7416dfd480103a22473b2cf755daa7f241"

    def test_full_trail_is_pinned(self):
        # the decomposable bundles of rank 2..4 with atom degrees -1..1 and
        # four sums of five to seven atoms: R-QUOT-NEC screens lines and
        # atoms of rank 2 and 3, rejected by the curve threshold,
        # R-MIYAOKA, R-D0MODR, R-A1-INDEC and R-RK2-INDEC; every field of
        # every firing is hashed
        sweep = [E for E in small_bundles(4, 1) if not E.is_indecomposable] + [
            parse_bundle(text) for text in (
                "1:-2,1:-1,1:0,1:1,1:2",
                "1:-1,1:0,1:1,2:1,2:3",
                "1:-3,1:-1,1:0,1:2,1:4,1:6",
                "1:-3,1:-2,1:-1,1:0,1:1,1:2,1:3",
            )
        ]
        assert len(sweep) == 77
        digest = hashlib.sha256()
        count = 0
        for E in sweep:
            for a in range(1, 5):
                for b in range(-3, 4):
                    for f in classify_very_ample(E, Divisor(a, b)).firings:
                        fields = json.dumps(f.to_json_dict(), sort_keys=True)
                        digest.update(f"{E}|{a}|{b}|{fields}\n".encode())
                        count += 1
        assert count == 39_956
        assert digest.hexdigest() == self.TRAIL_DIGEST

    def test_decide_matches_evaluate(self):
        rows = [rule for rule in VERY_AMPLE_RULES if rule.special is None]
        for E in small_bundles(4, 2):
            for a in range(0, 5):
                for b in range(-5, 6):
                    for frame in canonical_frames(E, Divisor(a, b)):
                        for rule in rows:
                            assert rule.decide(frame)[0] is rule.evaluate(frame).outcome, (
                                rule.rule_id, str(E), a, b, frame.l,
                            )


class TestGuards:
    # every indecomposable atom of rank 2..8 in its lowest frame, and every
    # decomposable sum of rank 2..6 with atom degrees 0 and 1, so the guards
    # of the rank >= 5 rows and the ample decomposable rows are reached
    SWEEP = [Bundle(((r, d),)) for r in range(2, 9) for d in range(r)] + [
        E for E in small_bundles(6, 1)
        if not E.is_indecomposable and all(A.degree >= 0 for A in E.atoms)
    ]

    # sha256 of (bundle, a, b, rule id, frame, outcome, strength) of every
    # row of the four catalogs in the twists l0 and l0 + 1 of SWEEP, where
    # 0 <= deg E(l0) < rank
    DECISION_DIGEST = "69477775e682c130533dec2309408a8a168b3891f8823c839b2cd96e08dd906c"

    def test_every_guard_decision_is_pinned(self):
        assert (len(self.SWEEP), sum(E.is_ample for E in self.SWEEP)) == (161, 51)
        code = {m: m.value for m in (*Outcome, *Strength)}
        code[None] = None
        digest = hashlib.sha256()
        applied = {}
        for E in self.SWEEP:
            l0 = -(E.degree // E.rank)
            twists = [(l, E.twist(l)) for l in (l0, l0 + 1)]
            for a in range(0, 7):
                for b in range(-9, 9):
                    cell = [str(E), a, b]
                    for frame in (Frame(l, F, a, b - a * l) for l, F in twists):
                        for rule in ALL_RULES:
                            outcome, strength, _ = rule.decide(frame)
                            cell.append((rule.rule_id, frame.l, code[outcome], code[strength]))
                            if strength is not None:
                                applied[rule, frame.bundle] = frame
                    digest.update(repr(cell).encode())
        assert digest.hexdigest() == self.DECISION_DIGEST
        # every case of every row decides somewhere in the sweep; a case
        # condition reads the frame's bundle only
        decided = {
            (rule.rule_id, next(
                i for i, case in enumerate(rule.cases)
                if case.when is None or case.when(frame)
            ))
            for (rule, _), frame in applied.items()
        }
        assert decided == {
            (rule.rule_id, i) for rule in ALL_RULES for i in range(len(rule.cases))
        }

    @pytest.mark.parametrize("scope", [
        "indecomposible",
        "a >= 2, rank 3, indecomposible",
        "a >= 2, rank == 3",
        "rank 4; indecomposable needs b + a*mu(F) > 3/4",
    ])
    def test_an_unknown_guard_phrase_raises_when_built(self, scope):
        with pytest.raises(KeyError):
            rules._rule("R-X", "very_ample", "c", scope, rules._only(Strength.IFF, "a >= 1"))

    @pytest.mark.parametrize("label", ["indecomposible", "rank == 4", "deg = 1 (mod 4)"])
    def test_an_unknown_case_label_raises_when_built(self, label):
        with pytest.raises(KeyError):
            rules._cases((label, Strength.IFF, "a >= 1"), ("otherwise", Strength.IFF, "a >= 1"))


# five to seven atoms, mostly lines, repeated atoms included: the full
# enumeration sees their sub-sums of rank 1..6, rejected by the curve
# threshold and by seven rows, where the screen visits single atoms only
WIDE_SUMS = [
    parse_bundle(text) for text in (
        "1:-2,1:-1,1:0,1:1,1:2",
        "1:-1,1:0,1:1,2:1,2:3",
        "1:0,1:0,1:1,1:2,1:2",
        "1:-3,1:-1,1:0,1:2,1:4,1:6",
        "1:-1,1:-1,1:-1,1:0,1:3,1:3",
        "1:-3,1:-2,1:-1,1:0,1:1,1:2,1:3",
    )
]

# (property, rows, lower end of an Unknown window, least a it is defined for)
PROPERTIES = (
    ("very_ample", VERY_AMPLE_RULES, (Fraction(0), True), 0),
    ("ample", AMPLE_RULES, None, 0),
    ("globally_generated", GLOBALLY_GENERATED_RULES, None, 1),
    ("normally_generated", NORMALLY_GENERATED_RULES, None, 1),
)


def _summary(v):
    return (v.property_name, v.outcome, v.strength, v.binding_rule,
            v.unknown_window, v.unknown_reason, v.slope_invariant)


class TestDecidedMerge:
    """Verdicts merged on decisions against _merge over the full trail,
    which binds on the firings themselves."""

    @pytest.mark.parametrize("name, rules, lo, min_a", PROPERTIES,
                             ids=[p[0] for p in PROPERTIES])
    def test_decisions_bind_as_the_trail_does(self, name, rules, lo, min_a):
        cells = 0
        for E in small_bundles(4, 2) + WIDE_SUMS:
            for a in range(max(min_a, 0), 5):
                for b in range(-5, 6):
                    D = Divisor(a, b)
                    decided = _classify(name, rules, E, D, lo)
                    firings = _evaluate_catalog(rules, E, D)
                    recorded = _merge(name, E, D, firings, lo, trail=lambda: firings)
                    assert _summary(decided) == _summary(recorded), (str(E), a, b)
                    cells += 1
        assert cells == (281 * 5 if min_a == 0 else 281 * 4) * 11

    def test_public_functions_decide(self):
        E, D = parse_bundle("1:-1,1:0,1:1,2:1,2:3"), Divisor(2, 1)
        assert classify_very_ample(E, D) == _classify(
            "very_ample", VERY_AMPLE_RULES, E, D, (Fraction(0), True))
        assert classify_globally_generated(E, D) == _classify(
            "globally_generated", GLOBALLY_GENERATED_RULES, E, D, None)
        assert classify_normally_generated(E, D) == _classify(
            "normally_generated", NORMALLY_GENERATED_RULES, E, D, None)
        assert classify_ample(E, D) is _classify("ample", AMPLE_RULES, E, D, None).is_yes


class TestLazyTrail:
    @staticmethod
    def _count(monkeypatch, owner, name):
        calls = []
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    def test_classify_builds_no_record_until_firings_is_read(self, monkeypatch):
        recorded = self._count(monkeypatch, Rule, "record")
        screened = self._count(monkeypatch, engine, "_quotient_firings")
        # 2:0,2:1 at a = 2, b = 2: the rank-2 sub-sum 2:0 is the witness
        E = parse_bundle("2:0,2:1")
        verdicts = [
            classify_very_ample(E, Divisor(2, 2)),
            classify_very_ample(parse_bundle("1:2,2:3"), Divisor(2, -1)),
            classify_globally_generated(E, Divisor(2, 0)),
            classify_normally_generated(E, Divisor(2, 5)),
        ]
        assert classify_ample(E, Divisor(2, 2))
        assert verdicts[0].is_no and verdicts[0].binding_rule == "R-QUOT-NEC"
        assert (recorded, screened) == ([], [])
        trail = verdicts[0].firings
        assert len(screened) == 1 and recorded
        before = len(recorded)
        assert verdicts[0].firings is trail
        assert len(recorded) == before and len(screened) == 1
        assert trail == _evaluate_catalog(VERY_AMPLE_RULES, E, Divisor(2, 2))

    def test_each_row_is_decided_once_per_frame(self, monkeypatch):
        # Unknown, so the window is read too: 17 rows in the canonical
        # frame and R-QUOT-NEC once, in the untwisted frame
        decided = self._count(monkeypatch, Rule, "decide")
        v = classify_very_ample(parse_bundle("3:2"), Divisor(2, 0))
        assert v.is_unknown and v.unknown_window.render() == "(0, 4/3]"
        per_frame = Counter((rule.rule_id, frame.l) for rule, frame in decided)
        assert set(per_frame.values()) == {1} and len(decided) == 18
        before = len(decided)
        v.firings
        assert len(decided) == before

    def test_verdict_equality_and_repr_leave_the_trail_out(self):
        E, D = parse_bundle("1:2,2:3"), Divisor(2, -2)
        v, w = classify_very_ample(E, D), classify_very_ample(E, D)
        assert v == w and hash(v) == hash(w)
        assert "trail" not in repr(v) and "firings" not in repr(v)
        v.firings
        assert v == w and repr(v) == repr(w)

    def test_quotient_screen_stops_at_the_first_witness(self, monkeypatch):
        # 12 distinct lines: the first screened sub-sum, the lowest line
        # 1:0, has b + a*deg = 2 < 3
        witnesses = self._count(monkeypatch, engine, "_negative_witness")
        E = parse_bundle(",".join(f"1:{d}" for d in range(12)))
        v = classify_very_ample(E, Divisor(2, 2))
        assert v.is_no and v.binding_rule == "R-QUOT-NEC"
        assert len(witnesses) == 1


def _every_proper_sub_sum(E):
    """Every non-empty proper sub-multiset of the atoms: the quotient screen
    before it was pruned, kept here as its oracle."""
    counts = Counter(E.atoms)
    distinct = sorted(counts)
    full = tuple(counts[atom] for atom in distinct)
    for combo in itertools.product(*(range(n + 1) for n in full)):
        if any(combo) and combo != full:
            yield Bundle(itertools.chain.from_iterable(
                (atom,) * k for atom, k in zip(distinct, combo)))


def _lines(degrees, *rest):
    return Bundle([(1, d) for d in degrees] + list(rest))


# lines of degree -2..2, and an atom of rank 2 for the line + rank-2 shape
_LINE_SUMS = [
    _lines(degs)
    for n in (5, 6, 7)
    for degs in itertools.combinations_with_replacement(range(-2, 3), n)
]
_LINES_PLUS_RANK2 = [
    _lines(degs, (2, g))
    for n in (3, 4, 5)
    for degs in itertools.combinations_with_replacement(range(-2, 3), n)
    for g in range(-3, 4)
]
_QUOT = next(rule for rule in VERY_AMPLE_RULES if rule.rule_id == "R-QUOT-NEC")
_PRUNING_ROWS = {"R-FIBER", "R-MIYAOKA", "R-A1-DEC", "R-RK2-DEC", "R-RK3-DEC"}


class TestQuotientScreen:
    """The screen visits O(atoms) sub-sums; these gates check the proof in
    engine.py that no other sub-sum can carry a negative witness."""

    def test_decision_matches_the_full_enumeration(self):
        sweep = small_bundles(4, 2) + WIDE_SUMS + _LINE_SUMS + _LINES_PLUS_RANK2
        rejects = {}  # (Q, a, b) -> does Q carry a witness; sub-sums repeat

        def oracle(E, subs, D):
            if not _QUOT.applies(Frame(0, E, D.a, D.b)):
                return Outcome.INAPPLICABLE
            for Q in subs:
                key = (Q, D.a, D.b)
                if key not in rejects:
                    rejects[key] = engine._negative_witness(Q, D) is not None
                if rejects[key]:
                    return Outcome.NO
            return Outcome.PASS

        cells = 0
        for E in sweep:
            subs = list(_every_proper_sub_sum(E))
            for a in range(0, 6):
                for b in range(-9, 9):
                    D = Divisor(a, b)
                    decided, = engine._decide_catalog((_QUOT,), E, D)
                    assert decided.outcome is oracle(E, subs, D), (str(E), a, b)
                    cells += 1
        assert cells == (281 + 666 + 231 * 7) * 108

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(bundles(min_rank=2, max_rank=8), st.integers(0, 6), st.integers(-8, 8))
    @example(parse_bundle("1:2,2:3"), 2, -1)  # rank3_exception: no No at s = 2
    @example(parse_bundle("1:1,2:3"), 2, 0)  # R-RK3-DEC's No on the line
    def test_a_no_on_a_sum_shows_on_one_atom(self, Q, a, b):
        # every decomposable Q of rank 2..8, not only rank >= 4: a No from
        # a screen row shows on one atom, the one-atom screen's assumption
        if Q.is_indecomposable:
            return
        D = Divisor(a, b)
        saying_no = {
            rule.rule_id
            for frame in canonical_frames(Q, D)
            for rule in engine._SCREEN_RULES
            if rule.decide(frame)[0] is Outcome.NO
        }
        assert saying_no <= _PRUNING_ROWS, (str(Q), a, b)
        if saying_no and a >= 1:
            assert any(
                engine._negative_witness(Bundle((atom,)), D) is not None
                for atom in Q.atoms
            ), (str(Q), a, b)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        st.sampled_from(((1, 1), (1, 1, 1), (1, 2))),
        st.lists(st.integers(-8, 8), min_size=3, max_size=3),
        st.integers(0, 2),
        st.integers(1, 4),
        st.integers(1, 6),
        st.integers(-8, 8),
    )
    def test_lowering_a_line_never_lifts_a_no(self, ranks, degrees, which, drop, a, b):
        # a property of the catalog, pinned on the two-line, three-line and
        # line + rank-2 shapes: lowering a line's degree keeps a No.  The
        # one-atom screen does not rely on it; its assumption is checked by
        # test_a_no_on_a_sum_shows_on_one_atom
        atoms = list(zip(ranks, degrees))
        which = which % ranks.count(1)
        lowered = list(atoms)
        lowered[which] = (1, atoms[which][1] - drop)
        D = Divisor(a, b)
        if engine._negative_witness(Bundle(atoms), D) is not None:
            assert engine._negative_witness(Bundle(lowered), D) is not None, (
                atoms, which, drop, a, b)

    def test_screened_sub_sums(self):
        def screened(text):
            return [str(Q) for Q in engine._proper_sub_multisets(parse_bundle(text))]

        assert screened("1:2,2:3") == ["1:2", "2:3"]
        assert screened("1:0,1:0,1:1,1:1") == ["1:0"]
        assert screened("1:0,1:1") == ["1:0"]
        assert screened("1:0,1:1,1:2") == ["1:0"]
        assert screened("1:3,2:1,2:1,3:0") == ["1:3", "2:1", "3:0"]
        assert screened("2:1,2:3") == ["2:1", "2:3"]
        assert screened("2:1,2:1") == ["2:1"]
        assert screened("2:1") == []
        E = parse_bundle(",".join(f"1:{d}" for d in range(12)) + ",2:1,3:1")
        assert len(engine._proper_sub_multisets(E)) == 3


class TestMergeContract:
    @staticmethod
    def _firing(rule_id, strength, outcome):
        return RuleFiring(
            rule_id=rule_id, citation="synthetic", strength=strength,
            outcome=outcome, frame=0, note="synthetic",
        )

    def test_simultaneous_yes_and_no_aborts(self):
        firings = (
            self._firing("R-SYNTH-A", Strength.SUFFICIENT, Outcome.YES),
            self._firing("R-SYNTH-B", Strength.NECESSARY, Outcome.NO),
        )
        with pytest.raises(ContradictionError):
            _merge("very_ample", parse_bundle("2:1"), Divisor(2, 1),
                   firings, lo=(Fraction(0), True), trail=lambda: firings)

    def test_contradiction_on_decisions_quotes_the_trail(self):
        firings = (
            self._firing("R-SYNTH-A", Strength.SUFFICIENT, Outcome.YES),
            self._firing("R-SYNTH-B", Strength.NECESSARY, Outcome.NO),
        )
        E, D = parse_bundle("2:1"), Divisor(2, 1)
        frame = canonical_frames(E, D)[0]
        decisions = [
            engine._Decision(
                Rule(f.rule_id, "very_ample", f.citation, "synthetic", lambda fr: True,
                     (Case("", None, f.strength, "synthetic", lambda fr: ()),)),
                frame, f.outcome, f.strength, f.comparisons,
            )
            for f in firings
        ]
        with pytest.raises(ContradictionError) as decided:
            _merge("very_ample", E, D, decisions, lo=(Fraction(0), True),
                   trail=lambda: firings)
        with pytest.raises(ContradictionError) as recorded:
            _merge("very_ample", E, D, firings, lo=(Fraction(0), True),
                   trail=lambda: firings)
        assert str(decided.value) == str(recorded.value)
        assert "R-SYNTH-A concludes yes (synthetic)" in str(decided.value)

    def test_iff_outranks_sufficient_for_binding(self):
        firings = (
            self._firing("R-SYNTH-Z", Strength.IFF, Outcome.YES),
            self._firing("R-SYNTH-A", Strength.SUFFICIENT, Outcome.YES),
        )
        v = _merge("very_ample", parse_bundle("2:1"), Divisor(2, 1),
                   firings, lo=(Fraction(0), True), trail=lambda: firings)
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
