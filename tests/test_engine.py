"""Verdict engine: frames, rule firings, merge behavior, invariants."""

from __future__ import annotations

import ast
import functools
import hashlib
import itertools
import json
import pickle
import re
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
from veryample.engine import _classify, _merge, _trail
from veryample.rules import (
    ALL_RULES,
    AMPLE_RULES,
    GLOBALLY_GENERATED_RULES,
    NORMALLY_GENERATED_RULES,
    VERY_AMPLE_RULES,
    Rule,
)
from veryample.verdicts import RuleFiring, Window

from conftest import bundles, small_bundles


def va(text: str, a: int, b: int):
    return classify_very_ample(parse_bundle(text), Divisor(a, b))


def _frame_cell(E, a, b, l=None):
    """The cell of frame l, the canonical l0 by default: (a, b - a*l, sn,
    sd, E(l)) with s = sn/sd, the arguments of a row's decider."""
    if l is None:
        l = -(E.degree // E.rank)
    F = E.twist(l)
    b -= a * l
    low = F.slope_ends[0]
    return a, b, b * low.rank + a * low.degree, low.rank, F


class TestFrames:
    def test_canonical_frames_for_high_degree(self):
        assert canonical_frames(parse_bundle("3:4"), Divisor(2, -1)) == (
            -1, parse_bundle("3:1"), 2, 1)

    def test_canonical_frames_for_low_degree(self):
        assert canonical_frames(parse_bundle("2:1"), Divisor(2, 0)) == (
            0, parse_bundle("2:1"), 2, 0)
        assert canonical_frames(parse_bundle("1:-3,2:-2"), Divisor(2, 0)) == (
            2, parse_bundle("1:-1,2:2"), 2, -4)

    @settings(max_examples=150, derandomize=True)
    @given(bundles(), st.integers(0, 5), st.integers(-8, 8))
    def test_frames_land_in_fundamental_window(self, E, a, b):
        l, F, fa, fb = canonical_frames(E, Divisor(a, b))
        assert 0 <= F.degree < E.rank
        assert F == E.twist(l)
        assert (fa, fb) == (a, b - a * l)
        cell = _frame_cell(E, a, b)
        assert cell[:2] + cell[4:] == (fa, fb, F)
        assert Fraction(cell[2], cell[3]) == pushforward_mu_minus(E, a, b)

    def test_the_next_frame_adds_no_decision(self):
        # in frame l0 + 1 every row is inapplicable or decides as in l0
        # (engine.py docstring), so deciding l0 alone loses nothing
        rows = [(rule.rule_id, rules.decider(rule.rule_id))
                for rule in ALL_RULES if rule.special is None]
        decisions = 0
        for E in TestGuards.SWEEP + small_bundles(4, 2):
            l = 1 - E.degree // E.rank
            for a in range(0, 7):
                for b in range(-9, 9):
                    here, there = _frame_cell(E, a, b), _frame_cell(E, a, b, l)
                    for rule_id, decide in rows:
                        f, g = decide(*there), decide(*here)
                        # (strength, outcome), or the guard failed in l0 + 1
                        assert f is None or (g is not None and f[:2] == g[:2]), (
                            rule_id, str(E), a, b)
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
    def test_each_row_fires_once_in_the_canonical_frame(self):
        # 3:4 twists to 3:1 in l0 = -1; R-QUOT-NEC keeps the untwisted frame
        firings = va("3:4", 2, -1).firings
        rows = [f for f in firings if f.rule_id != "R-QUOT-NEC"]
        assert sorted((f.rule_id, f.frame) for f in rows) == sorted(
            (rule.rule_id, -1) for rule in VERY_AMPLE_RULES if rule.special is None
        )
        assert len(rows) == 17

    def test_rank3_rule_fires_yes_in_the_canonical_frame(self):
        firings = va("3:4", 2, -1).firings
        rk3 = [f for f in firings if f.rule_id == "R-RK3-INDEC"]
        assert [f.frame for f in rk3] == [-1]
        assert all(f.outcome is Outcome.YES for f in rk3)

    def test_necessary_rules_record_passes(self):
        firings = va("1:2,2:3", 2, -1).firings
        quot = [f for f in firings if f.rule_id == "R-QUOT-NEC"
                and f.outcome is not Outcome.INAPPLICABLE]
        assert len(quot) == 2  # proper sub-sums 1:2 and 2:3
        assert all(f.outcome is Outcome.PASS for f in quot)

    def test_quotient_failure_names_the_witness(self):
        firings = va("1:2,2:3", 2, -2).firings
        rejected = [f for f in firings if f.rule_id == "R-QUOT-NEC"
                    and f.outcome is Outcome.NO]
        assert rejected
        assert "P(1:2)" in rejected[0].condition
        assert rejected[0].lhs == 2 and rejected[0].threshold == 3

    def test_guard_misses_are_reported_inapplicable(self):
        firings = va("3:4", 2, -1).firings
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
        # the trail decides only the rows E's plan admits; each row decided
        # afresh by its decider in the canonical frame, excluded rows too,
        # must fire the trail's one firing field for field
        rows = sorted((rule for rule in VERY_AMPLE_RULES if rule.special is None),
                      key=lambda rule: rule.rule_id)
        for E in small_bundles(4, 2):
            l0 = -(E.degree // E.rank)
            for a in range(0, 5):
                for b in range(-5, 6):
                    D = Divisor(a, b)
                    cell = _frame_cell(E, a, b)
                    fired = [f for f in classify_very_ample(E, D).firings
                             if f.rule_id != "R-QUOT-NEC"]
                    assert fired == [
                        rule.evaluate(l0, rules.decider(rule.rule_id)(*cell), cell)
                        for rule in rows], (str(E), a, b)


def _in_cell(expression, cell):
    # an expression the catalog compiles, evaluated on a frame's cell
    return eval(f"lambda {rules.CELL}: {expression}",
                {"rank3_exception": rules.rank3_exception})(*cell)


def _condition(text, cell):
    # one condition or comparison, decided by the expression a row compiles
    return _in_cell(rules._expression(text), cell)


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
            twists = (l0, l0 + 1)
            for a in range(0, 7):
                for b in range(-9, 9):
                    line = [str(E), a, b]
                    for l in twists:
                        cell = _frame_cell(E, a, b, l)
                        for rule in ALL_RULES:
                            f = rule.evaluate(l, rules.decider(rule.rule_id)(*cell), cell)
                            line.append((rule.rule_id, f.frame, code[f.outcome],
                                         code[f.strength]))
                            if f.strength is not None:
                                applied[rule, cell[4]] = cell
                    digest.update(repr(line).encode())
        assert digest.hexdigest() == self.DECISION_DIGEST
        # every case of every row decides somewhere in the sweep; a case
        # condition reads the frame's bundle only
        decided = {
            (rule.rule_id, next(
                i for i, case in enumerate(rule.cases)
                if i == len(rule.cases) - 1 or _condition(case.label, cell)
            ))
            for (rule, _), cell in applied.items()
        }
        assert decided == {
            (rule.rule_id, i) for rule in ALL_RULES for i in range(len(rule.cases))
        }

    def test_a_row_its_bundle_excludes_never_applies(self):
        # the guard split: a bundle part reads no cell field, and a row its
        # bundle excludes is inapplicable in every cell on that bundle, by
        # its own decider, in the frame the trail writes it in
        # (R-QUOT-NEC's untwisted), as the trail decides none of them; the
        # plan of each of the four catalogs holds exactly the rows its
        # admission keeps, each as its id and its decider, R-QUOT-NEC's
        # holding its screen
        assert list(rules.CATALOGS.values()) == [
            VERY_AMPLE_RULES, AMPLE_RULES, GLOBALLY_GENERATED_RULES,
            NORMALLY_GENERATED_RULES]
        for rule in ALL_RULES:
            part = rules._bundle_part(rule.scope)
            assert not re.search(r"\b(a|b|sn|sd)\b", part), (rule.rule_id, part)
        sweep = list(dict.fromkeys(self.SWEEP + small_bundles(4, 2)))
        excluded_decisions = 0
        for E in sweep:
            for a in range(0, 7):
                for b in range(-9, 9):
                    l0, F, _, _ = canonical_frames(E, Divisor(a, b))
                    cell = _frame_cell(E, a, b)
                    for name, catalog in rules.CATALOGS.items():
                        admitted = rules.admits[name](F)
                        l, twisted, low, plan = engine._twisted(name, E)
                        assert (l, twisted, low) == (l0, F, F.slope_ends[0])
                        assert [rule_id for rule_id, _ in plan] == [
                            r.rule_id for r in admitted]
                        for rule_id, decide in plan:
                            if rules.RULES_BY_ID[rule_id].special is None:
                                assert decide is rules.decider(rule_id)
                            else:
                                assert decide.func is engine._decide_quotient
                        for rule in catalog:
                            if rule in admitted:
                                continue
                            where = _frame_cell(E, a, b, 0) if rule.special else cell
                            assert rules.decider(rule.rule_id)(*where) is None, (
                                rule.rule_id, str(E), a, b)
                            excluded_decisions += 1
        assert (len(sweep), excluded_decisions) == (399, 634_158)

    def test_cache_clear_leaves_no_per_bundle_state(self, monkeypatch):
        # the plan cache and the screen's sub-sums hold all per-bundle
        # state: once both are cleared, a bundle seen before is admitted again
        E, D = parse_bundle("1:0,2:-1"), Divisor(2, 3)
        classify_very_ample(E, D)
        admitted, original = [], engine.admits["very_ample"]
        monkeypatch.setitem(engine.admits, "very_ample",
                            lambda F: admitted.append(F) or original(F))
        classify_very_ample(E, D)
        assert admitted == []
        engine._twisted.cache_clear()
        engine._proper_sub_multisets.cache_clear()
        classify_very_ample(E, D)
        # E's plan in l0 = 1, and the plan of the screened sub-sum 2:-1 in its l0
        assert admitted == [E.twist(1), parse_bundle("2:1")]

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


# Each left-hand side of `rules._LHS` and right-hand side of `rules._RHS`,
# written out as a Fraction of (E, a, b) in the frame; ZeroDivisionError
# where it is undefined.
def _mu_minus(E):
    return min(Fraction(A.degree, A.rank) for A in E.atoms)


LHS_FORMULAS = {
    "a": lambda E, a, b: Fraction(a),
    "b + a*mu^-(E)": lambda E, a, b: b + a * _mu_minus(E),
    "b + mu^-(E)": lambda E, a, b: b + _mu_minus(E),
    "b + mu(E)": lambda E, a, b: b + Fraction(E.degree, E.rank),
    "b + a*mu(E)": lambda E, a, b: b + a * Fraction(E.degree, E.rank),
    "b + (a-1)*mu^-(E)": lambda E, a, b: b + (a - 1) * _mu_minus(E),
    "b + (a-1)*mu(E)": lambda E, a, b: b + (a - 1) * Fraction(E.degree, E.rank),
    "b + a": lambda E, a, b: Fraction(b + a),
    "b + a/2": lambda E, a, b: b + Fraction(a, 2),
    "b + a/3": lambda E, a, b: b + Fraction(a, 3),
    "b + a/r": lambda E, a, b: b + Fraction(a, E.rank),
    "b + 2a/r": lambda E, a, b: b + Fraction(2 * a, E.rank),
    "b + a/(r-2)": lambda E, a, b: b + Fraction(a, E.rank - 2),
    "b + a/(d-1)": lambda E, a, b: b + Fraction(a, E.degree - 1),
}
RHS_FORMULAS = {
    "1 + 1/r": lambda E: 1 + Fraction(1, E.rank),
    "1 + 2/r": lambda E: 1 + Fraction(2, E.rank),
    "1 + 2/(r-1)": lambda E: 1 + Fraction(2, E.rank - 1),
}


class TestIntegerDecision:
    """Each comparison is decided in integers and built as Fractions only
    when read; both must say the same."""

    def test_integer_decision_is_the_rendered_one(self):
        rows = [rule for rule in ALL_RULES if rule.special is None]
        applied = 0
        for E in TestGuards.SWEEP + small_bundles(4, 2):
            for a in range(0, 7):
                for b in range(-9, 9):
                    cell = _frame_cell(E, a, b)
                    for rule in rows:
                        k = rules.decider(rule.rule_id)(*cell)
                        if k is None:
                            continue
                        holds = all(c.holds for c in k[2].comparisons(*cell))
                        assert k[1] is rules._OUTCOMES[k[0]][holds], (
                            rule.rule_id, str(E), a, b)
                        applied += 1
        assert applied == 336_952

    def test_every_row_source_parses_as_python_3_10(self):
        # the rows compile on first use from generated source; the oldest
        # Python CI runs must parse every one of them
        for rule in ALL_RULES:
            ast.parse(rules._row_source(rule), feature_version=(3, 10))

    @staticmethod
    def _check(cell, label, text, lhs, op, rhs):
        _, _, num, den, _, _ = rules._parse(text)
        num, den = _in_cell(num, cell), _in_cell(den, cell)
        assert den > 0 and Fraction(num, den) == lhs, text
        expected = lhs > rhs if op == ">" else lhs >= rhs
        assert _condition(text, cell) is expected, text
        built, = rules._builder(text)(*cell)
        assert (built.lhs, built.op, built.rhs, built.holds) == (lhs, op, rhs, expected), text

    @settings(max_examples=300, derandomize=True)
    @given(bundles(min_rank=1, max_rank=8), st.integers(-6, 6), st.integers(-40, 40),
           st.integers(-40, 40), st.fractions(-20, 20, max_denominator=12),
           st.sampled_from([">", ">="]))
    def test_each_side_is_the_fraction_it_names(self, E, l, a, b, t, op):
        # every frame: any twist, any rank, a and b of either sign
        cell = _frame_cell(E, a, b, l)
        F, fb = cell[4], cell[1]
        assert set(LHS_FORMULAS) == set(rules._LHS)
        assert set(RHS_FORMULAS) == set(rules._RHS)
        for label, formula in LHS_FORMULAS.items():
            try:
                lhs = formula(F, a, fb)
            except ZeroDivisionError:
                continue
            self._check(cell, label, f"{label} {op} {t}", lhs, op, t)
        for rhs, formula in RHS_FORMULAS.items():
            try:
                threshold = formula(F)
            except ZeroDivisionError:
                continue
            self._check(cell, "b + a", f"b + a {op} {rhs}", fb + a, op, threshold)


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

# (property, lower end of an Unknown window, least a it is defined for)
PROPERTIES = (
    ("very_ample", (Fraction(0), True), 0),
    ("ample", None, 0),
    ("globally_generated", None, 1),
    ("normally_generated", None, 1),
)


def _summary(v, window=None):
    return (v.property_name, v.outcome, v.strength, v.binding_rule,
            window or v.unknown_window, v.unknown_reason, v.slope_invariant)


def _comparison_window(firings, lo):
    """An Unknown window read off built Comparisons: the least (t, s > t)
    of the sufficient firings whose one comparison is on s."""
    hi = min(
        ((c.rhs, c.op == ">") for f in firings
         if f.strength is Strength.SUFFICIENT
         and len(cs := tuple(f.comparisons)) == 1 and (c := cs[0]).label == rules.S_LABEL),
        default=None,
    )
    return Window(
        lo=Fraction(lo[0]) if lo else None,
        lo_strict=lo[1] if lo else True,
        hi=hi[0] if hi else None,
        hi_inclusive=hi[1] if hi else False,
    )


class _Built(tuple):
    """A trail firing's built comparisons where a decision holds its case:
    their `end` is None, so the merge reads no window end off the case and
    the trail's window is read off the Comparisons themselves
    (`_comparison_window`)."""

    end = None


def _rows(firings):
    """The trail's firings as the merge takes a plan's rows: each row's id
    and a constant decider that returns its (strength, outcome, case), None
    where the guard failed; the case is the firing's comparisons, with no
    `Case.end`."""
    return [(f.rule_id, functools.partial(
        lambda k, *cell: k,
        None if f.strength is None else (f.strength, f.outcome, _Built(f.comparisons))))
        for f in firings]


def _cell(a, b, s, F):
    """A cell the merge decides its rows in, with slope invariant s."""
    return a, b, s.numerator, s.denominator, F


class TestDecidedMerge:
    """Verdicts merged on decisions against _merge over the full trail,
    which binds on the firings' own strength and outcome; the window, which
    the merge reads off each decision's case text, against the one the
    trail's built Comparisons give."""

    @pytest.mark.parametrize("name, lo, min_a", PROPERTIES, ids=[p[0] for p in PROPERTIES])
    def test_decisions_bind_as_the_trail_does(self, name, lo, min_a):
        cells = 0
        for E in small_bundles(4, 2) + WIDE_SUMS:
            for a in range(max(min_a, 0), 5):
                for b in range(-5, 6):
                    D = Divisor(a, b)
                    decided = _classify(name, E, D, lo)
                    firings = _trail(name, E, D)
                    recorded = _merge(name, E, D, lo, lambda: firings, _rows(firings),
                                      *_cell(a, b, pushforward_mu_minus(E, a, b), E))
                    window = recorded.is_unknown and _comparison_window(firings, lo)
                    assert _summary(decided) == _summary(recorded, window), (str(E), a, b)
                    cells += 1
        assert cells == (281 * 5 if min_a == 0 else 281 * 4) * 11

    def test_public_functions_decide(self):
        E, D = parse_bundle("1:-1,1:0,1:1,2:1,2:3"), Divisor(2, 1)
        assert classify_very_ample(E, D) == _classify("very_ample", E, D, (Fraction(0), True))
        assert classify_globally_generated(E, D) == _classify("globally_generated", E, D, None)
        assert classify_normally_generated(E, D) == _classify("normally_generated", E, D, None)
        assert classify_ample(E, D) is _classify("ample", E, D, None).is_yes


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
        recorded = self._count(monkeypatch, engine, "_trail")
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
        # an unread trail holds the property, E and D: no firing, no row id
        D = Divisor(2, 2)
        assert [v.trail.args for v in verdicts] == [
            ("very_ample", E, D), ("very_ample", parse_bundle("1:2,2:3"), Divisor(2, -1)),
            ("globally_generated", E, Divisor(2, 0)), ("normally_generated", E, Divisor(2, 5))]
        trail = verdicts[0].firings
        assert len(screened) == 1 and len(recorded) == 1
        assert verdicts[0].firings is trail
        assert len(recorded) == 1 and len(screened) == 1
        assert trail == _trail("very_ample", E, D)

    @staticmethod
    def _count_decisions(monkeypatch):
        """Every call of a row's decider, as (rule id, cell): the plans are
        built afresh from counting deciders, in a plan cache that goes with
        the patch.  R-QUOT-NEC's decider is the engine's screen, whose rows
        are counted on the sub-sums."""
        calls = []
        original = engine.decider

        def counting(rule_id):
            decide = original(rule_id)
            return lambda *cell: calls.append((rule_id, cell)) or decide(*cell)

        monkeypatch.setattr(engine, "decider", counting)
        monkeypatch.setattr(engine, "_twisted", functools.lru_cache(maxsize=None)(
            engine._twisted.__wrapped__))
        return calls

    def test_each_row_is_decided_once_per_frame(self, monkeypatch):
        # Unknown, so the window is read too.  3:5 twists to 3:2 in l0 = -1.
        # The cell decides the 5 rows the indecomposable 3:2 admits, once
        # each, in l0, and evaluates none; the first read of the trail
        # decides the same 5 rows once more, by the plan's deciders in the
        # same cell, and no other row, and writes each of the 18 rows once,
        # in catalog order, R-QUOT-NEC in frame 0 and the others in l0; a
        # second read decides and evaluates nothing
        decided = self._count_decisions(monkeypatch)
        evaluated = self._count(monkeypatch, Rule, "evaluate")
        E, D = parse_bundle("3:5"), Divisor(2, -2)
        v = classify_very_ample(E, D)
        assert v.is_unknown and v.unknown_window.render() == "(0, 4/3]"
        assert canonical_frames(E, D)[0] == -1
        in_cell = list(decided)
        assert in_cell == [(rule_id, _frame_cell(E, 2, -2, -1)) for rule_id in (
            "R-FIBER", "R-MIYAOKA", "R-BUTLER", "R-A1-INDEC", "R-RK3-INDEC")]
        assert evaluated == []
        v.firings
        trail = [(rule.rule_id, l) for rule, l, k, cell in evaluated]
        assert trail == [(rule.rule_id, 0 if rule.special else -1) for rule in VERY_AMPLE_RULES]
        assert decided == in_cell + in_cell
        before = len(evaluated), len(decided)
        v.firings
        assert (len(evaluated), len(decided)) == before

    def test_an_applicable_quotient_row_is_never_evaluated(self, monkeypatch):
        # on the decomposable 1:0,2:-1 at a = 2 the cell decides, in E's
        # frame, the 5 ordinary rows the bundle admits and R-QUOT-NEC by its
        # screen (which decides rows only on the sub-sum 2:-1), also at
        # a = 0, where it is inapplicable, and evaluates no row; the trail
        # decides the same 5 rows once more in the same cell, and writes
        # every ordinary row once in E's frame l0 = 1, and R-QUOT-NEC in
        # frame 0: where it applies as one firing per screened sub-sum,
        # evaluating no row for it, and at a = 0 as its one inapplicable
        # firing
        decided = self._count_decisions(monkeypatch)
        evaluated = self._count(monkeypatch, Rule, "evaluate")
        E = parse_bundle("1:0,2:-1")
        admitted = ["R-FIBER", "R-MIYAOKA", "R-BUTLER", "R-A1-DEC", "R-RK3-DEC"]
        for a, b, outcomes in ((2, 2, ["no", "no"]), (2, 3, ["pass", "pass"]),
                               (0, 3, ["inapplicable"])):
            decided.clear()
            evaluated.clear()
            v = classify_very_ample(E, Divisor(a, b))
            in_cell = [(rule_id, cell) for rule_id, cell in decided if cell[4].rank == E.rank]
            # at a = 0 too: admission reads the bundle only
            assert in_cell == [(rule_id, _frame_cell(E, a, b, 1)) for rule_id in admitted]
            assert evaluated == []
            quotient = [f for f in v.firings if f.rule_id == "R-QUOT-NEC"]
            assert [(f.outcome.value, f.frame) for f in quotient] == [
                (outcome, 0) for outcome in outcomes]
            on_E = [(rule_id, cell) for rule_id, cell in decided if cell[4].rank == E.rank]
            assert on_E == in_cell + in_cell
            trail = [(rule.rule_id, l, cell) for rule, l, k, cell in evaluated]
            assert trail == [(rule.rule_id, 0 if rule.special else 1, _frame_cell(E, a, b, 1))
                             for rule in VERY_AMPLE_RULES if rule.special is None or a == 0]

    def test_verdict_equality_and_repr_leave_the_trail_out(self):
        E, D = parse_bundle("1:2,2:3"), Divisor(2, -2)
        v, w = classify_very_ample(E, D), classify_very_ample(E, D)
        assert v == w and hash(v) == hash(w)
        assert "trail" not in repr(v) and "firings" not in repr(v)
        v.firings
        assert v == w and repr(v) == repr(w)

    def test_verdict_pickles_before_and_after_its_trail_is_read(self):
        # R-QUOT-NEC says No: the trail screens the sub-sums again when read
        E, D = parse_bundle("1:2,2:3"), Divisor(2, -2)
        for v in (classify_very_ample(E, D), classify_globally_generated(E, D)):
            unread = pickle.loads(pickle.dumps(v))
            firings = v.firings
            read = pickle.loads(pickle.dumps(v))
            assert unread == v and read == v
            assert unread.firings == firings and read.firings == firings
        assert classify_very_ample(E, D).binding_rule == "R-QUOT-NEC"

    # a cell where each very-ample row binds, and R-QUOT-NEC with a line
    # witness (1:0) and with a rank-2 witness (2:0)
    BINDING_CELLS = [
        ("R-FIBER", "2:1", 0, 3), ("R-MIYAOKA", "1:0,2:-1", 2, -10),
        ("R-BUTLER", "1:0,2:-1", 2, 4), ("R-D0MODR", "2:-2", 2, 5),
        ("R-A1-INDEC", "2:1", 1, 2), ("R-A1-DEC", "1:2,2:3", 1, 1),
        ("R-RK2-INDEC", "2:1", 2, 1), ("R-RK2-DEC", "1:0,1:1", 2, 3),
        ("R-RK3-INDEC", "3:-2", 2, 3), ("R-RK3-DEC", "1:0,1:0,1:1", 2, 0),
        ("R-R4D3", "4:-1", 2, 2), ("R-D3ANYR", "1:1,3:-2", 3, 4),
        ("R-D2-INDEC", "5:2", 5, 0), ("R-D2-DEC", "1:0,3:-2", 3, 4),
        ("R-D1-INDEC", "4:1", 3, 1), ("R-DGE4", "13:4", 13, -2),
        ("R-RD1", "5:4", 5, -2), ("R-QUOT-NEC", "1:0,2:-1", 2, 2),
        ("R-QUOT-NEC", "2:0,2:1", 2, 2),
    ]

    def test_a_decided_cell_builds_one_fraction_and_no_comparison(self, monkeypatch):
        # nor a firing: the cell evaluates no row
        built = {"Fraction": 0, "Comparison": 0}

        def count(owner, name, key):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                built[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted if name == "__new__" else classmethod(
                lambda cls, *args: counted(*args)))

        count(Fraction, "__new__", "Fraction")
        if hasattr(Fraction, "_from_coprime_ints"):  # Python >= 3.12 arithmetic
            count(Fraction, "_from_coprime_ints", "Fraction")
        count(rules.Comparison, "__new__", "Comparison")
        evaluated = self._count(monkeypatch, Rule, "evaluate")
        assert {r.rule_id for r in VERY_AMPLE_RULES} == {c[0] for c in self.BINDING_CELLS}
        for rule_id, text, a, b in self.BINDING_CELLS:
            E = parse_bundle(text)
            built.update(Fraction=0, Comparison=0)
            evaluated.clear()
            v = classify_very_ample(E, Divisor(a, b))
            assert not v.is_unknown and v.binding_rule == rule_id, (text, a, b)
            assert built == {"Fraction": 1, "Comparison": 0}, (
                rule_id, text, a, b)
            assert evaluated == [], (rule_id, text, a, b)
            assert v.slope_invariant == pushforward_mu_minus(E, a, b)
            built.update(Fraction=0, Comparison=0)
            v.firings
            assert built["Comparison"] > 0, (rule_id, text, a, b)
        # an Unknown cell reads its window's upper end off R-BUTLER's and
        # R-RK3-INDEC's case texts, s > 2 and s > 4/3, building no Comparison
        built.update(Fraction=0, Comparison=0)
        evaluated.clear()
        v = classify_very_ample(parse_bundle("3:2"), Divisor(2, 0))
        assert v.is_unknown and v.unknown_window.render() == "(0, 4/3]"
        assert (built["Comparison"], evaluated) == (0, [])

    def test_the_trail_compiles_only_admitted_rows(self, monkeypatch):
        # from empty caches, bundle by bundle, classifying every cell for
        # the four properties and reading every trail compiles the rows the
        # plans built admit (E's and those of the atoms its screen
        # visits), each once, and no row a plan excludes; R-QUOT-NEC's
        # decider is its screen, which compiles nothing.  The decider cache
        # and the plan cache are fresh copies that go with the patch
        compiled, built = [], []
        row_source, plan = rules._row_source, engine._twisted.__wrapped__
        monkeypatch.setattr(rules, "_row_source",
                            lambda rule: compiled.append(rule.rule_id) or row_source(rule))
        trails = 0
        for E in small_bundles(4, 2):
            compiled.clear()
            built.clear()
            decider = functools.lru_cache(maxsize=None)(rules.decider.__wrapped__)
            monkeypatch.setattr(rules, "decider", decider)
            monkeypatch.setattr(engine, "decider", decider)
            monkeypatch.setattr(engine, "_twisted", functools.lru_cache(maxsize=None)(
                lambda name, F: built.append(plan(name, F)) or built[-1]))
            engine._proper_sub_multisets.cache_clear()
            for a in range(0, 5):
                for b in range(-5, 6):
                    for name, lo, min_a in PROPERTIES:
                        if a >= min_a:
                            _classify(name, E, Divisor(a, b), lo).firings
                            trails += 1
            admitted = [rule_id for _, _, _, rows in built for rule_id, _ in rows
                        if rules.RULES_BY_ID[rule_id].special is None]
            assert sorted(compiled) == sorted(set(admitted)), str(E)
        assert trails == 275 * 11 * (5 + 5 + 4 + 4)

    def test_quotient_screen_stops_at_the_first_witness(self, monkeypatch):
        # 12 distinct lines: the first screened sub-sum, the lowest line
        # 1:0, has b + a*deg = 2 < 3, decided off the plan's line degree;
        # with a rank-2 atom too, the screen decides no row on it at b = 2,
        # and screens it once at b = 3, where the line passes
        screened = self._count(monkeypatch, engine, "_rejecter")
        lines = ",".join(f"1:{d}" for d in range(12))
        for text, b, rows in ((lines, 2, 0), (lines + ",2:1", 2, 0), (lines + ",2:1", 3, 1)):
            screened.clear()
            v = classify_very_ample(parse_bundle(text), Divisor(2, b))
            assert (v.is_no and v.binding_rule == "R-QUOT-NEC") is (b == 2), (text, b)
            assert len(screened) == rows, (text, b)


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


def _quotient_decision(E, D):
    """R-QUOT-NEC's decision as a cell makes it, by the plan's decider in
    the cell's frame, where E's plan admits the row, and otherwise the
    row's own decision in frame 0, where its trail writes it."""
    decide = dict(engine._twisted("very_ample", E)[3]).get(_QUOT.rule_id)
    if decide is None:
        return rules.decider(_QUOT.rule_id)(*_frame_cell(E, D.a, D.b, 0))
    return decide(*_frame_cell(E, D.a, D.b))


def _outcome(decision):
    return Outcome.INAPPLICABLE if decision is None else decision[1]


class TestQuotientScreen:
    """The screen visits O(atoms) sub-sums; these gates check the proof in
    engine.py that no other sub-sum can carry a negative witness."""

    def test_an_atoms_screen_is_its_own_very_ample_no(self):
        # the screen of a non-line atom reads the atom's very-ample plan:
        # it has a witness exactly where the atom's own verdict is No, and
        # the witness is a row that can say No, never a sufficient one
        cells = witnesses = 0
        for r in range(2, 9):
            for d in range(-10, 11):
                A = Bundle(((r, d),))
                for a in range(1, 7):
                    for b in range(-9, 9):
                        D = Divisor(a, b)
                        witness = engine._negative_witness(A, D)
                        assert (witness is not None) is classify_very_ample(A, D).is_no, (
                            str(A), a, b)
                        if witness is not None:
                            assert rules.RULES_BY_ID[witness[0]].strength is not (
                                Strength.SUFFICIENT), (str(A), a, b, witness[0])
                            witnesses += 1
                        cells += 1
        assert (cells, witnesses) == (15_876, 9_074)

    def test_decision_is_the_evaluation_in_frame_0(self):
        # the cell decides R-QUOT-NEC in its own frame, by the screen on
        # the plan: field by field it is the row's decision in frame 0, a
        # pass turned into No exactly where a screened sub-sum has a
        # negative witness, and its strength and outcome are the firing's
        cells = noes = 0
        decide = rules.decider(_QUOT.rule_id)
        for E in small_bundles(4, 2):
            for a in range(0, 6):
                for b in range(-9, 9):
                    D = Divisor(a, b)
                    cell = _frame_cell(E, a, b, 0)
                    expected = decide(*cell)
                    evaluated = _QUOT.evaluate(0, expected, cell)
                    witness = any(engine._negative_witness(Q, D) is not None
                                  for Q in engine._proper_sub_multisets(E))
                    if evaluated.outcome is Outcome.PASS and witness:
                        expected = (expected[0], Outcome.NO, expected[2])
                        evaluated = evaluated._replace(outcome=Outcome.NO)
                        noes += 1
                    decided = _quotient_decision(E, D)
                    assert decided == expected, (str(E), a, b)
                    assert (evaluated.strength, _outcome(decided)) == (
                        None if decided is None else decided[0], evaluated.outcome), (
                        str(E), a, b)
                    cells += 1
        assert (cells, noes) == (275 * 108, 18_477)

    def test_decision_matches_the_full_enumeration(self):
        sweep = small_bundles(4, 2) + WIDE_SUMS + _LINE_SUMS + _LINES_PLUS_RANK2
        rejects = {}  # (Q, a, b) -> does Q carry a witness; sub-sums repeat

        def oracle(E, subs, D):
            if rules.decider(_QUOT.rule_id)(*_frame_cell(E, D.a, D.b, 0)) is None:
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
                    assert _outcome(_quotient_decision(E, D)) is oracle(E, subs, D), (
                        str(E), a, b)
                    cells += 1
        assert cells == (281 + 666 + 231 * 7) * 108

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(bundles(min_rank=2, max_rank=8), st.integers(0, 6), st.integers(-8, 8))
    @example(parse_bundle("1:2,2:3"), 2, -1)  # rank3_exception: no No at s = 2
    @example(parse_bundle("1:1,2:3"), 2, 0)  # R-RK3-DEC's No on the line
    def test_a_no_on_a_sum_shows_on_one_atom(self, Q, a, b):
        # every decomposable Q of rank 2..8, not only rank >= 4: a No from
        # a very-ample row but R-QUOT-NEC shows on one atom, the one-atom
        # screen's assumption
        if Q.is_indecomposable:
            return
        D = Divisor(a, b)
        cell = _frame_cell(Q, a, b)
        saying_no = {
            rule.rule_id
            for rule in VERY_AMPLE_RULES
            if rule is not _QUOT and _outcome(rules.decider(rule.rule_id)(*cell)) is Outcome.NO
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
        E = parse_bundle("2:1")
        with pytest.raises(ContradictionError):
            _merge("very_ample", E, Divisor(2, 1), (Fraction(0), True), lambda: firings,
                   _rows(firings), *_cell(2, 1, Fraction(2), E))

    def test_contradiction_on_decisions_quotes_the_trail(self):
        firings = (
            self._firing("R-SYNTH-A", Strength.SUFFICIENT, Outcome.YES),
            self._firing("R-SYNTH-B", Strength.NECESSARY, Outcome.NO),
        )
        E, D = parse_bundle("2:1"), Divisor(2, 1)
        # as the deciders return them: no note, so the text is the trail's,
        # whichever order the decisions come in
        rows = _rows(firings)
        with pytest.raises(ContradictionError) as decided:
            _merge("very_ample", E, D, (Fraction(0), True), lambda: firings,
                   rows, *_cell(2, 1, Fraction(2), E))
        with pytest.raises(ContradictionError) as reversed_:
            _merge("very_ample", E, D, (Fraction(0), True), lambda: firings,
                   rows[::-1], *_cell(2, 1, Fraction(2), E))
        assert str(decided.value) == str(reversed_.value) == (
            "rule table contradiction for very_ample on P(2:1) with D = 2T+1f: "
            "R-SYNTH-A concludes yes (synthetic) but R-SYNTH-B concludes no (synthetic)")
        assert "R-SYNTH-A concludes yes (synthetic)" in str(decided.value)

    def test_iff_outranks_sufficient_for_binding(self):
        firings = (
            self._firing("R-SYNTH-Z", Strength.IFF, Outcome.YES),
            self._firing("R-SYNTH-A", Strength.SUFFICIENT, Outcome.YES),
        )
        E = parse_bundle("2:1")
        v = _merge("very_ample", E, Divisor(2, 1), (Fraction(0), True), lambda: firings,
                   _rows(firings), *_cell(2, 1, Fraction(2), E))
        assert v.binding_rule == "R-SYNTH-Z" and v.slope_invariant == Fraction(2)
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

    def test_very_ample_plus_globally_generated_is_never_no(self):
        # a very ample D plus a globally generated G is very ample, so no
        # VeryAmple cell may sit with a NotVeryAmple one at D + G: G is a
        # Yes of the GG catalog at a' in {1, 2}, or (0, k) for k in {2, 3},
        # a pullback from the curve
        grid_a, grid_b = range(1, 7), range(-9, 10)
        implications = 0
        for E in small_bundles(4, 2):
            status = functools.cache(lambda a, b: classify_very_ample(E, Divisor(a, b)).outcome)
            gg = [(a2, b2) for a2 in (1, 2) for b2 in grid_b
                  if classify_globally_generated(E, Divisor(a2, b2)).is_yes]
            gg += [(0, 2), (0, 3)]
            for a in grid_a:
                for b in grid_b:
                    if status(a, b) is not Status.YES:
                        continue
                    for a2, b2 in gg:
                        assert status(a + a2, b + b2) is not Status.NO, (
                            str(E), (a, b), (a2, b2))
                    implications += len(gg)
        assert implications == 129_451
