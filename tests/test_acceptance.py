"""Acceptance gate: eight end-to-end criteria, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the ACCEPTANCE lines;
without -s they still appear in pytest's captured output on failure.  All
comparisons are exact (int / Fraction); the only tolerances anywhere are the
two wall-clock budgets stated inline (1s for the single-divisor CLI path,
60s for the consistency sweep).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import random
import time
from fractions import Fraction

from veryample import (
    Bundle,
    Divisor,
    NumClass,
    Outcome,
    Strength,
    classify_ample,
    classify_very_ample,
    divisor_class,
    divisor_degree,
    parse_bundle,
    pushforward_mu_minus,
    sym_degree,
    sym_power_split,
    sym_rank,
    tensor_f_orders,
)
from veryample.cli import main as cli_main

from conftest import small_bundles


def criterion(n: int, summary: str):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {n}: FAIL - {summary}")
                raise
            print(f"\nACCEPTANCE {n}: PASS - {summary}")
        return run
    return wrap


def sample_bundles(rng: random.Random, count: int, max_rank: int = 6,
                   max_abs_degree: int = 8) -> list[Bundle]:
    out = []
    for _ in range(count):
        remaining = rng.randint(2, max_rank)
        parts = []
        while remaining:
            part = rng.randint(1, remaining)
            parts.append(part)
            remaining -= part
        out.append(Bundle(tuple(
            (part, rng.randint(-max_abs_degree, max_abs_degree))
            for part in parts
        )))
    return out


@criterion(1, "single-divisor CLI reports degree 20, h^0 10, P^9, VeryAmple")
def test_criterion_1_headline_threefold(capsys):
    start = time.perf_counter()
    code = cli_main(["invariants", "--bundle", "3:4", "--a", "2", "--b", "-1"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert "divisor degree: 20" in out
    assert "h^0: 10" in out
    assert "ambient dimension: 9" in out
    assert "very ample: VeryAmple" in out
    assert elapsed < 1.0


@criterion(2, "odd rank-2 region matches b + a/2 > 1 exactly")
def test_criterion_2_rank2_region():
    E = parse_bundle("2:1")
    for a in range(2, 7):
        for b in range(-3, 4):
            v = classify_very_ample(E, Divisor(a, b))
            expected = "VeryAmple" if b + Fraction(a, 2) > 1 else "NotVeryAmple"
            assert v.status == expected, (a, b)
            assert v.strength is Strength.IFF, (a, b)


@criterion(3, "degree-0 semistable bundles need exactly b >= 3")
def test_criterion_3_degree_zero_threshold():
    for r in range(2, 6):
        E = Bundle(((r, 0),))
        for a in range(1, 6):
            for b in range(-2, 7):
                v = classify_very_ample(E, Divisor(a, b))
                assert v.status == ("VeryAmple" if b >= 3 else "NotVeryAmple"), \
                    (r, a, b)
                assert not v.is_unknown


@criterion(4, "indecomposable rank-3 verdicts form the exact trichotomy")
def test_criterion_4_rank3_catalog():
    strips = {0: None, 1: Fraction(1), 2: Fraction(4, 3)}
    for d in (0, 1, 2):
        E = Bundle(((3, d),))
        hi = strips[d]
        for a in range(2, 7):
            for b in range(-8, 9):
                v = classify_very_ample(E, Divisor(a, b))
                s = pushforward_mu_minus(E, a, b)
                if d == 0:
                    assert v.is_yes == (s >= 3)
                    assert not v.is_unknown
                elif s <= 0:
                    assert v.is_no
                elif s <= hi:
                    # inside the open strip: never a negative verdict
                    assert v.is_unknown
                    assert v.unknown_window.hi == hi
                    assert v.unknown_window.render() == f"(0, {hi}]"
                else:
                    assert v.is_yes


@criterion(5, "rank-3 exception family: Yes / open window / necessary failure")
def test_criterion_5_exception_family():
    E = parse_bundle("1:2,2:3")

    yes = classify_very_ample(E, Divisor(2, 0))
    assert yes.status == "VeryAmple"
    assert yes.strength is Strength.SUFFICIENT

    open_case = classify_very_ample(E, Divisor(2, -1))
    assert open_case.status == "Unknown"
    assert open_case.unknown_window.render() == "(0, 2]"
    quot = [f for f in open_case.firings if f.rule_id == "R-QUOT-NEC"]
    assert len(quot) == 2
    assert all(f.outcome is Outcome.PASS for f in quot)

    no = classify_very_ample(E, Divisor(2, -2))
    assert no.status == "NotVeryAmple"
    assert no.strength is Strength.NECESSARY
    assert no.binding_rule == "R-QUOT-NEC"
    rejected = [f for f in no.firings
                if f.rule_id == "R-QUOT-NEC" and f.outcome is Outcome.NO]
    assert rejected and rejected[0].lhs == 2 and rejected[0].threshold == 3


SWEEP_DIGEST = "fbb898da1cf9bb83fce5bb3bfd13f93ec20212c5987e5ba0e8dc1bead7c295c8"


@criterion(6, "consistency sweep: no contradictions, twist-invariant, inside Miyaoka")
def test_criterion_6_consistency_sweep():
    start = time.perf_counter()
    box = [(a, b) for a in range(0, 7) for b in range(-8, 9)]
    twists = [-3, -2, -1, 1, 2, 3]

    def check(E: Bundle, a: int, b: int):
        v = classify_very_ample(E, Divisor(a, b))  # raising = contradiction
        assert v.status in ("VeryAmple", "NotVeryAmple", "Unknown")
        if v.is_yes:
            assert classify_ample(E, Divisor(a, b))
            assert pushforward_mu_minus(E, a, b) > 0
        if v.is_unknown:
            assert a >= 2
            assert 0 < v.slope_invariant <= 2
        return v

    # exhaustive slice: every bundle of rank 2..3 with atom degrees in [-3, 3];
    # the digest of its verdicts (status, strength, binding rule, window) is
    # pinned, so a refactor that moves any verdict of this slice fails here
    digest = hashlib.sha256()
    for E in small_bundles(3, 3):
        for a, b in box:
            v = check(E, a, b)
            strength = v.strength.value if v.strength else ""
            window = v.unknown_window.render() if v.unknown_window else ""
            digest.update(
                f"{E}|{a}|{b}|{v.status}|{strength}|{v.binding_rule or ''}|"
                f"{window}\n".encode()
            )
    assert digest.hexdigest() == SWEEP_DIGEST

    # curated higher-rank shapes, same divisor box
    spots = [parse_bundle(t) for t in (
        "4:0", "4:1", "4:2", "4:3", "5:1", "5:2", "5:4", "6:2", "6:5",
        "1:1,3:2", "2:1,2:1", "1:0,5:3", "3:2,3:4", "1:2,1:1,2:3",
    )]
    for E in spots:
        for a, b in box:
            check(E, a, b)

    # seeded sample of the full stated domain, with twist invariance
    rng = random.Random(20260816)
    for E in sample_bundles(rng, 400):
        a = rng.randint(0, 6)
        b = rng.randint(-8, 8)
        check(E, a, b)
        v = classify_very_ample(E, Divisor(a, b))
        for l in twists:
            w = classify_very_ample(E.twist(l), Divisor(a, b - a * l))
            assert (w.status, w.strength, w.binding_rule) == \
                (v.status, v.strength, v.binding_rule), (str(E), a, b, l)

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0


@criterion(7, "independent oracles agree: split principle, expansion, tensor orders")
def test_criterion_7_oracle_equivalences():
    # split principle: enumerated symmetric powers match the rank/degree
    # formulas for every degree multiset with n <= 4, |d_i| <= 4, a <= 5
    for n in range(1, 5):
        for degs in itertools.combinations_with_replacement(range(-4, 5), n):
            for a in range(0, 6):
                split = sym_power_split(degs, a)
                assert split.rank == sym_rank(n, a)
                assert split.degree == sym_degree(n, sum(degs), a)

    # top self-intersection: closed form vs r-fold product in the ring
    for r in range(1, 7):
        for d in range(-6, 7):
            E = Bundle(((r, d),))
            for a in range(-5, 6):
                for b in range(-5, 6):
                    D = divisor_class(E, a, b)
                    power = NumClass.one(r, d)
                    for _ in range(r):
                        power = power * D
                    assert power.point_coefficient == divisor_degree(E, a, b)

    # tensor decomposition bookkeeping for all orders up to 12
    for r in range(1, 13):
        for s in range(1, 13):
            orders = tensor_f_orders(r, s)
            assert sum(orders) == r * s
            assert len(orders) == min(r, s)
            assert orders == tensor_f_orders(s, r)


@criterion(8, "hyperplane coefficient one is always decided")
def test_criterion_8_a1_complete():
    for E in small_bundles(3, 3):
        for b in range(-8, 9):
            v = classify_very_ample(E, Divisor(1, b))
            assert not v.is_unknown
            assert v.strength is not None

    rng = random.Random(8)
    for E in sample_bundles(rng, 500):
        v = classify_very_ample(E, Divisor(1, rng.randint(-8, 8)))
        assert not v.is_unknown
