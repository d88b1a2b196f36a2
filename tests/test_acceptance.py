"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Every expected number here is either a published council value or was frozen
from an independent brute-force enumeration; all comparisons are exact
(integers and rationals), and the stated runtime budgets are enforced.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion lines.
"""

import functools
import random
import time
from fractions import Fraction
from math import comb

from banzhaf import (
    TruthTable,
    VotingSystem,
    analyze,
    make_disjoint,
    parse_sop,
    sop_to_tt,
    sop_weight_disjoint,
    sop_weight_ie,
    tbp_all,
    tbp_oracle_dp,
    tbp_oracle_mitm,
    tt_to_minterm_sop,
)
from banzhaf.truthtable import _zero_masks
from reference import count_table, enum_tbp, lift, scaled

EEC = VotingSystem(12, (4, 4, 4, 2, 2, 1), ("F", "G", "I", "B", "N", "L"))
EEEC = VotingSystem(
    41, (10, 10, 10, 10, 5, 5, 3, 3, 2), ("F", "G", "I", "R", "B", "N", "D", "E", "L")
)


def criterion(num, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"criterion {num:2d} ({label}): FAIL")
                raise
            print(f"criterion {num:2d} ({label}): PASS")

        return run

    return wrap


def _clear_caches():
    # make timed runs compute everything from scratch
    _zero_masks.clear()


@criterion(1, "six-member council reproduction, < 10 ms")
def test_criterion_01_six_member_council():
    analyze(VotingSystem(2, (1, 1)))  # warm the code paths, not the answers
    _clear_caches()
    start = time.perf_counter()
    report = analyze(EEC)
    elapsed = time.perf_counter() - start
    assert report.tbp == (5, 5, 5, 3, 3, 0)
    assert report.ntbp == (
        Fraction(5, 21), Fraction(5, 21), Fraction(5, 21),
        Fraction(3, 21), Fraction(3, 21), Fraction(0),
    )
    assert report.dummies == frozenset({6})  # L
    assert report.classes == ((1, 2, 3), (4, 5), (6,))
    assert elapsed < 0.010, f"analysis took {elapsed * 1000:.2f} ms"


@criterion(2, "nine-member council reproduction, < 100 ms")
def test_criterion_02_nine_member_council():
    _clear_caches()
    start = time.perf_counter()
    report = analyze(EEEC)
    elapsed = time.perf_counter() - start
    assert report.tbp == (53, 53, 53, 53, 29, 29, 21, 21, 5)
    assert report.ntbp == tuple(Fraction(v, 317) for v in report.tbp)
    assert {f.denominator for f in report.ntbp} == {317}
    assert report.dummies == frozenset()
    assert elapsed < 0.100, f"analysis took {elapsed * 1000:.2f} ms"


@criterion(3, "2-out-of-3 worked example: weights 4, per-voter power 2")
def test_criterion_03_two_of_three_example():
    names = ["X1", "X2", "X3"]
    expr = parse_sop("X1 X2 | X2 X3 | X1 X3", names)
    table = sop_to_tt(expr)
    # the three weight methods: disjoint cover, inclusion-exclusion, binomials
    # over the characteristic set {2, 3}
    assert sop_weight_disjoint(make_disjoint(expr)) == 4
    assert sop_weight_ie(expr) == 4
    assert table == count_table(3, (1, 2, 3), {2, 3})
    assert table.weight() == comb(3, 2) + comb(3, 3) == 4
    # per-voter total power: the derivative has characteristic set {1} of two
    # inputs, so weight C(2, 1), as the table's Boolean differences give
    assert tbp_all(table) == (comb(2, 1),) * 3 == (2, 2, 2)
    system = VotingSystem(2, (1, 1, 1))
    assert tbp_oracle_mitm(system) == (2, 2, 2) == tbp_oracle_dp(system)


@criterion(4, "four-variable xor-of-products fixture has weight 7 both ways")
def test_criterion_04_xor_fixture():
    names = ["N", "D", "E", "L"]
    terms = ["N L", "N E L'", "N D E' L'", "N D E", "D E N'"]
    bits = 0
    for term in terms:
        bits ^= sop_to_tt(parse_sop(term, names)).bits
    table = TruthTable(4, bits)
    assert table.weight() == 7
    # disjoint-sum route: a certified disjoint cover whose cube weights add
    cover = tt_to_minterm_sop(table)
    assert cover.disjoint and cover.verify_disjoint()
    assert sop_weight_disjoint(cover) == 7
    # expansion route: cofactor weights about (D, E) add up the same way
    pieces = [
        table.restrict(2, d).restrict(2, e).weight() for d in (0, 1) for e in (0, 1)
    ]
    assert sorted(pieces) == [1, 2, 2, 2] and sum(pieces) == 7


@criterion(5, "derivative = mitm = subset-sum = enumeration on 1000 systems, < 30 s")
def test_criterion_05_oracle_triangle():
    rng = random.Random(20260808)
    _clear_caches()
    start = time.perf_counter()
    for _ in range(1000):
        n = rng.randint(1, 12)
        weights = tuple(rng.randint(0, 20) for _ in range(n))
        quota = rng.randint(1, sum(weights) + 2)
        system = VotingSystem(quota, weights)
        derivative = tbp_all(system.to_table())
        assert derivative == tbp_oracle_mitm(system) == tbp_oracle_dp(system) == enum_tbp(system)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"suite took {elapsed:.1f} s"


@criterion(6, "k-out-of-n closed form and 1/n normalization, n <= 10")
def test_criterion_06_symmetric_closed_form():
    for n in range(1, 11):
        for k in range(1, n + 1):
            per_voter = comb(n - 1, k - 1)
            table = count_table(n, range(1, n + 1), range(k, n + 1))
            assert tbp_all(table) == (per_voter,) * n
            report = analyze(VotingSystem(k, (1,) * n))
            assert report.tbp == (per_voter,) * n
            assert report.ntbp == (Fraction(1, n),) * n


@criterion(7, "derivative calculus laws on 500 random functions")
def test_criterion_07_derivative_calculus():
    rng = random.Random(7001)
    for _ in range(500):
        n = rng.randint(1, 8)
        i = rng.randint(1, n)
        full, half = (1 << (1 << n)) - 1, (1 << (1 << (n - 1))) - 1
        f = TruthTable(n, rng.getrandbits(1 << n))
        g = TruthTable(n, rng.getrandbits(1 << n))
        df, dg = f.boolean_difference(i).bits, g.boolean_difference(i).bits
        # differencing commutes with xor
        assert TruthTable(n, f.bits ^ g.bits).boolean_difference(i).bits == df ^ dg
        # polarity of the function is irrelevant
        assert TruthTable(n, f.bits ^ full).boolean_difference(i).bits == df
        # a factor independent of the variable is recovered exactly
        a = TruthTable(n - 1, rng.getrandbits(1 << (n - 1)))
        product = TruthTable(n, lift(a, i).bits & count_table(n, (i,), {1}).bits)
        assert product.boolean_difference(i) == a
        # constants have zero difference
        constant = TruthTable(n, rng.choice((0, full)))
        assert constant.boolean_difference(i) == TruthTable(n - 1, 0)
        # disjunction rule, complements taken as the X_i = 0 cofactors
        # (the identity holds with either cofactor; both are asserted)
        d_or = TruthTable(n, f.bits | g.bits).boolean_difference(i).bits
        for v in (0, 1):
            nf, ng = f.restrict(i, v).bits ^ half, g.restrict(i, v).bits ^ half
            assert d_or == (nf & dg) ^ (df & ng) ^ (df & dg)


@criterion(8, "weight rules (product/sum/complement) on 500 random instances")
def test_criterion_08_weight_rules():
    rng = random.Random(8001)
    for _ in range(500):
        n = rng.randint(2, 10)
        # product rule on disjoint variable sets
        k = rng.randint(1, n - 1)
        f1 = TruthTable(k, rng.getrandbits(1 << k))
        f2 = TruthTable(n - k, rng.getrandbits(1 << (n - k)))
        lifted1, lifted2 = f1, f2
        for _ in range(n - k):
            lifted1 = lift(lifted1, lifted1.n + 1)
        for _ in range(k):
            lifted2 = lift(lifted2, 1)
        assert TruthTable(n, lifted1.bits & lifted2.bits).weight() == f1.weight() * f2.weight()
        # sum rule on disjoint functions
        full = (1 << (1 << n)) - 1
        g1 = TruthTable(n, rng.getrandbits(1 << n))
        g2 = TruthTable(n, rng.getrandbits(1 << n) & (g1.bits ^ full))
        assert TruthTable(n, g1.bits | g2.bits).weight() == g1.weight() + g2.weight()
        # complement rule
        assert TruthTable(n, g1.bits ^ full).weight() == (1 << n) - g1.weight()


@criterion(9, "SOP pipeline: disjointing and all weight routes on 500 SOPs")
def test_criterion_09_sop_pipeline():
    from test_sop import random_sop

    rng = random.Random(9001)
    for _ in range(500):
        expr = random_sop(rng)
        flattened = make_disjoint(expr)
        assert flattened.disjoint and flattened.verify_disjoint()
        assert sop_to_tt(flattened) == sop_to_tt(expr)
        reference = sop_to_tt(expr).weight()
        assert sop_weight_ie(expr) == reference
        assert sop_weight_disjoint(flattened) == reference


@criterion(10, "scaled systems produce byte-identical reports")
def test_criterion_10_scale_invariance():
    for system, factor in ((EEC, 3), (EEEC, 2)):
        base = analyze(system)
        other = analyze(scaled(system, factor))
        assert base == other
        assert repr(base).encode() == repr(other).encode()
