"""Threshold realization, structural findings, and the two EC fixtures.

The EEC (12; 4,4,4,2,2,1) and EEEC (41; 10,10,10,10,5,5,3,3,2) councils are
exercised heavily because they have published minimal forms and symmetric
decompositions that pin down every operation here.
"""

import gc
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banzhaf import (
    TruthTable,
    VotingSystem,
    analyze,
    parse_sop,
    sop_to_tt,
)
from reference import count_table, scaled

EEC = VotingSystem(12, (4, 4, 4, 2, 2, 1), ("F", "G", "I", "B", "N", "L"))
EEC_NAMES = list(EEC.voter_names)
EEEC = VotingSystem(
    41, (10, 10, 10, 10, 5, 5, 3, 3, 2), ("F", "G", "I", "R", "B", "N", "D", "E", "L")
)
EEEC_NAMES = list(EEEC.voter_names)


def test_system_validation():
    with pytest.raises(ValueError):
        VotingSystem(0, (1, 2))
    with pytest.raises(ValueError):
        VotingSystem(2, ())
    with pytest.raises(ValueError):
        VotingSystem(2, (1, -1))
    with pytest.raises(ValueError):
        VotingSystem(2, (1, 1), ("A",))
    with pytest.raises(ValueError):
        VotingSystem(2, (1, 1), ("A", "A"))
    for names in [(1, 2), ("A", ""), ("A", None)]:
        with pytest.raises(ValueError, match="non-empty strings"):
            VotingSystem(2, (1, 1), names)
    for names in ["abc", "A"]:  # a string is not split into one-letter names
        with pytest.raises(ValueError, match="sequence of strings"):
            VotingSystem(2, (1,) * len(names), names)


def test_bool_is_not_a_quota_or_weight():
    with pytest.raises(ValueError, match="quota"):
        VotingSystem(True, (True, 1))
    with pytest.raises(ValueError, match="weights"):
        VotingSystem(2, (True, 1))
    with pytest.raises(ValueError, match="weights"):
        VotingSystem(1, (1, False))


def test_default_names():
    assert VotingSystem(2, (1, 1, 1)).voter_names == ("X1", "X2", "X3")
    assert EEC.voter_names == ("F", "G", "I", "B", "N", "L")


def test_threshold_table_matches_direct_evaluation():
    rng = random.Random(4001)
    for _ in range(100):
        n = rng.randint(1, 9)
        weights = tuple(rng.randint(0, 12) for _ in range(n))
        quota = rng.randint(1, sum(weights) + 2)
        table = VotingSystem(quota, weights).to_table()
        for j in range(1 << n):
            total = sum(weights[i] for i in range(n) if (j >> (n - 1 - i)) & 1)
            assert table.row(j) == (1 if total >= quota else 0)


@st.composite
def systems(draw):
    weights = tuple(draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=10)))
    return VotingSystem(draw(st.integers(1, sum(weights) + 2)), weights)


@settings(max_examples=300, deadline=None)
@given(systems())
def test_threshold_table_matches_direct_evaluation_with_large_weights(system):
    # large weights make most partial sums distinct, so few needs are shared
    n, weights, quota = system.n, system.weights, system.quota
    table = system.to_table()
    for j in range(1 << n):
        total = sum(weights[i] for i in range(n) if (j >> (n - 1 - i)) & 1)
        assert table.row(j) == (1 if total >= quota else 0)


def test_to_table_keeps_nothing_alive():
    rng = random.Random(4004)
    gc.collect()
    tracemalloc.start()
    try:
        weights = tuple(rng.sample(range(1, 1001), 20))
        table = VotingSystem(sum(weights) // 2 + 1, weights).to_table()
        del table
        left = tracemalloc.get_traced_memory()[0]
        weights = tuple(rng.sample(range(1, 1001), 24))
        tracemalloc.reset_peak()
        table = VotingSystem(sum(weights) // 2 + 1, weights).to_table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert left < 64 * 1024
    # the table itself is 2 MiB; one level of partial tables at a time
    assert peak < 16 * 1024 * 1024


def test_to_table_of_24_distinct_weights_near_10_to_the_12():
    rng = random.Random(4005)
    weights = tuple(10**12 + rng.randrange(10**9) for _ in range(24))
    system = VotingSystem(sum(weights) // 2 + 1, weights)
    gc.collect()
    tracemalloc.start()
    try:
        table = system.to_table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 1024 * 1024
    for j in rng.sample(range(1 << 24), 2000):
        total = sum(weights[i] for i in range(24) if (j >> (23 - i)) & 1)
        assert table.row(j) == (1 if total >= system.quota else 0)


def frame_depth():
    depth, frame = 0, sys._getframe(1)
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_diagram_recursion_is_one_frame_per_level():
    rng = random.Random(4006)
    weights = tuple(rng.sample(range(1, 1001), 24))
    system = VotingSystem(sum(weights) // 2 + 1, weights)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(frame_depth() + 40)  # room for 25 levels, not for 2 per level
    try:
        diagram = system.diagram()
    finally:
        sys.setrecursionlimit(limit)
    assert diagram.n == 24 and len(diagram.no[0]) == 1
    assert all(len(level) <= min(2**i, 2 ** (24 - i) + 1) for i, level in enumerate(diagram.no))


def test_unanimity_and_single_vote_rules():
    x1, x2, x3 = (count_table(3, (i,), {1}).bits for i in (1, 2, 3))
    assert VotingSystem(1, (1, 1, 1)).to_table() == TruthTable(3, x1 | x2 | x3)
    assert VotingSystem(3, (1, 1, 1)).to_table() == TruthTable(3, x1 & x2 & x3)


def test_k_out_of_n_is_symmetric_tail_set():
    for n in range(1, 9):
        for k in range(1, n + 1):
            system = VotingSystem(k, (1,) * n)
            assert system.to_table() == count_table(n, range(1, n + 1), range(k, n + 1))


def test_quota_above_total_weight_is_constant_zero():
    table = VotingSystem(7, (1, 1, 1)).to_table()
    assert table == TruthTable(3, 0)


def test_eec_table_equals_published_minimal_sum():
    sop = parse_sop("F G I | F G B N | F I B N | G I B N", EEC_NAMES)
    assert sop_to_tt(sop) == EEC.to_table()


def test_eec_symmetric_composite_forms():
    # exactly-3 of (F,G,I), or at-least-2 of them together with B and N
    table = EEC.to_table().bits
    fgi3 = count_table(6, (1, 2, 3), {3}).bits
    fgi23 = count_table(6, (1, 2, 3), {2, 3}).bits
    fgi2 = count_table(6, (1, 2, 3), {2}).bits
    bn = sop_to_tt(parse_sop("B N", EEC_NAMES)).bits
    assert fgi3 | (fgi23 & bn) == table
    # disjointed variant: the second term absorbs the complement of the first
    assert fgi3 | (fgi2 & bn) == table
    assert fgi3 & fgi2 & bn == 0
    assert fgi3 ^ (fgi2 & bn) == table


def test_eeec_table_equals_published_minimal_sum():
    small, big, blocks, all_big = (
        sop_to_tt(parse_sop(text, EEEC_NAMES)).bits
        for text in (
            "B N L | B N E | B N D | N E D | B E D",
            "F G I | F G R | F I R | G I R",
            "B | N | D | E | L",
            "F G I R",
        )
    )
    assert TruthTable(9, (small & big) | (blocks & all_big)) == EEEC.to_table()


def test_eeec_disjoint_composite_form():
    # small-country factor disjointed term by term, times exactly-3 of the big
    # four, plus the all-big-four term guarded against no small support at all
    factor = parse_sop(
        "B N L | B N E L' | B N D E' L' | B' N D E | B D E N'", EEEC_NAMES
    )
    assert factor.disjoint
    big3 = count_table(9, (1, 2, 3, 4), {3}).bits
    big4 = count_table(9, (1, 2, 3, 4), {4}).bits
    none_small = sop_to_tt(parse_sop("B' N' D' E' L'", EEEC_NAMES)).bits
    some_small = none_small ^ ((1 << (1 << 9)) - 1)
    composite = (sop_to_tt(factor).bits & big3) ^ (some_small & big4)
    assert TruthTable(9, composite) == EEEC.to_table()


def test_dummies_eec_eeec():
    assert analyze(EEC, verify=False).dummies == frozenset({6})
    assert analyze(EEEC, verify=False).dummies == frozenset()


def test_dummies_equal_weight_majority():
    assert analyze(VotingSystem(5, (3, 3, 3)), verify=False).dummies == frozenset()
    table = VotingSystem(5, (3, 3, 3)).to_table()
    assert all(not table.is_vacuous_in(i) for i in (1, 2, 3))


def test_zero_weight_voter_is_dummy_but_not_conversely():
    assert 3 in analyze(VotingSystem(1, (1, 1, 0)), verify=False).dummies
    # the weight-1 voter here is a dummy despite a positive weight
    assert analyze(EEC, verify=False).dummies == frozenset({6})
    assert EEC.weights[5] == 1


def test_symmetry_classes_eec_eeec():
    assert analyze(EEC, verify=False).classes == ((1, 2, 3), (4, 5), (6,))
    assert analyze(EEEC, verify=False).classes == ((1, 2, 3, 4), (5, 6), (7, 8), (9,))


def test_symmetry_classes_functional_partition():
    # frozen from an exhaustive 16-row transposition check
    assert analyze(VotingSystem(4, (3, 2, 2, 1)), verify=False).classes == ((1,), (2, 3), (4,))


def test_symmetry_classes_catch_unequal_weights():
    # weights 5 and 4 differ, yet the voters are interchangeable
    assert analyze(VotingSystem(10, (6, 5, 4)), verify=False).classes == ((1,), (2, 3))


def test_symmetry_classes_agree_with_pairwise_transpositions():
    rng = random.Random(4002)
    for _ in range(60):
        n = rng.randint(1, 7)
        weights = tuple(rng.randint(0, 6) for _ in range(n))
        system = VotingSystem(rng.randint(1, sum(weights) + 2), weights)
        table = system.to_table()
        classes = analyze(system, verify=False).classes
        lookup = {i: group for group in classes for i in group}
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert (lookup[i] is lookup[j]) == table.is_symmetric_in(i, j)


def check_scale_invariance(system: VotingSystem, c: int) -> bool:
    """The table is unchanged when quota and weights scale by c."""
    return system.to_table() == scaled(system, c).to_table()


def test_scale_invariance():
    assert check_scale_invariance(EEC, 3)
    assert check_scale_invariance(VotingSystem(2, (1, 1)), 5)
    assert check_scale_invariance(EEEC, 2)
    rng = random.Random(4003)
    for _ in range(50):
        n = rng.randint(1, 8)
        weights = tuple(rng.randint(0, 9) for _ in range(n))
        system = VotingSystem(rng.randint(1, sum(weights) + 2), weights)
        assert check_scale_invariance(system, rng.randint(1, 7))


def test_dense_table_arity_cap():
    with pytest.raises(ValueError, match="exceeds"):
        VotingSystem(5, (1,) * 25).to_table()
