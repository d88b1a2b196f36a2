"""Power engine: derivative path, the two oracles, normalization, analyze().

`ref_swings` (direct row walking plus explicit dummy reduction) and
`reference.enum_swing_counts` (all 2**n vote configurations, raw counts) are
test-local implementations of swing counting, so the package's routes are
checked against something none of them share code with.
"""

import random
import time
import tracemalloc
from bisect import bisect_left
from fractions import Fraction
from math import comb, gcd
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from banzhaf import (
    NoDecisiveVoterError,
    OracleDisagreementError,
    PowerReport,
    TruthTable,
    VotingSystem,
    analyze,
    normalize,
    tbp_all,
    tbp_oracle_dp,
    tbp_oracle_mitm,
)
import banzhaf.power as power_module
from banzhaf.power import (
    DP_BLOCK,
    MAX_DP_BYTES,
    MAX_DP_WORK,
    MAX_MITM_VOTERS,
    _dd_swing_counts,
    _dp_swing_counts,
    _mitm_swing_counts,
)
from banzhaf.truthtable import N_MAX
from banzhaf.voting import Diagram
from reference import count_table, enum_swing_counts, enum_tbp, scaled

EEC = VotingSystem(12, (4, 4, 4, 2, 2, 1), ("F", "G", "I", "B", "N", "L"))
EEEC = VotingSystem(
    41, (10, 10, 10, 10, 5, 5, 3, 3, 2), ("F", "G", "I", "R", "B", "N", "D", "E", "L")
)


def ref_swings(system):
    """Swing counts by naive row walking, reduced to the essential subsystem."""
    n, weights, quota = system.n, system.weights, system.quota
    raw = [0] * n
    for j in range(1 << n):
        votes = [(j >> (n - 1 - i)) & 1 for i in range(n)]
        total = sum(w * v for w, v in zip(weights, votes))
        if total >= quota:
            for i in range(n):
                if votes[i] and total - weights[i] < quota:
                    raw[i] += 1
    dummies = sum(1 for c in raw if c == 0)
    return tuple(0 if c == 0 else c >> dummies for c in raw)


def test_tbp_matches_published_council_values():
    assert tbp_all(EEC.to_table()) == (5, 5, 5, 3, 3, 0)


def test_tbp_of_constant_table_is_zero():
    for table in (TruthTable(4, 0), count_table(4, (), {0})):
        assert tbp_all(table) == (0, 0, 0, 0)


def test_tbp_counts_swings_once_per_essential_scenario():
    # one dummy doubles every raw derivative weight; reported counts collapse that
    table = EEC.to_table()
    assert table.boolean_difference(1).weight() == 10  # L free on both sides
    assert tbp_all(table)[0] == 5


def test_tbp_all_with_and_without_classes():
    table = EEC.to_table()
    expected = (5, 5, 5, 3, 3, 0)
    assert tbp_all(table) == expected
    assert tbp_all(table, analyze(EEC, verify=False).classes) == expected
    assert tbp_all(table, [[3, 1, 2], [5, 4], [6]]) == expected  # any sequence of groups


def test_tbp_all_eeec():
    assert tbp_all(EEEC.to_table(), analyze(EEEC, verify=False).classes) == (
        53, 53, 53, 53, 29, 29, 21, 21, 5,
    )


def test_tbp_all_rejects_classes_that_are_not_a_partition():
    table = VotingSystem(2, (1, 1, 1)).to_table()
    for bad in [
        ((1, 2), (2, 3)),  # overlap
        ((1,), (3,)),  # gap
        ((1, 2), (3, 4)),  # out of range
        ((), (1, 2, 3)),  # empty group
        ((),),
    ]:
        with pytest.raises(ValueError, match="partition"):
            tbp_all(table, bad)


def test_tbp_all_symmetric_rule():
    assert tbp_all(count_table(3, (1, 2, 3), {2, 3})) == (2, 2, 2)


def test_normalize_examples():
    assert normalize([5, 5, 5, 3, 3, 0]) == (
        Fraction(5, 21), Fraction(5, 21), Fraction(5, 21),
        Fraction(3, 21), Fraction(3, 21), Fraction(0),
    )
    assert normalize([2, 2, 2]) == (Fraction(1, 3),) * 3
    eeec_powers = normalize([53, 53, 53, 53, 29, 29, 21, 21, 5])
    assert all(f.denominator == 317 for f in eeec_powers)
    assert sum(eeec_powers) == 1


def test_normalize_rejects_all_zero():
    with pytest.raises(NoDecisiveVoterError):
        normalize([0, 0, 0])


def test_enum_oracle_values():
    assert tbp_oracle_mitm(EEC) == (5, 5, 5, 3, 3, 0)
    assert tbp_oracle_mitm(EEEC) == (53, 53, 53, 53, 29, 29, 21, 21, 5)
    with pytest.raises(ValueError, match="MAX_MITM_VOTERS"):
        tbp_oracle_mitm(VotingSystem(11, (1,) * (MAX_MITM_VOTERS + 1)))


def test_enum_oracle_k_out_of_n_closed_form():
    for n in range(1, 9):
        for k in range(1, n + 1):
            assert tbp_oracle_mitm(VotingSystem(k, (1,) * n)) == (comb(n - 1, k - 1),) * n


def test_mitm_oracle_refuses_past_its_cap_without_allocating():
    system = VotingSystem(17, (1,) * (MAX_MITM_VOTERS + 1))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_MITM_VOTERS"):
            tbp_oracle_mitm(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16  # refused before any subset sum is listed
    assert MAX_MITM_VOTERS == 32
    at_cap = VotingSystem(17, (1,) * MAX_MITM_VOTERS)
    assert tbp_oracle_mitm(at_cap) == (comb(MAX_MITM_VOTERS - 1, 16),) * MAX_MITM_VOTERS


def test_dp_oracle_values():
    assert tbp_oracle_dp(EEC) == (5, 5, 5, 3, 3, 0)
    assert tbp_oracle_dp(EEEC) == (53, 53, 53, 53, 29, 29, 21, 21, 5)
    assert tbp_oracle_dp(VotingSystem(3, (2, 0, 2))) == (1, 0, 1)  # weight-0 voter


def test_dp_oracle_beyond_dense_limit():
    # 30 unit-weight voters, majority rule: C(29, 14) swings each
    system = VotingSystem(15, (1,) * 30)
    assert tbp_oracle_dp(system) == (comb(29, 14),) * 30


@st.composite
def small_systems(draw):
    weights = tuple(draw(st.lists(st.integers(0, 30), min_size=1, max_size=10)))
    return draw(st.integers(1, sum(weights) + 2)), weights


@settings(max_examples=300, deadline=None)
@given(small_systems())
def test_dp_kernel_matches_enumeration(system):
    quota, weights = system
    assert _dp_swing_counts(quota, weights) == enum_swing_counts(quota, weights)


def dp_case(quota, weights):
    """The counts, and which window-sum case computed them: ``dense`` when
    every field of the table was decoded, ``sparse`` when none was."""
    with mock.patch.object(
        power_module, "iter_unpack", wraps=power_module.iter_unpack
    ) as decode_all:
        counts = _dp_swing_counts(quota, weights)
    return counts, "dense" if decode_all.called else "sparse"


def forced_case(case):
    """Make the subset-sum counter read its window sums by `case`, whatever
    its cost model picks: ``dense`` decodes every field, ``sparse`` none."""
    return mock.patch.object(power_module._DPSize, "dense", lambda size: case == "dense")


@st.composite
def dp_case_systems(draw):
    # small weights, so many runs of prefix sums, or a few co-prime values
    # near 10**5 (each appears, zeros may join), so long strides between reads
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(0, 30), min_size=1, max_size=14))
    else:
        values = draw(st.lists(st.integers(10**4, 10**5), min_size=2, max_size=4, unique=True))
        assume(gcd(*values) == 1)
        weights = values + draw(st.lists(st.sampled_from(values + [0]), max_size=14 - len(values)))
    weights = tuple(draw(st.permutations(weights)))
    assume(sum(weights) > 0)
    return draw(st.integers(1, sum(weights))), weights


@settings(max_examples=150, deadline=None)
@given(dp_case_systems())
def test_dp_kernel_matches_enumeration_in_both_cases(system):
    quota, weights = system
    expected = enum_swing_counts(quota, weights)
    for case in ("dense", "sparse"):
        with forced_case(case):
            assert dp_case(quota, weights) == (expected, case)


@st.composite
def dual_systems(draw):
    # zero weights, and quotas anywhere from 1 to past the total
    weights = tuple(draw(st.lists(st.integers(0, 30), min_size=1, max_size=14)))
    return draw(st.integers(1, sum(weights) + 2)), weights


@settings(max_examples=100, deadline=None)
@given(dual_systems())
@example((6, (2, 2, 2, 1, 1)))
@example((EEEC.quota, EEEC.weights))
@example((8, (2, 2, 2, 1, 1)))  # quota at the total: the dual's quota is 1
def test_dp_kernel_counts_the_smaller_of_a_rule_and_its_dual(system):
    quota, weights = system
    total = sum(weights)
    expected = enum_swing_counts(quota, weights)
    for case in ("dense", "sparse"):
        with forced_case(case):
            assert _dp_swing_counts(quota, weights) == expected
    if quota <= total:
        # every voter swings as often in the dual rule (total - quota + 1; weights)
        assert enum_swing_counts(total - quota + 1, weights) == expected
        g = gcd(*weights)
        assert power_module._dp_size(quota, weights).q == -(-min(quota, total - quota + 1) // g)


def test_dp_tables_of_both_councils_are_their_duals():
    # (6; 2,2,2,1,1), the six-member council reduced, has total 8: its dual's
    # quota is 3; the nine-member council's total is 58, so 18 fields, not 41
    assert power_module._dp_size(6, (2, 2, 2, 1, 1)).q == 3
    assert power_module._dp_size(EEEC.quota, EEEC.weights).q == 18
    assert tbp_oracle_dp(VotingSystem(6, (2, 2, 2, 1, 1))) == (5, 5, 5, 3, 3)


def test_verify_catches_a_dual_off_by_one(monkeypatch):
    dp_size = power_module._dp_size

    def off_by_one(quota, weights):
        """The table of quota + 1: where the dual is the smaller, T - quota."""
        return dp_size(quota + 1, weights)

    for system in (EEC, EEEC):
        reduced, _ = power_module._essential_rule(system)
        total = reduced.total_weight
        assert off_by_one(reduced.quota, reduced.weights).q == total - reduced.quota
    monkeypatch.setattr(power_module, "_dp_size", off_by_one)
    for system in (EEC, EEEC):
        with pytest.raises(OracleDisagreementError):
            analyze(system, verify=True)


@st.composite
def large_weight_systems(draw):
    # a few values, zero among them, drawn with repeats: zero weights, equal
    # weights and sums that rarely collide all occur
    values = draw(st.lists(st.integers(0, 10**12), min_size=1, max_size=12)) + [0]
    weights = tuple(draw(st.lists(st.sampled_from(values), min_size=1, max_size=12)))
    return draw(st.integers(1, sum(weights) + 2)), weights


@settings(max_examples=300, deadline=None)
@given(large_weight_systems())
def test_diagram_counts_match_enumeration(system):
    quota, weights = system
    diagram = VotingSystem(quota, weights).diagram()
    assert _dd_swing_counts(diagram) == enum_swing_counts(quota, weights)


@settings(max_examples=200, deadline=None)
@given(large_weight_systems())
def test_diagram_node_estimate_is_a_bound(system):
    quota, weights = system
    assume(quota <= sum(weights))
    nodes = sum(map(len, VotingSystem(quota, weights).diagram().no))
    bound = power_module._dd_nodes(weights, gcd(*weights))
    assert nodes <= bound
    # at least one node per level: the planner's floor on the diagram's estimate
    # (the diagram itself may have fewer, as (5; 5, 1) has one)
    assert bound >= len(weights)


@settings(max_examples=300, deadline=None)
@given(large_weight_systems())
@example((1, (0,)))  # n = 1: one empty half
@example((5, (4,)))
@example((4, (4,)))
@example((10**12, (10**12, 0, 10**12)))  # odd n, a zero between equal weights
@example((3, (2, 2, 1, 0, 1)))
@example((7, (1, 2, 3)))  # quota past the total
def test_mitm_counts_match_enumeration(system):
    quota, weights = system
    assert _mitm_swing_counts(quota, weights) == enum_swing_counts(quota, weights)


def test_analyze_without_verify_builds_no_table(monkeypatch):
    rng = random.Random(5006)
    weights = tuple(rng.sample(range(1, 1001), 20))
    system = VotingSystem(sum(weights) // 2 + 1, weights)

    def refuse(*args, **kwargs):
        raise AssertionError("a truth table was built")

    monkeypatch.setattr(VotingSystem, "to_table", refuse)
    monkeypatch.setattr(Diagram, "to_table", refuse)
    monkeypatch.setattr(TruthTable, "__post_init__", refuse)
    report = analyze(system, verify=False)
    assert report.tbp == _dd_swing_counts(system.diagram())  # no dummies here
    assert not report.oracle_verified


def mitm_swings(quota, weights):
    """Raw swing counts by meeting in the middle: for each voter, the pairs of
    subset sums of two halves of the others that land in [quota - w, quota - 1]."""
    counts = []
    for k, w in enumerate(weights):
        others = weights[:k] + weights[k + 1 :]
        left, right = [0], [0]
        middle = len(others) // 2
        for half, sums in ((others[:middle], left), (others[middle:], right)):
            for v in half:
                sums += [s + v for s in sums]
        right.sort()
        counts.append(
            sum(bisect_left(right, quota - a) - bisect_left(right, quota - w - a) for a in left)
        )
    return tuple(counts)


def test_analyze_of_24_distinct_weights_near_10_to_the_12():
    rng = random.Random(5007)
    weights = tuple(10**12 + rng.randrange(10**9) for _ in range(24))
    system = VotingSystem(sum(weights) // 2 + 1, weights)
    start = time.perf_counter()
    report = analyze(system, verify=False)
    assert time.perf_counter() - start < 2.0
    assert not report.dummies  # so the counts need no halving
    assert report.tbp == mitm_swings(system.quota, weights)


DP_EDGE_CASES = [
    (1, (0,) * 7 + (1,)),  # P[0] = 2**(n-1), the largest count a field holds
    (1, (0,) * 15 + (1,)),
    (1, (0,) * 23 + (1,)),
    (1, (0,) * 6 + (1, 1)),
    (2, (0,) * 6 + (1, 1)),
    (4, (1,) * 8),  # n = 8, 16, 24: one more byte per field than at n - 1
    (9, (1, 2, 3) * 5 + (4,)),
    (13, (1,) * 24),
    (30, tuple(range(1, 25))),
    (5, (5, 7, 1, 2)),  # a weight >= q swings with every losing set of the others
    (3, (9, 9, 9)),
    (3, (2, 2)),  # q - 2r < 0: the run from q - 2r reads nothing
    (10, (1, 2, 3)),  # q > W: constant rule
    (1, (4,)),  # n = 1
    (5, (4,)),
    (1, (0,)),
    (3, (0, 0, 0)),  # all zero: gcd 0
    (7, (6, 4, 2)),  # gcd 2, odd quota rounds up
    (12, (10, 15, 5, 0)),
    (20, (1, 2, 3, 4, 5, 6, 7, 8)),  # q = 20: three blocks of 7
    (30, (7, 11, 13, 17)),  # long strides between reads
]


def edge_case_swings(quota, weights):
    """Enumerated up to 14 voters, met in the middle past them."""
    return (enum_swing_counts if len(weights) <= 14 else mitm_swings)(quota, weights)


def test_dp_kernel_edge_cases():
    for case in ("dense", "sparse"):
        with forced_case(case):
            for quota, weights in DP_EDGE_CASES:
                assert _dp_swing_counts(quota, weights) == edge_case_swings(quota, weights)
            # a lone voter among dummies swings 2**(n - 1) times: 2**63 spans 8 of 9 bytes
            for n in (31, 64):
                assert _dp_swing_counts(1, (0,) * (n - 1) + (1,)) == (0,) * (n - 1) + (1 << n - 1,)


@pytest.mark.parametrize("block", [1, 7])
def test_dp_kernel_across_blocks(monkeypatch, block):
    weights = tuple(range(1, 31))
    quota = sum(weights) // 2 + 1
    whole = _dp_swing_counts(quota, weights)
    assert DP_BLOCK > quota  # one block by default
    monkeypatch.setattr(power_module, "DP_BLOCK", block)
    with forced_case("dense"):
        for q, w in DP_EDGE_CASES:
            assert _dp_swing_counts(q, w) == edge_case_swings(q, w)
    assert dp_case(quota, weights) == (whole, "dense")
    assert whole == mitm_swings(quota, weights)
    assert _dp_swing_counts(15, (1,) * 30) == (comb(29, 14),) * 30


def dp_peak(quota, weights):
    """The counts, their case, and the peak of memory traced while counting."""
    tracemalloc.start()
    try:
        counts, case = dp_case(quota, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return counts, case, peak


def test_dp_dense_case_memory_stays_within_a_block():
    # q = 100076 fields of 22 bytes: the weight-1 voters read q prefix sums,
    # 22 byte sums each, so every field is decoded instead, a block at a time
    ones, heavy, w = 150, 20, 10**4
    weights = (1,) * ones + (w,) * heavy
    quota = sum(weights) // 2 + 1
    nbytes = len(weights) // 8 + 1
    assert quota > 3 * DP_BLOCK
    counts, case, peak = dp_peak(quota, weights)
    assert case == "dense"
    assert peak < 6 * quota * nbytes

    def swings(v, m, k):
        """A weight-v voter's swings among m others of weight 1 and k of weight w."""
        return sum(
            comb(k, j) * comb(m, i)
            for j in range(k + 1)
            for i in range(m + 1)
            if quota - v <= j * w + i < quota
        )

    assert counts == (swings(1, ones - 1, heavy),) * ones + (swings(w, ones, heavy - 1),) * heavy


def test_dp_sparse_case_memory_stays_near_the_table():
    # q = 120654 fields of 4 bytes: reading q prefix sums as 4 byte sums each
    # costs less than decoding them, and only a slice of one byte at a time
    # comes next to the packed prefix sums
    rng = random.Random(5008)
    weights = (1,) + tuple(10**4 + rng.randrange(100) for _ in range(24))
    quota = sum(weights) // 2 + 1
    nbytes = len(weights) // 8 + 1
    assert quota > 3 * DP_BLOCK
    counts, case, peak = dp_peak(quota, weights)
    assert case == "sparse"
    assert peak < 5.34 * quota * nbytes  # 4.85 times on Python 3.10 to 3.13, plus 10 %
    assert counts == mitm_swings(quota, weights)


def test_dp_kernel_refuses_huge_tables_without_allocating():
    # co-prime, so gcd 1: past MAX_MITM_VOTERS every source is over its cap
    weights = tuple(10**12 + k for k in range(MAX_MITM_VOTERS + 1))
    system = VotingSystem(sum(weights) // 2, weights)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_DP_BYTES") as refusal:
            analyze(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < MAX_DP_BYTES // 64
    assert "N_MAX" in str(refusal.value) and "MAX_MITM_VOTERS" in str(refusal.value)
    # 30 of them are within meet-in-the-middle's cap, and no voter is a dummy
    thirty = VotingSystem(sum(weights[:30]) // 2, weights[:30])
    assert analyze(thirty).tbp == mitm_swings(thirty.quota, thirty.weights)
    # the cross-check skips the subset-sum table of three such voters, not the system
    small = VotingSystem(2 * 10**12, (10**12 - 1, 10**12, 10**12 + 1))
    with pytest.raises(ValueError, match="MAX_DP_BYTES"):
        tbp_oracle_dp(small)
    assert analyze(small).oracle_verified
    assert analyze(small).tbp == analyze(small, verify=False).tbp == (1, 1, 3)


def test_dp_kernel_refuses_too_much_work(monkeypatch):
    import banzhaf.power as power_module

    # gcd 2: quota 4, and the voters of weight 1, 2, 1 (not 4) each pass over
    # 4 sums x 1 byte, so the work is 3 x 4 x 1 = 12
    system = VotingSystem(7, (2, 4, 8, 2))
    monkeypatch.setattr(power_module, "MAX_DP_WORK", 12)
    assert tbp_oracle_dp(system) == ref_swings(system)
    monkeypatch.setattr(power_module, "MAX_DP_WORK", 11)
    with pytest.raises(ValueError, match="MAX_DP_WORK"):
        tbp_oracle_dp(system)
    assert analyze(system).oracle_verified  # over its cap, the counter sits the cross-check out
    assert analyze(system).tbp == analyze(system, verify=False).tbp == ref_swings(system)


def test_dp_work_cap_refuses_at_once():
    # a legal table (31 MB) that would take minutes to fill
    weights = (3, 7) * 5000
    start = time.perf_counter()
    with pytest.raises(ValueError, match="MAX_DP_WORK"):
        analyze(VotingSystem(sum(weights) // 2 + 1, weights))
    assert time.perf_counter() - start < 1.0
    assert MAX_DP_WORK == 1 << 31


def test_supermajority_past_the_caps_is_counted_on_its_dual():
    # the rule's own table, 45,451 sums x 126 bytes, would take 5.7 * 10**9
    # byte operations to fill, past MAX_DP_WORK; its dual's quota is 5,050
    weights = tuple(1 + i % 100 for i in range(1000))
    quota = 9 * sum(weights) // 10 + 1
    assert quota == 45451
    tracemalloc.start()
    try:
        start = time.perf_counter()
        report = analyze(VotingSystem(quota, weights))
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 10.0
    assert peak < quota * 126  # under the rule's own table
    tbp = report.tbp
    assert not report.dummies and not report.oracle_verified
    by_weight = {}
    for w, c in zip(weights, tbp):
        assert by_weight.setdefault(w, c) == c  # equal weights, equal counts
    ordered = [by_weight[w] for w in sorted(by_weight)]
    assert ordered == sorted(ordered)  # counts follow weight order
    assert len({c % 2 for c in tbp}) == 1  # each is W+ - W- with W+ + W- = W


def list_dp_swings(quota, weights):
    """Raw swing counts by a plain list DP: per voter, the other voters'
    subsets counted by sum, one list entry per sum below the quota."""
    counts = []
    for k, w in enumerate(weights):
        below = [1] + [0] * (quota - 1)  # below[s]: subsets of the others of sum s
        for v in weights[:k] + weights[k + 1 :]:
            if v < quota:
                below = below[:v] + [a + b for a, b in zip(below[v:], below)]
        counts.append(sum(below[max(0, quota - w) :]))
    return tuple(counts)


def test_supermajority_of_60_voters_matches_a_list_dp_at_its_own_quota():
    rng = random.Random(5014)
    weights = tuple(rng.randint(1, 30) for _ in range(60))
    quota = 9 * sum(weights) // 10 + 1
    size = power_module._dp_size(quota, weights)
    assert size.q == sum(weights) - quota + 1 < quota  # counted on the dual
    assert _dp_swing_counts(quota, weights) == list_dp_swings(quota, weights)
    assert analyze(VotingSystem(quota, weights)).tbp == list_dp_swings(quota, weights)


@st.composite
def unit_plus_light_systems(draw):
    # multiples of a unit, zero among them, plus light voters that may or may
    # not sum below the unit; quotas on a multiple of the unit or anywhere
    unit = draw(st.sampled_from((1, 2, 3, 10, 40, 10**6)))
    heavy = draw(st.lists(st.integers(0, 8).map(unit.__mul__), min_size=1, max_size=10))
    light = draw(st.lists(st.integers(0, max(1, unit // 3)), max_size=14 - len(heavy)))
    weights = tuple(draw(st.permutations(heavy + light)))
    top = sum(weights) + 2
    quota = draw(st.integers(1, top) | st.integers(1, top // unit + 1).map(unit.__mul__))
    return VotingSystem(quota, weights)


@settings(max_examples=300, deadline=None)
@given(unit_plus_light_systems())
@example(EEC)
@example(VotingSystem(5, (0, 0, 0)))  # all weights zero: nothing to drop
@example(VotingSystem(10, (1, 5)))  # quota past the total
def test_reduced_rule_counts_match_enumeration(system):
    reduced, kept = power_module._essential_rule(system)
    raw = enum_swing_counts(system.quota, system.weights)
    dropped = system.n - len(kept)
    assert all(raw[i] == 0 for i in set(range(system.n)) - set(kept))
    # each dropped voter doubles the kept voters' raw counts, and nothing else
    reduced_raw = enum_swing_counts(reduced.quota, reduced.weights)
    assert tuple(raw[i] for i in kept) == tuple(c << dropped for c in reduced_raw)
    assert len(power_module._essential_rule(reduced)[1]) == reduced.n  # nothing more to drop
    assert analyze(system, verify=False).tbp == enum_tbp(system)


def test_reduction_of_both_councils():
    reduced, kept = power_module._essential_rule(EEC)
    assert kept == (0, 1, 2, 3, 4)  # L dropped
    assert (reduced.quota, reduced.weights) == (6, (2, 2, 2, 1, 1))
    assert power_module._essential_rule(EEEC) == (EEEC, tuple(range(9)))


def test_verify_catches_a_reduction_that_drops_one_voter_too_many(monkeypatch):
    reduce = power_module._essential_rule

    def overreach(system):
        reduced, kept = reduce(system)
        k = reduced.weights.index(min(reduced.weights))
        weights = reduced.weights[:k] + reduced.weights[k + 1 :]
        return VotingSystem(reduced.quota, weights), kept[:k] + kept[k + 1 :]

    monkeypatch.setattr(power_module, "_essential_rule", overreach)
    for system in (EEC, EEEC):
        with pytest.raises(OracleDisagreementError):
            analyze(system, verify=True)


def test_light_voters_past_every_cap_are_dropped():
    # the 997 light voters sum to 10,443, under one bloc: only the three blocs
    # swing, and the counts need no table of 1,000 voters, which would be past
    # MAX_DP_WORK, MAX_MITM_VOTERS and N_MAX
    weights = (10444,) * 3 + tuple(1 + i % 20 for i in range(997))
    system = VotingSystem(20888, weights)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        report = analyze(system)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 1 << 20
    assert report.tbp == (2, 2, 2) + (0,) * 997
    assert report.dummies == frozenset(range(4, 1001))
    assert report.ntbp[:3] == (Fraction(1, 3),) * 3 and not report.oracle_verified


@pytest.mark.parametrize(
    "weights, source",
    [
        (tuple(random.Random(5010).choices(range(1, 1001), k=20)), "subset-sum"),
        (tuple(random.Random(5011).sample(range(10**6, 2 * 10**6), 24)), "meet-in-the-middle"),
        (tuple(random.Random(5012).choices((10**6 - 1, 10**6, 10**6 + 1), k=24)), "diagram"),
    ],
)
def test_planner_picks_the_cheapest_source(weights, source):
    quota = sum(weights) // 2 + 1
    system = VotingSystem(quota, weights)
    sources = power_module._sources(system, system.diagram)
    assert min(sources, key=lambda name: sources[name][0]()) == source
    report = analyze(system)
    assert not report.dummies  # so the counts need no halving
    assert report.tbp == mitm_swings(quota, weights)


@st.composite
def planner_systems(draw):
    values = draw(st.lists(st.integers(0, draw(st.sampled_from((3, 30, 10**12)))), min_size=1))
    weights = tuple(draw(st.lists(st.sampled_from(values), min_size=1, max_size=14)))
    return VotingSystem(draw(st.integers(1, sum(weights) + 2)), weights)


@settings(max_examples=100, deadline=None)
@given(planner_systems())
@example(VotingSystem(10**12, (10**12, 3 * 10**11 + 7, 5)))  # a table past MAX_DP_BYTES
@example(VotingSystem(4, (0, 0, 0)))  # quota past the total, all weights zero
@example(VotingSystem(9, (1, 2, 3)))  # quota past the total, weights not all zero
def test_every_planned_source_gives_the_enumerated_report(system):
    tbp = enum_tbp(system)
    dummies = {i for i, c in enumerate(tbp, 1) if c == 0}
    classes = {}
    for i, c in enumerate(tbp, 1):
        classes.setdefault(c, []).append(i)
    quota, weights = system.quota, system.weights
    sources = power_module._sources(system, system.diagram)
    fits = quota > sum(weights) or power_module._dp_size(quota, weights).fits()
    assert set(sources) == {"meet-in-the-middle", "diagram"} | ({"subset-sum"} if fits else set())
    for name, (_, count) in sources.items():
        assert power_module._essential(count()) == tbp, name
    for verify in (False, True):
        report = analyze(system, verify=verify)
        assert report.tbp == tbp
        assert report.dummies == dummies
        assert report.classes == tuple(map(tuple, classes.values()))
        assert report.oracle_verified == verify


@settings(max_examples=100, deadline=None)
@given(planner_systems())
def test_planner_picks_the_least_full_estimate(system):
    reduced, _ = power_module._essential_rule(system)
    sources = power_module._sources(reduced, reduced.diagram)
    full = {name: cost() for name, (cost, _) in sources.items()}
    ran = []
    make = power_module._sources

    def spying(system, diagram):
        def spy(name, call):
            ran.append(name)
            return call()

        return {
            name: (cost, lambda name=name, call=call: spy(name, call))
            for name, (cost, call) in make(system, diagram).items()
        }

    with mock.patch.object(power_module, "_sources", spying):
        analyze(system, verify=False)
    assert ran == [min(full, key=full.get)]  # the first of equal estimates


def test_planner_skips_the_diagram_bound_under_its_floor(monkeypatch):
    calls = []
    dd_nodes = power_module._dd_nodes

    def counted(*args):
        calls.append(args)
        return dd_nodes(*args)

    monkeypatch.setattr(power_module, "_dd_nodes", counted)
    # a dense-workload shape: 20 voters of weight 1..10, a bare majority
    weights = tuple(random.Random(5015).choices(range(1, 11), k=20))
    system = VotingSystem(sum(weights) // 2 + 1, weights)
    sources = power_module._sources(system, system.diagram)
    floor = power_module._DD_US + power_module._DD_US_PER_NODE * system.n
    assert sources["subset-sum"][0]() < floor
    report = analyze(system, verify=False)
    assert calls == []
    assert not report.dummies and report.tbp == mitm_swings(system.quota, weights)
    # near-equal weights near 10**6: the floor is under the other estimates
    weights = tuple(random.Random(5012).choices((10**6 - 1, 10**6, 10**6 + 1), k=24))
    analyze(VotingSystem(sum(weights) // 2 + 1, weights), verify=False)
    assert len(calls) == 1


def test_analyze_of_28_voters_near_10_to_the_12_is_fast():
    rng = random.Random(5013)
    weights = tuple(10**12 + rng.randrange(10**9) for _ in range(28))
    system = VotingSystem(sum(weights) // 2 + 1, weights)
    start = time.perf_counter()
    report = analyze(system)
    assert time.perf_counter() - start < 1.0
    assert not report.dummies and not report.oracle_verified
    assert report.tbp == mitm_swings(system.quota, weights)


def test_dp_route_reduces_by_the_gcd():
    rng = random.Random(5005)
    weights = tuple(rng.randint(1, 100) for _ in range(200))
    system = VotingSystem(sum(weights) * 3 // 5, weights)
    assert analyze(scaled(system, 10**9)) == analyze(system)


def test_oracle_triangle_on_random_systems():
    rng = random.Random(5001)
    for _ in range(150):
        n = rng.randint(1, 9)
        weights = tuple(rng.randint(0, 12) for _ in range(n))
        system = VotingSystem(rng.randint(1, sum(weights) + 2), weights)
        expected = ref_swings(system)
        assert tbp_all(system.to_table()) == expected
        assert tbp_oracle_mitm(system) == expected
        assert tbp_oracle_dp(system) == expected


def test_analyze_eec_report():
    report = analyze(EEC)
    assert report.tbp == (5, 5, 5, 3, 3, 0)
    assert report.ntbp == (
        Fraction(5, 21), Fraction(5, 21), Fraction(5, 21),
        Fraction(3, 21), Fraction(3, 21), Fraction(0),
    )
    assert report.dummies == frozenset({6})
    assert report.classes == ((1, 2, 3), (4, 5), (6,))
    assert report.checks.monotone and report.checks.causal and not report.checks.constant
    assert report.oracle_verified


def test_analyze_eeec_report():
    report = analyze(EEEC)
    assert report.tbp == (53, 53, 53, 53, 29, 29, 21, 21, 5)
    assert {f.denominator for f in report.ntbp} == {317}
    assert report.dummies == frozenset()
    assert report.classes == ((1, 2, 3, 4), (5, 6), (7, 8), (9,))
    assert report.oracle_verified


def test_analyze_equal_weight_triple():
    report = analyze(VotingSystem(3, (2, 2, 2)))
    assert report.tbp == (2, 2, 2)
    assert report.ntbp == (Fraction(1, 3),) * 3
    assert report.dummies == frozenset()


def test_analyze_constant_system():
    report = analyze(VotingSystem(7, (1, 1, 1)))
    assert report.tbp == (0, 0, 0)
    assert report.ntbp == ()
    assert report.dummies == frozenset({1, 2, 3})
    assert report.checks.constant and not report.checks.causal


def test_analyze_verify_flag():
    assert analyze(EEC, verify=False).oracle_verified is False
    assert analyze(EEC, verify=True).oracle_verified is True
    # auto mode: off above the limit, on below
    big = VotingSystem(8, (1,) * 14)
    assert analyze(big).oracle_verified is False
    assert analyze(big, verify=True).oracle_verified is True


def test_analyze_refuses_verify_past_the_enumeration_limit():
    system = VotingSystem(13, (1,) * (N_MAX + 1))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="verify=False"):
            analyze(system, verify=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16  # refused before any table, diagram or oracle is built
    assert analyze(system, verify=False).tbp == (comb(N_MAX, 12),) * 25


@pytest.mark.parametrize("n, top", [(22, 100), (24, 1000)])
def test_analyze_verifies_up_to_the_table_limit(n, top):
    rng = random.Random(5009 + n)
    weights = tuple(rng.randint(1, top) for _ in range(n))
    system = VotingSystem(sum(weights) // 2 + 1, weights)
    start = time.perf_counter()
    report = analyze(system, verify=True)
    assert time.perf_counter() - start < 5.0
    assert report.oracle_verified


def test_analyze_scale_invariant_reports():
    for system, factor in [(EEC, 3), (EEEC, 2), (VotingSystem(4, (3, 2, 2, 1)), 7)]:
        base = analyze(system)
        other = analyze(scaled(system, factor))
        assert base == other
        assert repr(base) == repr(other)


def test_analyze_dummy_consistency():
    rng = random.Random(5002)
    for _ in range(50):
        n = rng.randint(1, 8)
        weights = tuple(rng.randint(0, 8) for _ in range(n))
        system = VotingSystem(rng.randint(1, sum(weights) + 2), weights)
        report = analyze(system)
        table = system.to_table()
        for i in range(1, n + 1):
            assert (report.tbp[i - 1] == 0) == (i in report.dummies)
            assert (i in report.dummies) == table.is_vacuous_in(i)
        if any(report.tbp):
            assert sum(report.ntbp) == 1
        else:
            assert report.ntbp == ()


def test_analyze_class_constancy():
    rng = random.Random(5003)
    for _ in range(50):
        n = rng.randint(1, 8)
        weights = tuple(rng.randint(0, 8) for _ in range(n))
        system = VotingSystem(rng.randint(1, sum(weights) + 2), weights)
        report = analyze(system)
        for group in report.classes:
            assert len({report.tbp[i - 1] for i in group}) == 1


def test_analyze_beyond_dense_limit_uses_subset_sums():
    system = VotingSystem(15, (1,) * 29 + (0,))
    report = analyze(system)
    assert report.oracle_verified is False
    assert report.dummies == frozenset({30})
    assert report.tbp[:29] == (comb(28, 14),) * 29
    assert report.tbp[29] == 0
    assert report.checks.monotone and report.checks.causal and not report.checks.constant
    assert report.classes == (tuple(range(1, 30)), (30,))
    with pytest.raises(ValueError):
        analyze(system, verify=True)


def test_analyze_classes_by_count_on_both_routes():
    # weight 1 swings exactly as often as weight 2: one class, dense route
    # and subset-sum route alike
    for blocs in (12, 24):
        report = analyze(VotingSystem(blocs + 1, (2,) * blocs + (1,)))
        assert report.classes == (tuple(range(1, blocs + 2)),)
    # the 28 small voters never swing: one class of blocs, one of dummies
    report = analyze(VotingSystem(1000, (500, 500) + tuple(range(1, 29))))
    assert report.classes == ((1, 2), tuple(range(3, 31)))
    assert report.dummies == frozenset(range(3, 31))


def test_count_classes_and_dummies_match_the_table():
    rng = random.Random(5004)
    for _ in range(1000):
        n = rng.randint(1, 12)
        weights = tuple(rng.randint(0, rng.choice((3, 20))) for _ in range(n))
        system = VotingSystem(rng.randint(1, sum(weights) + 2), weights)
        report = analyze(system, verify=False)
        table = system.to_table()
        assert report.dummies == {i for i in range(1, n + 1) if table.is_vacuous_in(i)}
        lookup = {i: group for group in report.classes for i in group}
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                assert (lookup[i] is lookup[j]) == table.is_symmetric_in(i, j)


def test_symmetric_closed_form_against_analysis():
    for n in range(1, 9):
        for k in range(1, n + 1):
            report = analyze(VotingSystem(k, (1,) * n))
            table = count_table(n, range(1, n + 1), range(k, n + 1))
            assert report.tbp == tbp_all(table) == (comb(n - 1, k - 1),) * n
            assert report.ntbp == (Fraction(1, n),) * n


def test_oracle_disagreement_is_raised(monkeypatch):
    import banzhaf.power as power_module

    monkeypatch.setattr(power_module, "_mitm_swing_counts", lambda q, w: (99, 99))
    with pytest.raises(OracleDisagreementError):
        analyze(VotingSystem(2, (1, 1)))


def test_structural_checks_are_cross_checked(monkeypatch):
    monkeypatch.setattr(TruthTable, "is_monotone", lambda self: False)
    with pytest.raises(OracleDisagreementError):
        analyze(VotingSystem(2, (1, 1)))
    assert analyze(VotingSystem(2, (1, 1)), verify=False).checks.monotone


@pytest.mark.parametrize("system", [EEC, EEEC], ids=["six", "nine"])
def test_verify_catches_every_flipped_table_row(monkeypatch, system):
    fold = Diagram.to_table
    for row in range(1 << system.n):

        def flipped(self, row=row):
            return TruthTable(self.n, fold(self).bits ^ (1 << row))

        monkeypatch.setattr(Diagram, "to_table", flipped)
        with pytest.raises(OracleDisagreementError):
            analyze(system, verify=True)


def test_verify_takes_one_derivative_per_class(monkeypatch):
    calls = {"difference_weight": [], "is_symmetric_in": []}
    for name, calls_of in calls.items():
        method = getattr(TruthTable, name)

        def spy(self, *args, method=method, calls_of=calls_of):
            calls_of.append(args)
            return method(self, *args)

        monkeypatch.setattr(TruthTable, name, spy)

    def refuse(*args):
        raise AssertionError("not called under verify")

    monkeypatch.setattr(TruthTable, "is_vacuous_in", refuse)
    monkeypatch.setattr(power_module, "_dd_nodes", refuse)
    report = analyze(VotingSystem(4, (3, 2, 2)), verify=True)  # 2 of 3: one class
    assert report.classes == ((1, 2, 3),) and report.oracle_verified
    assert calls == {"difference_weight": [(1,)], "is_symmetric_in": [(1, 2), (1, 3)]}


def test_classes_are_checked_with_one_transposition_per_extra_member(monkeypatch):
    calls = []
    symmetric = TruthTable.is_symmetric_in

    def spy(self, i, j):
        calls.append((i, j))
        return symmetric(self, i, j)

    monkeypatch.setattr(TruthTable, "is_symmetric_in", spy)
    report = analyze(EEEC, verify=True)
    assert report.classes == ((1, 2, 3, 4), (5, 6), (7, 8), (9,))
    assert sorted(calls) == [(1, 2), (1, 3), (1, 4), (5, 6), (7, 8)]  # n - k = 9 - 4
    monkeypatch.setattr(TruthTable, "is_symmetric_in", lambda self, i, j: False)
    with pytest.raises(OracleDisagreementError):
        analyze(EEEC, verify=True)


def test_power_report_is_immutable():
    report = analyze(EEC)
    assert isinstance(report, PowerReport)
    with pytest.raises(AttributeError):
        report.tbp = ()
