"""Truth-table core: row convention, kernels, measures, and derivative calculus.

The restriction/difference kernels are checked against a deliberately naive
row-by-row reference so that the bit-twiddling never has to be trusted.
"""

import random

import pytest

from banzhaf import TruthTable, VotingSystem, tbp_all
from banzhaf.truthtable import _zero_masks
from reference import count_table, lift, table_of


def rows_of(table):
    return [table.row(j) for j in range(1 << table.n)]


def ref_restrict(table, i, v):
    """Row-indexing reference for restrict(): filter rows where X_i == v."""
    n = table.n
    kept = []
    for j in range(1 << n):
        if (j >> (n - i)) & 1 == v:
            kept.append(table.row(j))
    return table_of(kept)


def random_table(rng, n):
    return TruthTable(n, rng.getrandbits(1 << n))


TWO_OF_THREE = table_of([0, 0, 0, 1, 0, 1, 1, 1])  # X1X2 + X2X3 + X1X3


def test_row_convention_msb_first():
    # row j assigns X1..Xn the binary digits of j, X1 most significant
    x1 = TruthTable(3, 0b11110000)
    x3 = TruthTable(3, 0b10101010)
    assert rows_of(x1) == [0, 0, 0, 0, 1, 1, 1, 1]
    assert rows_of(x3) == [0, 1, 0, 1, 0, 1, 0, 1]
    assert x1 == count_table(3, (1,), {1}) and x3 == count_table(3, (3,), {1})
    assert TWO_OF_THREE.row(0b011) == 1  # X2 and X3 vote yes
    assert TWO_OF_THREE.row(0b100) == 0  # only X1 votes yes


def test_arity_and_bits_validation():
    with pytest.raises(ValueError):
        TruthTable(25, 0)
    with pytest.raises(ValueError):
        TruthTable(1, 4)
    with pytest.raises(ValueError):
        TruthTable(-1, 0)
    assert TruthTable(2, 15).weight() == 4
    for bits in (16, -1):
        with pytest.raises(ValueError):
            TruthTable(2, bits)
    # bools and non-ints are neither arities nor bit vectors
    for n, bits in ((True, 0), (3, True), (3, 1.5), ("3", 0)):
        with pytest.raises(ValueError):
            TruthTable(n, bits)


def test_restrict_two_of_three_leaves_one_of_two():
    # fixing one yes-vote in 2-out-of-3 leaves 1-out-of-2
    got = TWO_OF_THREE.restrict(1, 1)
    assert got == count_table(2, (1, 2), {1, 2})
    assert got.weight() == 3


def test_restrict_of_constant_is_constant():
    assert count_table(3, (), {0}).restrict(2, 0) == count_table(2, (), {0})
    assert TruthTable(3, 0).restrict(3, 1) == TruthTable(2, 0)


def test_restrict_both_values_agree_on_vacuous_variable():
    table = VotingSystem(12, (4, 4, 4, 2, 2, 1)).to_table()
    assert table.restrict(6, 0) == table.restrict(6, 1)


def test_restrict_argument_checking():
    with pytest.raises(ValueError):
        TWO_OF_THREE.restrict(0, 0)
    with pytest.raises(ValueError):
        TWO_OF_THREE.restrict(4, 0)
    with pytest.raises(ValueError):
        TWO_OF_THREE.restrict(1, 2)
    with pytest.raises(ValueError):
        TruthTable(0, 1).restrict(1, 0)


def test_restrict_matches_row_reference_on_random_tables():
    rng = random.Random(1001)
    for _ in range(300):
        n = rng.randint(1, 8)
        table = random_table(rng, n)
        i = rng.randint(1, n)
        v = rng.randint(0, 1)
        assert table.restrict(i, v) == ref_restrict(table, i, v)


def test_boolean_difference_is_xor_of_restrictions():
    rng = random.Random(1002)
    for _ in range(300):
        n = rng.randint(1, 8)
        table = random_table(rng, n)
        i = rng.randint(1, n)
        expected = TruthTable(n - 1, table.restrict(i, 0).bits ^ table.restrict(i, 1).bits)
        assert table.boolean_difference(i) == expected
        assert table.difference_weight(i) == expected.weight()


def test_boolean_difference_of_two_of_three():
    # the difference about any input of 2-out-of-3 is exactly-1-of-2, weight 2
    for i in (1, 2, 3):
        diff = TWO_OF_THREE.boolean_difference(i)
        assert rows_of(diff) == [0, 1, 1, 0]
        assert diff.weight() == 2


def test_difference_of_constant_is_zero():
    for constant in (TruthTable(4, 0), count_table(4, (), {0})):
        assert constant.boolean_difference(2) == TruthTable(3, 0)


def test_difference_recovers_independent_factor():
    # d(A & Xi)/dXi == A for A independent of Xi
    rng = random.Random(1003)
    for _ in range(100):
        n = rng.randint(2, 8)
        i = rng.randint(1, n)
        a = random_table(rng, n - 1)
        product = TruthTable(n, lift(a, i).bits & count_table(n, (i,), {1}).bits)
        assert product.boolean_difference(i) == a


def test_insert_vacuous_inverts_restrict():
    rng = random.Random(1004)
    for _ in range(200):
        n = rng.randint(0, 7)
        table = random_table(rng, n)
        i = rng.randint(1, n + 1)
        lifted = lift(table, i)
        assert lifted.is_vacuous_in(i)
        assert lifted.restrict(i, 0) == table
        assert lifted.restrict(i, 1) == table


def test_weight_and_syndrome():
    assert TWO_OF_THREE.weight() == 4
    assert TruthTable(3, 0).weight() == 0


def test_weight_of_six_voter_threshold_table():
    # frozen from direct enumeration of (12; 4,4,4,2,2,1) over all 64 rows
    assert VotingSystem(12, (4, 4, 4, 2, 2, 1)).to_table().weight() == 14


def test_structure_predicates():
    assert TWO_OF_THREE.is_monotone()
    assert TWO_OF_THREE.is_causal()
    assert not TruthTable(3, 0).is_causal()
    assert not count_table(3, (), {0}).is_causal()
    assert count_table(3, (), {0}).is_monotone()
    # exactly-one-of-two is not monotone
    assert not count_table(2, (1, 2), {1}).is_monotone()


def ref_is_monotone(table):
    """Definition: no row and no variable where raising X_i from 0 to 1 lowers f."""
    n = table.n
    return all(
        table.row(j) <= table.row(j | 1 << (n - i))
        for j in range(1 << n)
        for i in range(1, n + 1)
    )


def upward_closure(table):
    """The least monotone function above `table`: f'(j) = OR of f over subsets of j."""
    rows = range(1 << table.n)
    return table_of(
        [int(any(table.row(k) for k in rows if k & j == k)) for j in rows]
    )


def test_is_monotone_matches_its_definition():
    rng = random.Random(1006)
    tables = [random_table(rng, rng.randint(0, 6)) for _ in range(300)]
    tables += [upward_closure(t) for t in tables[:100]]
    verdicts = [t.is_monotone() for t in tables]
    assert verdicts == [ref_is_monotone(t) for t in tables]
    assert all(verdicts[300:])
    assert verdicts[:300].count(False) > 150  # most random tables step down somewhere


def test_threshold_tables_are_monotone_and_causal():
    rng = random.Random(1005)
    for _ in range(50):
        n = rng.randint(1, 8)
        weights = tuple(rng.randint(0, 9) for _ in range(n))
        total = sum(weights)
        if total == 0:
            continue
        table = VotingSystem(rng.randint(1, total), weights).to_table()
        assert table.is_monotone()
        assert table.is_causal()


def test_vacuous_detection():
    table = VotingSystem(12, (4, 4, 4, 2, 2, 1)).to_table()
    assert table.is_vacuous_in(6)
    assert not any(table.is_vacuous_in(i) for i in range(1, 6))
    assert count_table(3, (), {0}).is_vacuous_in(2)


def test_symmetry_of_variables():
    assert TWO_OF_THREE.is_symmetric_in(1, 3)
    assert TWO_OF_THREE.is_symmetric_in(2, 2)
    x1 = count_table(2, (1,), {1})
    assert not x1.is_symmetric_in(1, 2)
    rng = random.Random(1006)
    for _ in range(100):
        n = rng.randint(2, 7)
        table = random_table(rng, n)
        i, j = rng.sample(range(1, n + 1), 2)
        # reference: swap the two index bits of every row
        swapped = []
        for row in range(1 << n):
            bi, bj = (row >> (n - i)) & 1, (row >> (n - j)) & 1
            other = row & ~(1 << (n - i)) & ~(1 << (n - j))
            other |= bj << (n - i) | bi << (n - j)
            swapped.append(table.row(other))
        assert table.is_symmetric_in(i, j) == (swapped == rows_of(table))


# -- derivative calculus ------------------------------------------------------


def test_fold_identity_weights_add():
    rng = random.Random(1007)
    for _ in range(200):
        n = rng.randint(1, 8)
        table = random_table(rng, n)
        i = rng.randint(1, n)
        assert table.restrict(i, 0).weight() + table.restrict(i, 1).weight() == table.weight()


def test_difference_ignores_polarity():
    rng = random.Random(1008)
    for _ in range(200):
        n = rng.randint(1, 8)
        table = random_table(rng, n)
        i = rng.randint(1, n)
        complement = TruthTable(n, table.bits ^ ((1 << (1 << n)) - 1))
        assert table.boolean_difference(i) == complement.boolean_difference(i)


def test_difference_commutes_with_xor():
    rng = random.Random(1009)
    for _ in range(200):
        n = rng.randint(1, 8)
        f, g = random_table(rng, n), random_table(rng, n)
        i = rng.randint(1, n)
        expected = TruthTable(n - 1, f.boolean_difference(i).bits ^ g.boolean_difference(i).bits)
        assert TruthTable(n, f.bits ^ g.bits).boolean_difference(i) == expected


def test_difference_of_disjunction():
    # d(f|g) = ~f.dg ^ df.~g ^ df.dg with the complements taken at X_i = 0;
    # the identity holds with either cofactor since the differences are
    # X_i-independent.
    rng = random.Random(1010)
    for _ in range(200):
        n = rng.randint(1, 8)
        f, g = random_table(rng, n), random_table(rng, n)
        i = rng.randint(1, n)
        df, dg = f.boolean_difference(i).bits, g.boolean_difference(i).bits
        full = (1 << (1 << (n - 1))) - 1
        for v in (0, 1):
            nf, ng = f.restrict(i, v).bits ^ full, g.restrict(i, v).bits ^ full
            expected = TruthTable(n - 1, (nf & dg) ^ (df & ng) ^ (df & dg))
            assert TruthTable(n, f.bits | g.bits).boolean_difference(i) == expected


def test_complement_weight_rule():
    rng = random.Random(1011)
    for _ in range(200):
        n = rng.randint(0, 10)
        table = random_table(rng, n)
        complement = TruthTable(n, table.bits ^ ((1 << (1 << n)) - 1))
        assert complement.weight() == (1 << n) - table.weight()


def test_product_rule_on_disjoint_variable_sets():
    rng = random.Random(1012)
    for _ in range(100):
        n = rng.randint(2, 10)
        k = rng.randint(1, n - 1)
        f1, f2 = random_table(rng, k), random_table(rng, n - k)
        lifted1 = f1
        for _ in range(n - k):  # append the second block as vacuous variables
            lifted1 = lift(lifted1, lifted1.n + 1)
        lifted2 = f2
        for _ in range(k):  # prepend the first block
            lifted2 = lift(lifted2, 1)
        assert TruthTable(n, lifted1.bits & lifted2.bits).weight() == f1.weight() * f2.weight()


def kernel_results(tables):
    """Every mask-using operation on every table, variable and value."""
    out = []
    for t in tables:
        n, ids = t.n, range(1, t.n + 1)
        out.append([t.restrict(i, v) for i in ids for v in (0, 1)])
        out.append([(t.boolean_difference(i), t.difference_weight(i)) for i in ids])
        out.append([t.is_symmetric_in(i, j) for i in ids for j in ids])
        out.append(t.is_monotone())
    return out


def test_masks_serve_every_shorter_table():
    # a mask widened for a larger arity must give the same results on small
    # tables as one built for their own arity
    rng = random.Random(1013)
    tables = [random_table(rng, rng.randint(1, 8)) for _ in range(60)]
    tables += [upward_closure(t) for t in tables[:20]]
    _zero_masks.clear()
    before = kernel_results(tables)
    wide = random_table(rng, 16)
    for i in range(1, 17):
        wide.boolean_difference(i)
    assert len(_zero_masks) == 16
    assert all(m.bit_length() >= 1 << 15 for m in _zero_masks.values())
    assert kernel_results(tables) == before


def test_mask_store_holds_one_mask_per_position():
    rng = random.Random(1014)
    _zero_masks.clear()
    for n in range(10, 21):
        table = random_table(rng, n)
        tbp_all(table)
        table.is_symmetric_in(1, n)
    assert sorted(_zero_masks) == list(range(20))
    assert sum(m.bit_length() for m in _zero_masks.values()) <= 20 << 20
