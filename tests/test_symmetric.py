"""Symmetric switching functions, checked on the package's dense tables.

A symmetric function of ``n`` inputs is 1 exactly when the number of
1-inputs lies in its characteristic set ``A``, a subset of ``0..n``.  The
characteristic-set calculus predicts each table operation in small-set and
binomial arithmetic:

* cofactoring about any variable leaves ``B = {a in A : a < n}`` with that
  input at 0 and ``C = {a - 1 : a in A, a >= 1}`` with it at 1;
* the Boolean difference about any variable is the symmetric function of
  ``n - 1`` inputs with set ``B ^ C``;
* the weight is the sum of ``C(n, a)`` over ``A``.

The tables are built row by row by `reference.count_table`, so none of these
predictions shares code with the kernels it checks.
"""

import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banzhaf import TruthTable, parse_sop, sop_to_tt, tbp_all
from reference import count_table, lift


def sym(n, charset):
    """The symmetric function of all n variables with characteristic set `charset`."""
    return count_table(n, range(1, n + 1), charset)


def cofactor_sets(n, charset):
    """(B, C): the characteristic sets of the cofactors about any one variable."""
    return (
        frozenset(a for a in charset if a < n),
        frozenset(a - 1 for a in charset if a >= 1),
    )


def random_charset(rng, n):
    return frozenset(a for a in range(n + 1) if rng.random() < 0.5)


def test_boundary_constants():
    one, zero = sym(4, range(5)), sym(4, ())
    assert one == TruthTable(4, (1 << 16) - 1)
    assert zero == TruthTable(4, 0)
    for constant in (one, zero):
        assert all(constant.is_vacuous_in(i) for i in range(1, 5))
        assert tbp_all(constant) == (0, 0, 0, 0)


def test_expand_worked_examples():
    for m in (1, 2, 3):
        assert sym(3, {2, 3}).restrict(m, 0) == sym(2, {2})
        assert sym(3, {2, 3}).restrict(m, 1) == sym(2, {1, 2})
    for m in (1, 2, 3, 4):
        assert sym(4, {3}).restrict(m, 0) == sym(3, {3})
        assert sym(4, {3}).restrict(m, 1) == sym(3, {2})
    for v in (0, 1):
        assert sym(5, range(6)).restrict(3, v) == sym(4, range(5))


def test_expand_matches_cofactors_of_table():
    rng = random.Random(3002)
    for _ in range(200):
        n = rng.randint(1, 8)
        charset = random_charset(rng, n)
        b, c = cofactor_sets(n, charset)
        table = sym(n, charset)
        m = rng.randint(1, n)
        assert table.restrict(m, 0) == sym(n - 1, b)
        assert table.restrict(m, 1) == sym(n - 1, c)


def test_expansion_identity_reconstructs_function():
    # f == ~Xm & cofactor0 | Xm & cofactor1, each cofactor lifted back to n
    # variables by the package's restrict and the set calculus alike
    rng = random.Random(3003)
    for _ in range(100):
        n = rng.randint(1, 8)
        charset = random_charset(rng, n)
        b, c = cofactor_sets(n, charset)
        m = rng.randint(1, n)
        others = [k for k in range(1, n + 1) if k != m]
        low, high = count_table(n, others, b).bits, count_table(n, others, c).bits
        table = sym(n, charset)
        assert lift(table.restrict(m, 0), m).bits == low
        assert lift(table.restrict(m, 1), m).bits == high
        x = count_table(n, (m,), {1}).bits
        assert table.bits == (low & ~x) | (high & x)


def test_derivative_worked_examples():
    for m in (1, 2, 3):
        assert sym(3, {2, 3}).boolean_difference(m) == sym(2, {1})
    for m in (1, 2, 3, 4):
        assert sym(4, {3}).boolean_difference(m) == sym(3, {2, 3})
    assert sym(5, range(6)).boolean_difference(5) == TruthTable(4, 0)
    with pytest.raises(ValueError):
        sym(0, ()).boolean_difference(1)


def test_derivative_matches_boolean_difference():
    rng = random.Random(3004)
    for _ in range(200):
        n = rng.randint(1, 9)
        charset = random_charset(rng, n)
        b, c = cofactor_sets(n, charset)
        table, expected = sym(n, charset), sym(n - 1, b ^ c)
        for m in range(1, n + 1):
            assert table.boolean_difference(m) == expected


def test_weight_worked_examples():
    assert sym(3, {2, 3}).weight() == comb(3, 2) + comb(3, 3) == 4
    assert sym(7, ()).weight() == 0
    assert sym(5, range(6)).weight() == 32


def test_weight_matches_table():
    rng = random.Random(3005)
    for _ in range(100):
        n = rng.randint(0, 10)
        charset = random_charset(rng, n)
        assert sym(n, charset).weight() == sum(comb(n, a) for a in charset)


def test_tbp_worked_examples():
    assert tbp_all(sym(3, {2, 3})) == (comb(2, 1),) * 3 == (2, 2, 2)
    assert tbp_all(sym(6, range(7))) == (0,) * 6
    assert tbp_all(sym(6, ())) == (0,) * 6
    assert tbp_all(sym(5, {3, 4, 5})) == (6,) * 5


def test_tbp_of_three_of_five_by_exhaustive_swing_count():
    swings = 0
    for row in range(1 << 5):
        votes = [(row >> k) & 1 for k in range(5)]
        if votes[0] == 1 and sum(votes) >= 3 and sum(votes) - 1 < 3:
            swings += 1
    assert swings == tbp_all(sym(5, {3, 4, 5}))[0] == 6


def test_every_voter_of_a_symmetric_rule_has_equal_power():
    # hence the normalized power is exactly 1/n whenever it is nonzero
    rng = random.Random(3006)
    for _ in range(100):
        n = rng.randint(1, 9)
        charset = random_charset(rng, n)
        b, c = cofactor_sets(n, charset)
        table = sym(n, charset)
        weights = {table.difference_weight(m) for m in range(1, n + 1)}
        assert weights == {sum(comb(n - 1, a) for a in b ^ c)}
        assert len(set(tbp_all(table))) == 1


def test_placement_realizes_embedded_functions():
    # exactly-3-of-(F,G,I) inside six variables is the product cube FGI
    names = ["F", "G", "I", "B", "N", "L"]
    assert sop_to_tt(parse_sop("F G I", names)) == count_table(6, (1, 2, 3), {3})
    assert sop_to_tt(parse_sop("G | N", names)) == count_table(6, (2, 5), {1, 2})


@st.composite
def placed_tables(draw):
    n_total = draw(st.integers(0, 10))
    placement = draw(st.permutations(range(1, n_total + 1)))
    placement = placement[: draw(st.integers(0, n_total))]
    charset = draw(st.sets(st.integers(0, len(placement))))
    return n_total, tuple(placement), frozenset(charset)


@settings(max_examples=300, deadline=None)
@given(placed_tables())
def test_placement_value_depends_only_on_placed_count(case):
    # such a table is symmetric in the placed variables, vacuous in the
    # others, and weighs the binomial sum over its set, once per row of the
    # others; its Boolean difference about any placed variable is the
    # derivative set over the other placed variables, renumbered
    n_total, placement, charset = case
    table = count_table(n_total, placement, charset)
    m = len(placement)
    b, c = cofactor_sets(m, charset)
    for i in placement:
        rest = [k - (k > i) for k in placement if k != i]
        assert table.boolean_difference(i) == count_table(n_total - 1, rest, b ^ c)
    assert all(table.is_symmetric_in(i, j) for i in placement for j in placement)
    assert all(table.is_vacuous_in(i) for i in range(1, n_total + 1) if i not in placement)
    assert table.weight() == sum(comb(m, a) for a in charset) << (n_total - m)
