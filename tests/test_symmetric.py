"""Characteristic-set calculus, checked semantically against dense tables."""

import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banzhaf import SymFn, TruthTable, parse_sop, parse_sym, sop_to_tt


def random_symfn(rng, max_n=10):
    n = rng.randint(1, max_n)
    charset = frozenset(a for a in range(n + 1) if rng.random() < 0.5)
    return SymFn(n, charset)


def test_charset_validation():
    with pytest.raises(ValueError):
        SymFn(3, {4})
    with pytest.raises(ValueError):
        SymFn(-1, set())
    SymFn(0, {0})  # constant 1 of zero inputs is fine


def test_boundary_constants():
    assert SymFn(4, range(5)).is_constant_one()
    assert SymFn(4, range(5)).to_table() == TruthTable.constant(4, 1)
    assert SymFn(4, ()).is_constant_zero()
    assert SymFn(4, ()).to_table() == TruthTable.constant(4, 0)


def test_complement_flips_charset():
    assert ~SymFn(3, {2, 3}) == SymFn(3, {0, 1})
    assert ~SymFn(3, {0, 1, 2, 3}) == SymFn(3, ())


def test_connectives_are_set_algebra():
    a, b = SymFn(3, {3}), SymFn(3, {2, 3})
    assert (a & b) == SymFn(3, {3})
    assert (a | SymFn(3, {2})) == SymFn(3, {2, 3})
    assert (b ^ a) == SymFn(3, {2})
    with pytest.raises(ValueError):
        a & SymFn(4, {2})


def test_connectives_match_tables():
    rng = random.Random(3001)
    for _ in range(200):
        n = rng.randint(1, 10)
        f, g = SymFn(n, _charset(rng, n)), SymFn(n, _charset(rng, n))
        assert (~f).to_table() == ~f.to_table()
        assert (f & g).to_table() == f.to_table() & g.to_table()
        assert (f | g).to_table() == f.to_table() | g.to_table()
        assert (f ^ g).to_table() == f.to_table() ^ g.to_table()


def _charset(rng, n):
    return frozenset(a for a in range(n + 1) if rng.random() < 0.5)


def test_expand_worked_examples():
    assert SymFn(3, {2, 3}).expand() == (frozenset({2}), frozenset({1, 2}))
    assert SymFn(4, {3}).expand() == (frozenset({3}), frozenset({2}))
    n = 5
    b, c = SymFn(n, range(n + 1)).expand()
    assert b == c == frozenset(range(n))
    with pytest.raises(ValueError):
        SymFn(0, {0}).expand()


def test_expand_matches_cofactors_of_table():
    rng = random.Random(3002)
    for _ in range(200):
        f = random_symfn(rng, max_n=8)
        b, c = f.expand()
        table = f.to_table()
        m = rng.randint(1, f.n)
        assert table.restrict(m, 0) == SymFn(f.n - 1, b).to_table()
        assert table.restrict(m, 1) == SymFn(f.n - 1, c).to_table()


def test_expansion_identity_reconstructs_function():
    # f == ~Xm & cofactor0  xor  Xm & cofactor1, with the cofactors re-expanded
    rng = random.Random(3003)
    for _ in range(100):
        f = random_symfn(rng, max_n=8)
        b, c = f.expand()
        n, m = f.n, rng.randint(1, f.n)
        x = TruthTable.variable(n, m)
        others = [k for k in range(1, n + 1) if k != m]
        low = SymFn(n - 1, b).to_table(others, n)
        high = SymFn(n - 1, c).to_table(others, n)
        assert (~x & low) ^ (x & high) == f.to_table()


def test_derivative_worked_examples():
    assert SymFn(3, {2, 3}).derivative() == SymFn(2, {1})
    assert SymFn(4, {3}).derivative() == SymFn(3, {2, 3})
    assert SymFn(5, range(6)).derivative() == SymFn(4, ())
    with pytest.raises(ValueError):
        SymFn(0, ()).derivative()


def test_derivative_matches_boolean_difference():
    rng = random.Random(3004)
    for _ in range(200):
        f = random_symfn(rng, max_n=9)
        table = f.to_table()
        expected = f.derivative().to_table()
        for m in range(1, f.n + 1):
            assert table.boolean_difference(m) == expected


def test_weight_worked_examples():
    assert SymFn(3, {2, 3}).weight() == comb(3, 2) + comb(3, 3) == 4
    assert SymFn(7, ()).weight() == 0
    assert SymFn(5, range(6)).weight() == 32


def test_weight_matches_table():
    rng = random.Random(3005)
    for _ in range(200):
        f = random_symfn(rng)
        assert f.weight() == f.to_table().weight()


def test_tbp_worked_examples():
    assert SymFn(3, {2, 3}).tbp() == comb(2, 1) == 2
    assert SymFn(6, range(7)).tbp() == 0
    assert SymFn(6, ()).tbp() == 0
    assert SymFn(5, {3, 4, 5}).tbp() == 6


def test_tbp_of_three_of_five_by_exhaustive_swing_count():
    swings = 0
    for row in range(1 << 5):
        votes = [(row >> k) & 1 for k in range(5)]
        if votes[0] == 1 and sum(votes) >= 3 and sum(votes) - 1 < 3:
            swings += 1
    assert swings == SymFn(5, {3, 4, 5}).tbp() == 6


def test_every_voter_of_a_symmetric_rule_has_equal_power():
    # hence the normalized power is exactly 1/n whenever it is nonzero
    rng = random.Random(3006)
    for _ in range(100):
        f = random_symfn(rng, max_n=9)
        table = f.to_table()
        weights = {table.boolean_difference(m).weight() for m in range(1, f.n + 1)}
        assert weights == {f.tbp()}


def test_placement_realizes_embedded_functions():
    # exactly-3-of-(F,G,I) inside six variables is the product cube FGI
    cube = sop_to_tt(parse_sop("F G I", ["F", "G", "I", "B", "N", "L"]))
    assert SymFn(3, {3}).to_table(placement=(1, 2, 3), n_total=6) == cube
    assert SymFn(2, {0, 1, 2}).to_table(placement=(2, 5), n_total=6) == TruthTable.constant(6, 1)


@st.composite
def placed_functions(draw):
    n_total = draw(st.integers(0, 10))
    placement = draw(st.permutations(range(1, n_total + 1)))
    placement = placement[: draw(st.integers(0, n_total))]
    charset = draw(st.sets(st.integers(0, len(placement))))
    return SymFn(len(placement), charset), tuple(placement), n_total


@settings(max_examples=300, deadline=None)
@given(placed_functions())
def test_placement_value_depends_only_on_placed_count(case):
    f, placement, n_total = case
    table = f.to_table(placement, n_total)
    assert table.n == n_total
    for j in range(1 << n_total):
        ones = sum((j >> (n_total - i)) & 1 for i in placement)
        assert table.row(j) == (1 if ones in f.charset else 0)
    for i in range(1, n_total + 1):
        if i not in placement:
            assert table.is_vacuous_in(i)


def test_placement_validation():
    with pytest.raises(ValueError):
        SymFn(2, {1}).to_table(placement=(1,), n_total=3)
    with pytest.raises(ValueError):
        SymFn(2, {1}).to_table(placement=(1, 1), n_total=3)
    with pytest.raises(ValueError):
        SymFn(2, {1}).to_table(placement=(1, 4), n_total=3)


def test_textual_round_trip():
    f = SymFn(3, {2, 3})
    assert f.format() == "Sy(3; {2,3}; X1,X2,X3)"
    assert str(SymFn(2, ())) == "Sy(2; {}; X1,X2)"
    parsed, names = parse_sym("Sy(3; {2,3}; F,G,I)")
    assert parsed == f
    assert names == ("F", "G", "I")
    parsed, names = parse_sym(" Sy ( 4 ;  { 0 , 2 } ) ")
    assert parsed == SymFn(4, {0, 2})
    assert names is None


def test_textual_parse_errors():
    for bad in [
        "Sy(3; 2,3)", "Sy(3; {2,3}; F,G)", "sy(3; {1})", "Sy(x; {1})",
        "Sy(2; {1}; A,A)", "Sy(2; {1}; A, 1x)",
    ]:
        with pytest.raises(ValueError):
            parse_sym(bad)
