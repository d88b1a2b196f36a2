"""SOP grammar, sequential disjointing, and the three weight methods."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banzhaf import (
    MAX_DISJOINT_CUBES,
    MAX_SOP_CUBES,
    SopExpr,
    SopSyntaxError,
    TruthTable,
    VotingSystem,
    make_disjoint,
    parse_sop,
    sop_names,
    sop_to_tt,
    sop_weight_disjoint,
    sop_weight_ie,
    tt_to_minterm_sop,
)
from banzhaf.cli import format_sop
from reference import count_table, disjoint_cover, ie_weight, table_of

XYZ = ["X1", "X2", "X3"]
TWO_OF_THREE = "X1 X2 | X2 X3 | X1 X3"
EEC_NAMES = ["F", "G", "I", "B", "N", "L"]
EEC_SOP = "F G I | F G B N | F I B N | G I B N"


def cube(pos=(), neg=()):
    """The ``(pos, neg)`` literal masks of a cube given as variable index sets."""
    return sum(1 << i for i in set(pos)), sum(1 << i for i in set(neg))


def indices(mask):
    return {i for i in range(mask.bit_length()) if mask >> i & 1}


def cubes_as_sets(expr):
    return [(indices(p), indices(q)) for p, q in expr.cubes]


# -- parsing -------------------------------------------------------------------


def test_parse_basic_products():
    expr = parse_sop(TWO_OF_THREE, XYZ)
    assert expr.n == 3
    assert cubes_as_sets(expr) == [({1, 2}, set()), ({2, 3}, set()), ({1, 3}, set())]
    assert not expr.disjoint


def test_parse_six_variable_system_sop():
    expr = parse_sop(EEC_SOP, EEC_NAMES)
    assert expr.n == 6
    assert len(expr.cubes) == 4
    assert cubes_as_sets(expr)[0] == ({1, 2, 3}, set())
    # L is declared but never used; the table must not depend on it
    assert sop_to_tt(expr).is_vacuous_in(6)


def test_parse_complements_and_ampersand():
    expr = parse_sop("A' & B | C'", ["A", "B", "C"])
    assert cubes_as_sets(expr) == [({2}, {1}), (set(), {3})]


def test_parse_idempotent_literals_collapse():
    expr = parse_sop("X1 X1", XYZ[:1])
    assert cubes_as_sets(expr) == [({1}, set())]
    expr = parse_sop("X1' X1'", XYZ[:1])
    assert cubes_as_sets(expr) == [(set(), {1})]


def test_parse_contradiction_rejected():
    with pytest.raises(SopSyntaxError, match="contradictory"):
        parse_sop("X1 X1'", XYZ[:1])
    with pytest.raises(SopSyntaxError, match="contradictory"):
        parse_sop("X1' X1", XYZ[:1])


def test_parse_empty_text_is_constant_zero():
    expr = parse_sop("", XYZ)
    assert expr.cubes == ()
    assert sop_to_tt(expr) == TruthTable(3, 0)


def test_parse_constant_texts():
    # the whole text 0 or 1, as format_sop prints a constant
    assert parse_sop(" 0 ", XYZ).cubes == ()
    assert sop_to_tt(parse_sop("1", XYZ)) == count_table(3, (), {0})
    assert parse_sop("1", []).disjoint
    for text in ("1 | X1", "X1 0", "10", "0 | 1"):
        with pytest.raises(SopSyntaxError, match="unexpected character"):
            parse_sop(text, XYZ)


def test_parse_unknown_name_reports_position():
    with pytest.raises(SopSyntaxError, match="unknown variable") as info:
        parse_sop("X1 Y2", XYZ)
    assert info.value.position == 3


def test_parse_syntax_errors_have_positions():
    cases = [("X1 |", 4), ("| X1", 0), ("X1 & | X2", 5), ("X1 & & X2", 5), ("X1 & ", 5), ("X1 + X2", 3)]
    for text, pos in cases:
        with pytest.raises(SopSyntaxError) as info:
            parse_sop(text, XYZ)
        assert info.value.position == pos


def test_parse_quote_must_touch_name():
    with pytest.raises(SopSyntaxError):
        parse_sop("X1 '", XYZ)


def test_declared_order_wins_over_appearance():
    expr = parse_sop("B A", ["A", "B"])
    assert cubes_as_sets(expr) == [({1, 2}, set())]
    assert expr.n == 2


def test_sop_names_in_order_of_first_appearance():
    assert sop_names("B' & A | C A_1 | B") == ["B", "A", "C", "A_1"]
    assert sop_names("") == []
    assert sop_names("| & '") == []


def test_duplicate_or_invalid_names_rejected():
    with pytest.raises(ValueError):
        parse_sop("A", ["A", "A"])
    with pytest.raises(ValueError):
        parse_sop("A", ["A", "2B"])


# -- cubes ---------------------------------------------------------------------


def test_cube_rejects_contradiction():
    with pytest.raises(ValueError, match=r"contradictory literals for variable\(s\) \[1\]"):
        SopExpr(1, (cube({1}, {1}),))


def test_sop_expr_refuses_bits_outside_its_variables():
    # bit 0 would be X_0, which does not exist
    with pytest.raises(ValueError, match=r"variable index 0 out of range 1\.\.3"):
        SopExpr(3, (cube({1}), (0b1, 0)))
    with pytest.raises(ValueError, match=r"variable index 0 out of range 1\.\.3"):
        SopExpr(3, ((0, 0b1),))
    # bit n+1 is one variable past the last
    with pytest.raises(ValueError, match=r"variable index 4 out of range 1\.\.3"):
        SopExpr(3, (cube({1}, {4}),))
    with pytest.raises(ValueError, match=r"variable index 4 out of range 1\.\.3"):
        SopExpr.from_cubes(3, (cube({2}), cube({4})))
    # a clash anywhere is refused, also in a cube past an in-range one
    with pytest.raises(ValueError, match=r"contradictory literals for variable\(s\) \[2, 3\]"):
        SopExpr(3, (cube({1}), cube({2, 3}, {2, 3})))
    assert SopExpr(3, (cube({1, 3}, {2}),)).cubes == ((0b1010, 0b0100),)


def test_cube_weight_examples():
    # one cube covers 2**(n - literals) rows
    for n, c, weight in [(3, cube({1, 2}), 2), (4, cube(), 16), (3, cube({1, 3}, {2}), 1)]:
        assert sop_weight_disjoint(SopExpr(n, (c,), disjoint=True)) == weight
    with pytest.raises(ValueError):
        SopExpr(2, (cube({1, 2}, {3}),))


def test_certificate_is_computed_and_sound():
    expr = SopExpr.from_cubes(2, (cube({1}), cube((), {1})))
    assert expr.disjoint and expr.verify_disjoint()
    overlapping = SopExpr.from_cubes(2, (cube({1}), cube({2})))
    assert not overlapping.disjoint


# -- disjointing ----------------------------------------------------------------


def test_make_disjoint_reproduces_textbook_cover():
    expr = parse_sop(TWO_OF_THREE, XYZ)
    got = make_disjoint(expr)
    assert got.disjoint and got.verify_disjoint()
    assert cubes_as_sets(got) == [
        ({1, 2}, set()),
        ({2, 3}, {1}),
        ({1, 3}, {2}),
    ]


def test_make_disjoint_keeps_clashing_cube_whole():
    # X2' X3 clashes with X1 X2 and stays one cube; X1 X3 minus X1 X2 is
    # X1 X2' X3, which implies X2' X3 and so disappears
    got = make_disjoint(parse_sop("X1 X2 | X2' X3 | X1 X3", XYZ))
    assert got.verify_disjoint()
    assert cubes_as_sets(got) == [({1, 2}, set()), ({3}, {2})]


def test_make_disjoint_keeps_single_cube():
    expr = parse_sop("X1 X2", XYZ)
    assert make_disjoint(expr) is expr  # already certified disjoint


def test_make_disjoint_preserves_semantics():
    rng = random.Random(2001)
    for _ in range(300):
        expr = random_sop(rng)
        got = make_disjoint(expr)
        assert got.disjoint and got.verify_disjoint()
        assert sop_to_tt(got) == sop_to_tt(expr)


def chain_sop(m):
    """``a0 a1 | a2 a3 | ..`` with m cubes: disjointing gives 2**m - 1 cubes."""
    return " | ".join(f"a{2 * k} a{2 * k + 1}" for k in range(m))


def test_make_disjoint_cube_cap():
    names = [f"a{k}" for k in range(34)]
    assert len(make_disjoint(parse_sop(chain_sop(8), names[:16])).cubes) == 255
    assert 2**16 - 1 <= MAX_DISJOINT_CUBES < 2**17 - 1
    with pytest.raises(ValueError, match="MAX_DISJOINT_CUBES"):
        make_disjoint(parse_sop(chain_sop(17), names))


def test_make_disjoint_cap_counts_after_blockers_it_passes_over(monkeypatch):
    import banzhaf.sop as sop_module

    # X1' clashes with both earlier cubes, which leave 2 cubes; a third passes the cap
    expr = parse_sop("X1 X2 | X1 X3 | X1'", XYZ)
    assert len(make_disjoint(expr).cubes) == 3
    monkeypatch.setattr(sop_module, "MAX_DISJOINT_CUBES", 2)
    with pytest.raises(ValueError, match="disjointing cube 3 of 3 passes MAX_DISJOINT_CUBES = 2"):
        make_disjoint(expr)
    rng = random.Random(2006)
    refused = 0
    for _ in range(300):
        expr = random_sop(rng)
        if expr.disjoint:  # returned as it is, never counted
            continue
        cap = rng.randint(1, 8)
        monkeypatch.setattr(sop_module, "MAX_DISJOINT_CUBES", cap)
        try:
            want = disjoint_cover(expr.cubes, cap)
        except ValueError:
            refused += 1
            with pytest.raises(ValueError, match="MAX_DISJOINT_CUBES"):
                make_disjoint(expr)
        else:
            assert make_disjoint(expr).cubes == want
    assert refused > 20


def minterm_sop(n, m):
    """The minterms of rows 0..m-1 over ``a0..a{n-1}``, as SOP text, and those names."""
    names = [f"a{k}" for k in range(n)]
    terms = (
        " ".join(nm if row >> k & 1 else nm + "'" for k, nm in enumerate(names))
        for row in range(m)
    )
    return " | ".join(terms), names


def test_parse_sop_cube_cap(monkeypatch):
    assert MAX_SOP_CUBES == 4096
    expr = parse_sop(*minterm_sop(12, MAX_SOP_CUBES))  # all 4096 rows, pairwise disjoint
    assert expr.disjoint and len(expr.cubes) == MAX_SOP_CUBES

    def pairwise_test(self):
        raise AssertionError("the pairwise test ran past the cap")

    monkeypatch.setattr(SopExpr, "verify_disjoint", pairwise_test)
    with pytest.raises(ValueError, match="4097 cubes pass MAX_SOP_CUBES = 4096"):
        parse_sop(*minterm_sop(13, MAX_SOP_CUBES + 1))


def test_make_disjoint_on_six_variable_system_matches_table_weight():
    expr = parse_sop(EEC_SOP, EEC_NAMES)
    table = VotingSystem(12, (4, 4, 4, 2, 2, 1)).to_table()
    assert sop_to_tt(expr) == table
    assert sop_weight_disjoint(make_disjoint(expr)) == table.weight() == 14


# -- weights ---------------------------------------------------------------------


def test_disjoint_weight_of_textbook_cover():
    got = make_disjoint(parse_sop(TWO_OF_THREE, XYZ))
    assert sop_weight_disjoint(got) == 2 + 1 + 1


def test_disjoint_weight_of_empty_sop_is_zero():
    assert sop_weight_disjoint(parse_sop("", XYZ)) == 0


def test_disjoint_weight_requires_certificate():
    with pytest.raises(ValueError):
        sop_weight_disjoint(parse_sop(TWO_OF_THREE, XYZ))


def test_disjoint_weight_of_five_term_xor_factor():
    # five pairwise-disjoint products over B,N,D,E,L; frozen brute-force value 11
    text = "B N L | B N E L' | B N D E' L' | B' N D E | B D E N'"
    expr = parse_sop(text, ["B", "N", "D", "E", "L"])
    assert expr.disjoint  # certified on construction
    assert sop_weight_disjoint(expr) == 4 + 2 + 1 + 2 + 2 == sop_to_tt(expr).weight()


def test_ie_weight_of_two_of_three():
    expr = parse_sop(TWO_OF_THREE, XYZ)
    assert sop_weight_ie(expr) == 2 + 2 + 2 - 1 - 1 - 1 + 1


def test_ie_weight_single_and_duplicate_cubes():
    assert sop_weight_ie(parse_sop("X1 X2", XYZ)) == 2
    assert sop_weight_ie(parse_sop("X1 | X1", ["X1", "X2"])) == 2 + 2 - 2


def test_ie_weight_skips_clashing_subsets():
    # 20 distinct minterms over 5 variables clash pairwise, so the walk meets
    # only the 20 singletons instead of all 2**20 - 1 subsets
    full = frozenset(range(1, 6))
    minterms = [frozenset(i for i in full if k >> (i - 1) & 1) for k in range(20)]
    expr = SopExpr(5, tuple(cube(pos, full - pos) for pos in minterms))
    start = time.perf_counter()
    assert sop_weight_ie(expr) == 20
    assert time.perf_counter() - start < 0.1


def test_ie_weight_without_clashes_visits_every_subset():
    cubes = tuple(cube({i}) for i in range(1, 17))
    assert sop_weight_ie(SopExpr(16, cubes)) == 2**16 - 1


def test_ie_weight_cube_cap():
    cubes = tuple(cube({i}) for i in range(1, 22))
    expr = SopExpr(21, cubes)
    with pytest.raises(ValueError, match="limited"):
        sop_weight_ie(expr)


# -- conversions -------------------------------------------------------------------


def test_minterm_form_of_two_of_three():
    expr = tt_to_minterm_sop(sop_to_tt(parse_sop(TWO_OF_THREE, XYZ)))
    assert len(expr.cubes) == 4
    assert expr.disjoint
    assert all((p | q).bit_count() == 3 for p, q in expr.cubes)
    assert sop_weight_disjoint(expr) == 4


def test_minterm_round_trip():
    rng = random.Random(2003)
    for _ in range(100):
        n = rng.randint(0, 8)
        table = TruthTable(n, rng.getrandbits(1 << n))
        assert sop_to_tt(tt_to_minterm_sop(table)) == table


def test_minterm_form_cube_cap(monkeypatch):
    import banzhaf.sop as sop_module

    with pytest.raises(ValueError, match="MAX_DISJOINT_CUBES"):
        tt_to_minterm_sop(TruthTable(17, (1 << (1 << 17)) - 1))  # 2**17 true rows
    monkeypatch.setattr(sop_module, "MAX_DISJOINT_CUBES", 4)
    assert len(tt_to_minterm_sop(table_of([0, 1, 1, 1, 0, 1, 0, 0])).cubes) == 4
    with pytest.raises(ValueError, match="5 minterms"):
        tt_to_minterm_sop(table_of([0, 1, 1, 1, 0, 1, 0, 1]))


def test_sop_to_tt_rows_after_a_wider_table():
    # a 12-variable table first widens the shared row masks past 2**3 bits
    assert sop_to_tt(parse_sop("a0 a11'", [f"a{k}" for k in range(12)])).weight() == 2**10
    rows = [int(bool(j >> 2 & 1 and not j >> 1 & 1 or j & 1)) for j in range(8)]
    assert sop_to_tt(parse_sop("X1 X2' | X3", XYZ)) == table_of(rows)


def test_sum_rule_for_disjoint_functions():
    rng = random.Random(2004)
    for _ in range(100):
        n = rng.randint(1, 10)
        f1 = TruthTable(n, rng.getrandbits(1 << n))
        f2 = TruthTable(n, rng.getrandbits(1 << n) & ~f1.bits)
        assert TruthTable(n, f1.bits | f2.bits).weight() == f1.weight() + f2.weight()
        assert f1.bits ^ f2.bits == f1.bits | f2.bits


# -- the three methods agree -----------------------------------------------------


def random_sop(rng, max_n=10, max_cubes=8):
    n = rng.randint(1, max_n)
    cubes = []
    for _ in range(rng.randint(0, max_cubes)):
        count = rng.randint(0, min(n, 4))
        chosen = rng.sample(range(1, n + 1), count)
        pos = frozenset(v for v in chosen if rng.random() < 0.6)
        cubes.append(cube(pos, frozenset(chosen) - pos))
    return SopExpr.from_cubes(n, tuple(cubes))


def test_weight_methods_agree_on_random_sops():
    rng = random.Random(2005)
    for _ in range(300):
        expr = random_sop(rng)
        by_table = sop_to_tt(expr).weight()
        assert sop_weight_ie(expr) == by_table
        assert sop_weight_disjoint(make_disjoint(expr)) == by_table


@st.composite
def sops(draw, max_n=8, max_cubes=10, empty_cube=False):
    """Up to `max_cubes` cubes over n <= `max_n` variables, drawn with repeats
    from a pool, which holds the empty cube if `empty_cube` and a drawn flag say so."""
    n = draw(st.integers(0, max_n))
    literal = st.sampled_from(["", "pos", "neg"])
    pool = draw(
        st.lists(st.lists(literal, min_size=n, max_size=n), min_size=1, max_size=max_cubes)
    )
    if empty_cube and draw(st.booleans()):
        pool.append([""] * n)
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=max_cubes))
    cubes = [
        cube(
            (i for i, s in enumerate(pool[k], 1) if s == "pos"),
            (i for i, s in enumerate(pool[k], 1) if s == "neg"),
        )
        for k in picks
    ]
    return SopExpr.from_cubes(n, cubes)


@settings(max_examples=300, deadline=None)
@given(sops())
def test_weight_and_cover_properties(expr):
    table = sop_to_tt(expr)
    assert sop_weight_ie(expr) == table.weight()
    got = make_disjoint(expr)
    assert got.verify_disjoint()
    assert sop_to_tt(got) == table


@settings(max_examples=300, deadline=None)
@given(sops(max_n=12, max_cubes=14, empty_cube=True))
def test_cover_and_ie_weight_match_the_reference_kernels(expr):
    assert make_disjoint(expr).cubes == disjoint_cover(expr.cubes, MAX_DISJOINT_CUBES)
    assert sop_weight_ie(expr) == ie_weight(expr.n, expr.cubes)


@settings(max_examples=300, deadline=None)
@given(sops(), st.data())
def test_format_and_parse_round_trip(expr, data):
    # pins the mapping between mask bit i and the i-th declared name
    names = [f"v{i}" for i in range(1, expr.n + 1)]
    # an empty cube prints as "1", which reads back only as the whole text
    if expr.cubes == ((0, 0),) or all(p | q for p, q in expr.cubes):
        assert parse_sop(format_sop(expr, names), names).cubes == expr.cubes
    table = TruthTable(expr.n, data.draw(st.integers(0, (1 << (1 << expr.n)) - 1)))
    minterms = format_sop(tt_to_minterm_sop(table), names)
    assert sop_to_tt(parse_sop(minterms, names)) == table
