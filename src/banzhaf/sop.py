"""Cube and sum-of-products algebra with three independent weight methods.

A :class:`Cube` is a product term held as two index sets (uncomplemented and
complemented literals); a :class:`SopExpr` is an ordered OR of cubes over a
fixed variable count, carrying a certificate flag that says whether the cubes
are pairwise disjoint.  Disjointness is what makes weights (and probabilities)
add term-wise, so most of this module is about producing or exploiting it:

* :func:`make_disjoint` - sequential disjointing: each cube is multiplied by
  the expanded complements of all cubes before it.
* :func:`sop_weight_disjoint` - sum of ``2**(n - literals)`` over a disjoint
  cover.
* :func:`sop_weight_ie` - inclusion-exclusion over cube subsets; works on any
  SOP but is exponential in the cube count.
* :func:`real_transform_eval` - the multi-affine real polynomial that agrees
  with the function on 0/1 inputs; its value at the all-1/2 point times
  ``2**n`` recovers the weight exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .truthtable import N_MAX, TruthTable

#: Inclusion-exclusion enumerates all cube subsets; refuse anything bigger.
MAX_IE_CUBES = 20

#: Sequential disjointing can double the cube count with every input cube
#: (``a0 a1 | a2 a3 | ..`` with m cubes gives 2**m - 1), and a minterm form
#: has one cube per true row; refuse to hold more.
MAX_DISJOINT_CUBES = 1 << 16


class SopSyntaxError(ValueError):
    """Raised for malformed SOP text; `position` is a 0-based text offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Cube:
    """A product term: `pos` holds uncomplemented, `neg` complemented indices."""

    pos: frozenset[int]
    neg: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pos", frozenset(self.pos))
        object.__setattr__(self, "neg", frozenset(self.neg))
        clash = self.pos & self.neg
        if clash:
            raise ValueError(f"contradictory literals for variable(s) {sorted(clash)}")

    @property
    def literal_count(self) -> int:
        return len(self.pos) + len(self.neg)

    def clashes(self, other: "Cube") -> bool:
        """True iff the two products cannot be simultaneously 1."""
        return bool(self.pos & other.neg or self.neg & other.pos)

    def conjoin(self, other: "Cube") -> Optional["Cube"]:
        """Product of two cubes, or None when some literal pair clashes."""
        if self.clashes(other):
            return None
        return Cube(self.pos | other.pos, self.neg | other.neg)


def cube_weight(cube: Cube, n: int) -> int:
    """Number of rows a single cube covers: ``2**(n - literal_count)``."""
    free = n - cube.literal_count
    if free < 0:
        raise ValueError(f"cube uses more than {n} distinct variables")
    return 1 << free


@dataclass(frozen=True)
class SopExpr:
    """Ordered OR of cubes over variables ``1..n`` with a disjointness flag."""

    n: int
    cubes: tuple[Cube, ...]
    disjoint: bool = field(default=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "cubes", tuple(self.cubes))
        for c in self.cubes:
            for i in c.pos | c.neg:
                if not 1 <= i <= self.n:
                    raise ValueError(f"variable index {i} out of range 1..{self.n}")

    @classmethod
    def from_cubes(cls, n: int, cubes: Sequence[Cube]) -> "SopExpr":
        """Build an expression, computing the disjointness certificate."""
        expr = cls(n, tuple(cubes), disjoint=False)
        return cls(n, expr.cubes, disjoint=expr.verify_disjoint())

    def verify_disjoint(self) -> bool:
        """Pairwise check that every two cubes clash on some variable."""
        for a, b in combinations(self.cubes, 2):
            if not a.clashes(b):
                return False
        return True


# -- parsing ---------------------------------------------------------------

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\S")


def sop_names(text: str) -> list[str]:
    """Variable names in SOP text, in order of first appearance."""
    return list(dict.fromkeys(t for t in _TOKEN.findall(text) if _NAME.fullmatch(t)))


def parse_sop(text: str, names: Sequence[str]) -> SopExpr:
    """Parse SOP text over the declared variable name list.

    Grammar: terms are literals joined by ``&`` or plain whitespace, ORed with
    ``|``; a ``'`` directly after a name complements that literal.  Variable
    order (and hence the expression's arity) comes from `names`, not from
    order of appearance.  Repeated literals inside a term collapse; a
    contradictory term is an error.  Empty input denotes the constant-0
    function.
    """
    index: dict[str, int] = {}
    for k, name in enumerate(names):
        if not _NAME.fullmatch(name):
            raise ValueError(f"invalid variable name {name!r}")
        if name in index:
            raise ValueError(f"duplicate variable name {name!r}")
        index[name] = k + 1
    n = len(index)

    tokens = [(m.group(0), m.start()) for m in _TOKEN.finditer(text)]
    cubes: list[Cube] = []
    pos: set[int] = set()
    neg: set[int] = set()
    term_open = False  # a literal has been read since the last '|'
    pending_and = False  # an '&' is waiting for its right operand
    k = 0
    while k < len(tokens):
        tok, at = tokens[k]
        if tok == "|":
            if pending_and:
                raise SopSyntaxError("'&' without a right operand", at)
            if not term_open:
                raise SopSyntaxError("empty product term", at)
            cubes.append(Cube(frozenset(pos), frozenset(neg)))
            pos, neg = set(), set()
            term_open = False
        elif tok == "&":
            if not term_open:
                raise SopSyntaxError("'&' without a left operand", at)
            pending_and = True
        elif tok == "'":
            raise SopSyntaxError("complement mark must directly follow a name", at)
        elif _NAME.fullmatch(tok):
            if tok not in index:
                raise SopSyntaxError(f"unknown variable name {tok!r}", at)
            v = index[tok]
            complemented = False
            if k + 1 < len(tokens) and tokens[k + 1] == ("'", at + len(tok)):
                complemented = True
                k += 1
            if v in (pos if complemented else neg):
                raise SopSyntaxError("contradictory product", at)
            (neg if complemented else pos).add(v)
            term_open = True
            pending_and = False
        else:
            raise SopSyntaxError(f"unexpected character {tok!r}", at)
        k += 1

    if pending_and:
        raise SopSyntaxError("'&' without a right operand", len(text))
    if term_open:
        cubes.append(Cube(frozenset(pos), frozenset(neg)))
    elif cubes:
        raise SopSyntaxError("trailing '|' without a term", len(text))
    return SopExpr.from_cubes(n, cubes)


# -- disjointing ------------------------------------------------------------


def _times_complement(cube: Cube, blocker: Cube) -> list[Cube]:
    """Expand ``cube & ~blocker`` into disjoint cubes, one literal at a time.

    The complement of a product ``l1 l2 .. lk`` is the disjoint OR of
    ``~l1``, ``l1 ~l2``, ..., ``l1 .. l(k-1) ~lk``; multiplying by `cube`
    and dropping contradictions yields the expansion.
    """
    out: list[Cube] = []
    acc_pos, acc_neg = set(cube.pos), set(cube.neg)
    literals = sorted([(v, True) for v in blocker.pos] + [(v, False) for v in blocker.neg])
    for v, positive in literals:
        if positive:
            if v in acc_pos:
                continue  # the negated term dies; the prefix literal is absorbed
            if v in acc_neg:
                out.append(Cube(frozenset(acc_pos), frozenset(acc_neg)))
                return out  # cube already avoids blocker; later terms all die
            out.append(Cube(frozenset(acc_pos), frozenset(acc_neg | {v})))
            acc_pos.add(v)
        else:
            if v in acc_neg:
                continue
            if v in acc_pos:
                out.append(Cube(frozenset(acc_pos), frozenset(acc_neg)))
                return out
            out.append(Cube(frozenset(acc_pos | {v}), frozenset(acc_neg)))
            acc_neg.add(v)
    return out  # cube implies blocker: the product with ~blocker is empty


def make_disjoint(expr: SopExpr) -> SopExpr:
    """Rewrite an SOP as an equivalent disjoint one by sequential disjointing.

    Cube k is replaced by its products with the expanded complements of cubes
    1..k-1, in list order; no reordering heuristic is applied, so the output
    is deterministic.  Already-disjoint input (including any single cube) is
    returned unchanged.  Raises ``ValueError`` as soon as the cubes produced
    would exceed :data:`MAX_DISJOINT_CUBES`.
    """
    if expr.disjoint:
        return expr
    out: list[Cube] = []
    for k, cube in enumerate(expr.cubes):
        fragments = [cube]
        for blocker in expr.cubes[:k]:
            fragments = [piece for f in fragments for piece in _times_complement(f, blocker)]
            if not fragments:
                break
            if len(out) + len(fragments) > MAX_DISJOINT_CUBES:
                raise ValueError(
                    f"disjointing cube {k + 1} of {len(expr.cubes)} passes "
                    f"MAX_DISJOINT_CUBES = {MAX_DISJOINT_CUBES} cubes"
                )
        out.extend(fragments)
    return SopExpr(expr.n, tuple(out), disjoint=True)


# -- weight computation ------------------------------------------------------


def sop_weight_disjoint(expr: SopExpr) -> int:
    """Weight of a certified-disjoint SOP: cube weights simply add."""
    if not expr.disjoint:
        raise ValueError("expression is not certified disjoint; run make_disjoint first")
    return sum(cube_weight(c, expr.n) for c in expr.cubes)


def sop_weight_ie(expr: SopExpr) -> int:
    """Weight by inclusion-exclusion over all nonempty cube subsets.

    Works on arbitrary (overlapping) SOPs; subsets whose conjunction clashes
    contribute nothing.  Cost is ``2**len(cubes)``, hence the hard cap.
    """
    m = len(expr.cubes)
    if m > MAX_IE_CUBES:
        raise ValueError(f"inclusion-exclusion limited to {MAX_IE_CUBES} cubes, got {m}")
    total = 0
    for r in range(1, m + 1):
        sign = 1 if r % 2 else -1
        for subset in combinations(expr.cubes, r):
            merged = subset[0]
            for c in subset[1:]:
                merged = merged.conjoin(c)
                if merged is None:
                    break
            if merged is not None:
                total += sign * cube_weight(merged, expr.n)
    return total


def real_transform_eval(expr: SopExpr, p: Sequence) -> "Fraction | float":
    """Evaluate the real (probability) transform of a disjoint SOP at `p`.

    ANDs become products, ORs sums, ``X_i`` becomes ``p[i-1]`` and its
    complement ``1 - p[i-1]``; disjointness is what makes the plain sum
    correct.  Exactness follows the input type: pass `Fraction` entries for
    exact arithmetic, floats for fast approximate evaluation.
    """
    if not expr.disjoint:
        raise ValueError("the term-wise sum is only valid for a disjoint SOP")
    if len(p) != expr.n:
        raise ValueError(f"expected {expr.n} probabilities, got {len(p)}")
    for v in p:
        if not 0 <= v <= 1:
            raise ValueError(f"probability {v!r} outside [0, 1]")
    total = 0
    for cube in expr.cubes:
        term = 1
        for i in cube.pos:
            term = term * p[i - 1]
        for i in cube.neg:
            term = term * (1 - p[i - 1])
        total = total + term
    return total


def sop_weight_real(expr: SopExpr) -> int:
    """Weight via the real transform at the all-1/2 point, in exact rationals."""
    half = [Fraction(1, 2)] * expr.n
    scaled = real_transform_eval(expr, half) * (1 << expr.n)
    assert scaled.denominator == 1
    return int(scaled)


# -- conversions --------------------------------------------------------------


def sop_to_tt(expr: SopExpr) -> TruthTable:
    """Dense truth table of an SOP (any overlap allowed)."""
    if expr.n > N_MAX:
        raise ValueError(f"arity {expr.n} exceeds dense-table limit {N_MAX}")
    result = TruthTable.constant(expr.n, 0)
    for cube in expr.cubes:
        term = TruthTable.constant(expr.n, 1)
        for i in cube.pos:
            term = term & TruthTable.variable(expr.n, i)
        for i in cube.neg:
            term = term & ~TruthTable.variable(expr.n, i)
        result = result | term
    return result


def tt_to_minterm_sop(table: TruthTable) -> SopExpr:
    """Minterm canonical form: one full-length cube per true row.

    Disjoint by construction, so the certificate is set without the pairwise
    check.  Raises ``ValueError`` past :data:`MAX_DISJOINT_CUBES` true rows.
    """
    n = table.n
    if table.weight() > MAX_DISJOINT_CUBES:
        raise ValueError(
            f"{table.weight()} minterms pass MAX_DISJOINT_CUBES = {MAX_DISJOINT_CUBES}"
        )
    cubes = []
    bits = table.bits
    while bits:
        low = bits & -bits
        bits ^= low
        j = low.bit_length() - 1
        pos = frozenset(i for i in range(1, n + 1) if (j >> (n - i)) & 1)
        cubes.append(Cube(pos, frozenset(range(1, n + 1)) - pos))
    return SopExpr(n, tuple(cubes), disjoint=True)
