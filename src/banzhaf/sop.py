"""Cube and sum-of-products algebra with three independent weight methods.

A :class:`Cube` is a product term held as two index sets (uncomplemented and
complemented literals); a :class:`SopExpr` is an ordered OR of cubes over a
fixed variable count, carrying a certificate flag that says whether the cubes
are pairwise disjoint.  Disjointness is what makes weights (and probabilities)
add term-wise, so most of this module is about producing or exploiting it:

* :func:`make_disjoint` - sequential disjointing: each cube is multiplied by
  the expanded complements of all cubes before it, except that a piece which
  already clashes with a blocker is kept whole.
* :func:`sop_weight_disjoint` - sum of ``2**(n - literals)`` over a disjoint
  cover.
* :func:`sop_weight_ie` - inclusion-exclusion over cube subsets; works on any
  SOP.  The walk skips every extension of a clashing subset, so its cost is
  the number of subsets whose conjunction does not clash (``2**m - 1`` only
  when no two of the m cubes clash).
* :func:`real_transform_eval` - the multi-affine real polynomial that agrees
  with the function on 0/1 inputs; its value at the all-1/2 point times
  ``2**n`` recovers the weight exactly.

The two exponential kernels work on literal bit masks ``(pos, neg)`` with
bit i for ``X_i``: a conjunction is one OR per side and a clash is
``pos & neg``.  Cubes are converted once on the way in and once on the way
out.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .truthtable import N_MAX, TruthTable

#: Inclusion-exclusion visits up to every cube subset; refuse anything bigger.
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


def cube_weight(cube: Cube, n: int) -> int:
    """Number of rows a single cube covers: ``2**(n - literal_count)``."""
    free = n - cube.literal_count
    if free < 0:
        raise ValueError(f"cube uses more than {n} distinct variables")
    return 1 << free


def _masks(cube: Cube) -> tuple[int, int]:
    """The cube's literals as bit masks ``(pos, neg)``, bit i for ``X_i``."""
    return sum(1 << i for i in cube.pos), sum(1 << i for i in cube.neg)


def _indices(mask: int) -> frozenset[int]:
    """The variable indices whose bits are set in `mask`."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


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


def variable_index(names: Sequence[str]) -> dict[str, int]:
    """Map each declared variable name to its 1-based position.

    A variable name is a letter or ``_`` followed by letters, digits or
    ``_``; an invalid or repeated name is a ValueError.
    """
    index: dict[str, int] = {}
    for k, name in enumerate(names):
        if not _NAME.fullmatch(name):
            raise ValueError(f"invalid variable name {name!r}")
        if name in index:
            raise ValueError(f"duplicate variable name {name!r}")
        index[name] = k + 1
    return index


def parse_sop(text: str, names: Sequence[str]) -> SopExpr:
    """Parse SOP text over the declared variable name list.

    Grammar: terms are literals joined by ``&`` or plain whitespace, ORed with
    ``|``; a ``'`` directly after a name complements that literal.  Variable
    order (and hence the expression's arity) comes from `names`, not from
    order of appearance.  Repeated literals inside a term collapse; a
    contradictory term is an error.  Empty input denotes the constant-0
    function.
    """
    index = variable_index(names)
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


def _times_complement(p: int, q: int, bp: int, bq: int) -> list[tuple[int, int]]:
    """Expand ``(p, q) & ~(bp, bq)`` into disjoint mask pairs.

    A piece that already clashes with the blocker avoids it and is kept
    whole.  Otherwise the complement of the blocker's missing literals
    ``l1 l2 .. lk`` (in variable order) is the disjoint OR of ``~l1``,
    ``l1 ~l2``, ..., ``l1 .. l(k-1) ~lk``; the blocker's literals that the
    piece already holds are absorbed, and a piece that holds them all
    implies the blocker and yields nothing.
    """
    if p & bq or q & bp:
        return [(p, q)]
    out = []
    missing = (bp & ~p) | (bq & ~q)
    while missing:
        v = missing & -missing
        missing ^= v
        if v & bp:
            out.append((p, q | v))
            p |= v
        else:
            out.append((p | v, q))
            q |= v
    return out


def make_disjoint(expr: SopExpr) -> SopExpr:
    """Rewrite an SOP as an equivalent disjoint one by sequential disjointing.

    Cube k is replaced by its products with the expanded complements of cubes
    1..k-1, in list order; no reordering heuristic is applied, so the output
    is deterministic.  A piece that already clashes with a blocker avoids it
    and is kept whole, not cut at each of the blocker's literals before the
    clash, so later blockers multiply one piece instead of several.
    Already-disjoint input (including any single cube) is returned
    unchanged.  Raises ``ValueError`` as soon as the cubes produced would
    exceed :data:`MAX_DISJOINT_CUBES`.
    """
    if expr.disjoint:
        return expr
    masks = [_masks(c) for c in expr.cubes]
    out: list[tuple[int, int]] = []
    for k, cube in enumerate(masks):
        fragments = [cube]
        for bp, bq in masks[:k]:
            fragments = [piece for p, q in fragments for piece in _times_complement(p, q, bp, bq)]
            if not fragments:
                break
            if len(out) + len(fragments) > MAX_DISJOINT_CUBES:
                raise ValueError(
                    f"disjointing cube {k + 1} of {len(expr.cubes)} passes "
                    f"MAX_DISJOINT_CUBES = {MAX_DISJOINT_CUBES} cubes"
                )
        out.extend(fragments)
    cubes = tuple(Cube(_indices(p), _indices(q)) for p, q in out)
    return SopExpr(expr.n, cubes, disjoint=True)


# -- weight computation ------------------------------------------------------


def sop_weight_disjoint(expr: SopExpr) -> int:
    """Weight of a certified-disjoint SOP: cube weights simply add."""
    if not expr.disjoint:
        raise ValueError("expression is not certified disjoint; run make_disjoint first")
    return sum(cube_weight(c, expr.n) for c in expr.cubes)


def sop_weight_ie(expr: SopExpr) -> int:
    """Weight by inclusion-exclusion over the nonempty cube subsets.

    Works on arbitrary (overlapping) SOPs.  The subsets are walked depth
    first, each one extended only by cubes after its last, so every subset
    is met once and its conjunction is one OR of bit masks on top of its
    parent's.  A subset whose conjunction clashes contributes nothing, and
    so does every subset that extends it, so its whole subtree is skipped.
    The cost is the number of subsets that do not clash: ``2**m - 1`` when
    no two of the m cubes clash, hence the hard cap.
    """
    m = len(expr.cubes)
    if m > MAX_IE_CUBES:
        raise ValueError(f"inclusion-exclusion limited to {MAX_IE_CUBES} cubes, got {m}")
    masks = [_masks(c) for c in expr.cubes]
    n = expr.n
    total = 0
    # (first cube the subset may add, its pos and neg masks, sign one cube larger)
    stack = [(0, 0, 0, 1)]
    while stack:
        start, p, q, sign = stack.pop()
        for j in range(start, m):
            cp, cq = masks[j]
            jp, jq = p | cp, q | cq
            if jp & jq:
                continue
            total += sign << (n - (jp | jq).bit_count())
            if j + 1 < m:
                stack.append((j + 1, jp, jq, -sign))
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
