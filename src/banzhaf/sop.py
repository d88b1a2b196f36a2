"""Sum-of-products algebra on literal bit masks, with two independent weight methods.

A cube (product term) is a pair of bit masks ``(pos, neg)`` with bit i for
``X_i``: `pos` holds the uncomplemented literals and `neg` the complemented
ones.  A conjunction is one OR per side, a contradiction is ``pos & neg`` and
the literal count is ``(pos | neg).bit_count()``.  A :class:`SopExpr` is an
ordered OR of cubes over variables ``1..n``, carrying a certificate flag that
says the cubes are pairwise disjoint; only :func:`make_disjoint` and
:func:`tt_to_minterm_sop` set it.  Disjointness is what makes weights add
term-wise, so most of this module is about producing or exploiting it:

* :func:`make_disjoint` - the pairwise test, then, if it fails, sequential
  disjointing, shortest cubes first: each cube is multiplied by the expanded
  complements of all cubes before it, except that a piece which already
  clashes with a blocker is kept whole, and a blocker that clashes with the
  cube itself is passed over for all of its pieces.
* :func:`sop_weight_disjoint` - sum of ``2**(n - literals)`` over a disjoint cover.
* :func:`sop_weight_ie` - inclusion-exclusion over cube subsets; works on any
  SOP.  Each cube carries the bit set of later cubes it does not clash with,
  and the walk only ever extends a subset by cubes compatible with all of its
  members, so its cost is the number of subsets whose conjunction does not
  clash (``2**m - 1`` only when no two of the m cubes clash).

The parser is one regex scanner that ORs literal bits straight into the
pairs, and every function here reads them as they are, so a cube is never
held in any other form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

from .truthtable import N_MAX, Price, TruthTable, _exp2, _is_int, _var_zero_mask

# Inclusion-exclusion takes 0.41-0.43 us per subset and 130 bytes per cube; a SOP table
# operation 0.13 us, 0.08 ns per byte and 0.37 ns more per byte past 512 KiB (2-vCPU Xeon).
_IE_S_PER_SUBSET, _IE_BYTES_PER_CUBE = 0.43e-6, 130
_TABLE_S_PER_OP, _TABLE_S_PER_BYTE, _TABLE_S_PER_FAR_BYTE = 0.13e-6, 0.08e-9, 0.37e-9
# The pairwise test takes 39-68 ns per cube pair, sequential disjointing 85-147 ns per
# blocker passed over and 8 bytes per cube to sort (512-4,096 minterms, 2-vCPU Xeon).
_CERT_S_PER_PAIR, _PASS_S_PER_BLOCKER = 55e-9, 110e-9

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
class SopExpr:
    """Ordered OR of ``(pos, neg)`` cubes over ``1..n`` with a disjointness certificate."""

    n: int
    cubes: tuple[tuple[int, int], ...]
    disjoint: bool = field(default=False, init=False)  # no caller can set it

    def __post_init__(self) -> None:
        if not (_is_int(self.n) and self.n >= 0):
            raise ValueError(f"arity n must be a non-negative integer, got {self.n!r}")
        cubes = tuple(self.cubes)
        object.__setattr__(self, "cubes", cubes)
        used = 0
        try:
            for pos, neg in cubes:
                if (pos | neg) < 0:  # exactly when pos or neg is
                    raise ValueError("cube masks must be non-negative integers")
                clash = pos & neg
                if clash:
                    indices = [i for i in range(clash.bit_length()) if clash >> i & 1]
                    raise ValueError(f"contradictory literals for variable(s) {indices}")
                used |= pos | neg
        except TypeError:
            raise ValueError("cube masks must be non-negative integers") from None
        outside = used & ~(((1 << self.n) - 1) << 1)  # bit 0 and bits above n
        if outside:
            i = (outside & -outside).bit_length() - 1
            raise ValueError(f"variable index {i} out of range 1..{self.n}")

    def verify_disjoint(self) -> bool:
        """Pairwise check that every two cubes clash on some variable."""
        for (ap, aq), (bp, bq) in combinations(self.cubes, 2):
            if not (ap & bq or aq & bp):
                return False
        return True


def _certified(n: int, cubes: tuple[tuple[int, int], ...]) -> SopExpr:
    """An expression over cubes known to be pairwise disjoint, certified so."""
    expr = SopExpr(n, cubes)
    object.__setattr__(expr, "disjoint", True)
    return expr


# -- parsing and printing --------------------------------------------------

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
#: a name with its complement mark, if one directly follows, or one other character
_SCAN = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(')?|(\S)")


def sop_names(text: str) -> list[str]:
    """Variable names in SOP text, in order of first appearance."""
    return list(dict.fromkeys(name for name, _, _ in _SCAN.findall(text) if name))


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
    contradictory term is an error.  Empty input and the whole text ``0``
    denote the constant-0 function, and the whole text ``1`` the constant 1.

    One scanner pass reads the text: each match is a name with the ``'``
    directly after it, if any, or a single other non-space character, so a
    literal's complement mark never needs a look-ahead.
    """
    index = variable_index(names)
    n = len(index)
    whole = text.strip()
    if whole in ("0", "1"):  # a constant, as format_sop prints it
        return SopExpr(n, ((0, 0),) * int(whole))

    cubes: list[tuple[int, int]] = []
    pos = neg = 0
    term_open = False  # a literal has been read since the last '|'
    pending_and = False  # an '&' is waiting for its right operand
    for m in _SCAN.finditer(text):
        name, quote, tok = m.groups()
        if name:
            k = index.get(name)
            if k is None:
                raise SopSyntaxError(f"unknown variable name {name!r}", m.start())
            bit = 1 << k
            if quote:
                if pos & bit:
                    raise SopSyntaxError("contradictory product", m.start())
                neg |= bit
            else:
                if neg & bit:
                    raise SopSyntaxError("contradictory product", m.start())
                pos |= bit
            term_open = True
            pending_and = False
        elif tok == "|":
            if pending_and:
                raise SopSyntaxError("'&' without a right operand", m.start())
            if not term_open:
                raise SopSyntaxError("empty product term", m.start())
            cubes.append((pos, neg))
            pos = neg = 0
            term_open = False
        elif tok == "&":
            if pending_and:
                raise SopSyntaxError("'&' without a right operand", m.start())
            if not term_open:
                raise SopSyntaxError("'&' without a left operand", m.start())
            pending_and = True
        elif tok == "'":
            raise SopSyntaxError("complement mark must directly follow a name", m.start())
        else:
            raise SopSyntaxError(f"unexpected character {tok!r}", m.start())

    if pending_and:
        raise SopSyntaxError("'&' without a right operand", len(text))
    if term_open:
        cubes.append((pos, neg))
    elif cubes:
        raise SopSyntaxError("trailing '|' without a term", len(text))
    return SopExpr(n, cubes)


def format_sop(expr: SopExpr, names: Sequence[str]) -> str:
    """Render cubes as whitespace products joined by ``|``; constants as 0/1."""
    if not expr.cubes:
        return "0"
    parts = []
    for pos, neg in expr.cubes:
        lits = []
        for i in range(1, expr.n + 1):
            if pos >> i & 1:
                lits.append(names[i - 1])
            elif neg >> i & 1:
                lits.append(names[i - 1] + "'")
        parts.append(" ".join(lits) if lits else "1")
    return " | ".join(parts)


# -- disjointing ------------------------------------------------------------


def make_disjoint(expr: SopExpr) -> SopExpr:
    """Certify an SOP disjoint: pairwise disjoint cubes as they are, in their
    order (:meth:`SopExpr.verify_disjoint`), others by sequential disjointing.

    Sequential disjointing stable-sorts the cubes by literal count, since a
    short blocker cuts few pieces, and replaces the k-th by its products with
    the expanded complements of cubes 1..k-1.  The complement of a blocker's literals
    that a piece lacks, ``l1 l2 .. lk`` in variable order, is the disjoint
    OR of ``~l1``, ``l1 ~l2``, ..., ``l1 .. l(k-1) ~lk``; a piece that holds
    them all implies the blocker and yields nothing.  A piece that already
    clashes with a blocker avoids it and is kept whole, not cut at each of
    the blocker's literals before the clash, so later blockers multiply one
    piece instead of several.  Pieces only gain literals, so a blocker that
    clashes with the cube itself clashes with all of its pieces and is
    passed over without looking at them.  Each step is priced before it runs,
    at ``m(m-1)/2`` clash tests for m cubes and then as many blockers passed
    over, and past a budget raises ``ValueError`` at once; so does the pass
    when its cubes would exceed :data:`MAX_DISJOINT_CUBES`, after any blocker.
    """
    if expr.disjoint:
        return expr
    m = len(expr.cubes)
    Price("disjointness certificate", _CERT_S_PER_PAIR * m * (m - 1) / 2, 0).check()
    if expr.verify_disjoint():
        return _certified(expr.n, expr.cubes)
    Price("sequential disjointing", _PASS_S_PER_BLOCKER * m * (m - 1) / 2, 8 * m).check()
    cubes = sorted(expr.cubes, key=lambda cube: (cube[0] | cube[1]).bit_count())
    out: list[tuple[int, int]] = []
    for k, cube in enumerate(cubes):
        cp, cq = cube
        fragments = [cube]
        for bp, bq in cubes[:k]:
            if not (cp & bq or cq & bp):
                pieces = []
                for p, q in fragments:
                    if p & bq or q & bp:
                        pieces.append((p, q))
                        continue
                    missing = (bp | bq) & ~(p | q)
                    while missing:
                        v = missing & -missing
                        missing ^= v
                        if v & bp:
                            pieces.append((p, q | v))
                            p |= v
                        else:
                            pieces.append((p | v, q))
                            q |= v
                fragments = pieces
                if not fragments:
                    break
            if len(out) + len(fragments) > MAX_DISJOINT_CUBES:
                raise ValueError(
                    f"disjointing cube {k + 1} of {len(cubes)} passes "
                    f"MAX_DISJOINT_CUBES = {MAX_DISJOINT_CUBES} cubes"
                )
        out.extend(fragments)
    return _certified(expr.n, tuple(out))


# -- weight computation ------------------------------------------------------


def sop_weight_disjoint(expr: SopExpr) -> int:
    """Weight of a certified-disjoint SOP: cube weights simply add."""
    if not expr.disjoint:
        raise ValueError("expression is not certified disjoint; run make_disjoint first")
    n = expr.n  # SopExpr holds no cube with more than n literals
    return sum(1 << (n - (p | q).bit_count()) for p, q in expr.cubes)


def sop_weight_ie(expr: SopExpr) -> int:
    """Weight by inclusion-exclusion over the nonempty cube subsets.

    Works on arbitrary (overlapping) SOPs.  A subset whose conjunction
    clashes contributes nothing, and a conjunction clashes exactly when two
    of its cubes do, so only subsets of pairwise compatible cubes (the
    cliques of the compatibility graph) are visited.  Each cube gets the bit
    set of later cubes that do not clash with it; the walk goes depth first,
    extending a subset only by its candidates, the later cubes compatible
    with every member, and narrows them with one AND per step.  Every
    visited subset is met once and its literals are one OR of bit masks on
    top of its parent's, with no clash test.  The cost is the number of
    subsets that do not clash: ``2**m - 1`` when no two of the m cubes
    clash, its price, so past a budget it raises ``ValueError`` at once.
    """
    cubes = expr.cubes
    m = len(cubes)
    Price("inclusion-exclusion", _IE_S_PER_SUBSET * (_exp2(m) - 1), _IE_BYTES_PER_CUBE * m).check()
    n = expr.n
    lits = [p | q for p, q in cubes]
    # the later cubes that cube j does not clash with, as bits
    later = [0] * m
    for j, (cp, cq) in enumerate(cubes):
        for i in range(j + 1, m):
            ip, iq = cubes[i]
            if not (cp & iq or cq & ip):
                later[j] |= 1 << i
    total = 0
    # (cubes the subset may add, its literals, sign one cube larger)
    stack = [((1 << m) - 1, 0, 1)]
    while stack:
        candidates, held, sign = stack.pop()
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            j = low.bit_length() - 1
            jl = held | lits[j]
            total += sign << (n - jl.bit_count())
            if candidates & later[j]:
                stack.append((candidates & later[j], jl, -sign))
    return total


# -- conversions --------------------------------------------------------------


def sop_to_tt(expr: SopExpr) -> TruthTable:
    """Dense truth table of an SOP (any overlap allowed).

    Each cube is ANDed from the shared X_i = 0 row masks of ``truthtable``, so
    no table is built per literal or per variable: a complemented literal keeps
    the rows in its mask, an uncomplemented one drops them.  That is ``literals
    + 1`` operations on ``2**n / 8`` bytes per cube, priced at a fixed cost and a
    cost per byte that rises past 512 KiB; past a budget it raises ``ValueError``.
    """
    n = expr.n
    if n > N_MAX:
        raise ValueError(f"arity {n} exceeds dense-table limit {N_MAX}")
    size = (1 << n) / 8
    op = _TABLE_S_PER_OP + _TABLE_S_PER_BYTE * size + _TABLE_S_PER_FAR_BYTE * max(0, size - 2**19)
    ops = sum((p | q).bit_count() + 1 for p, q in expr.cubes)
    Price("SOP table", op * ops, size).check()
    used = 0
    for p, q in expr.cubes:
        used |= p | q
    zero = {1 << i: _var_zero_mask(n - i, n) for i in range(1, n + 1) if used >> i & 1}
    full = (1 << (1 << n)) - 1
    bits = 0
    for p, q in expr.cubes:
        term = full
        while p:
            low = p & -p
            p ^= low
            term ^= term & zero[low]
        while q:
            low = q & -q
            q ^= low
            term &= zero[low]
        bits |= term
    return TruthTable(n, bits)


def tt_to_minterm_sop(table: TruthTable) -> SopExpr:
    """Minterm canonical form: one full-length cube per true row, in row order.

    Disjoint by construction, so the certificate is set without the pairwise
    check.  The true rows are found in one scan of the table's binary digits,
    so the time is that scan plus O(n) per true row, and
    :data:`MAX_DISJOINT_CUBES`, checked first with a popcount, bounds it as
    well as the output.  Raises ``ValueError`` past that many true rows.
    """
    n = table.n
    if table.weight() > MAX_DISJOINT_CUBES:
        raise ValueError(
            f"{table.weight()} minterms pass MAX_DISJOINT_CUBES = {MAX_DISJOINT_CUBES}"
        )
    every = ((1 << n) - 1) << 1
    cubes = []
    for row in re.finditer("1", format(table.bits, "b")[::-1]):  # row j is digit j
        j = row.start()
        pos = sum(1 << i for i in range(1, n + 1) if (j >> (n - i)) & 1)
        cubes.append((pos, every ^ pos))
    return _certified(n, tuple(cubes))
