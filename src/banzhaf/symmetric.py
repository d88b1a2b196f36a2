"""Symmetric switching functions as (arity, characteristic set) pairs.

A symmetric function of ``n`` inputs is 1 exactly when the number of 1-inputs
lies in its characteristic set ``A`` of integers from ``{0..n}``, so the pair
``(n, A)`` characterizes it completely.  The full set represents constant 1,
the empty set constant 0.  The payoff of the representation is that all the
heavy operations become small-set algebra:

* NOT complements ``A`` within ``{0..n}``; AND/OR/XOR intersect/union/
  symmetric-difference the sets of two functions on the same inputs.
* Cofactoring about any variable yields the pair of sets ``B`` (counts still
  reachable with that input at 0) and ``C`` (the set shifted down by the
  input at 1), and the derivative about any variable is the symmetric
  function of ``n - 1`` inputs with set ``B xor C``.
* The weight is a plain binomial sum over the set, so a per-voter swing
  count for a k-out-of-n style rule costs a handful of ``math.comb`` calls.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import comb
from typing import Optional, Sequence

from .sop import variable_index
from .truthtable import N_MAX, TruthTable


@dataclass(frozen=True)
class SymFn:
    """Symmetric switching function of ``n`` inputs with characteristic set."""

    n: int
    charset: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "charset", frozenset(self.charset))
        if self.n < 0:
            raise ValueError(f"arity must be non-negative, got {self.n}")
        bad = [a for a in self.charset if not 0 <= a <= self.n]
        if bad:
            raise ValueError(f"characteristic values {sorted(bad)} outside 0..{self.n}")

    # -- constant detection -------------------------------------------------

    def is_constant_one(self) -> bool:
        return len(self.charset) == self.n + 1

    def is_constant_zero(self) -> bool:
        return not self.charset

    # -- connectives ---------------------------------------------------------

    def _check_same_arity(self, other: "SymFn") -> None:
        if self.n != other.n:
            raise ValueError(f"arity mismatch: {self.n} vs {other.n}")

    def __invert__(self) -> "SymFn":
        return SymFn(self.n, frozenset(range(self.n + 1)) - self.charset)

    def __and__(self, other: "SymFn") -> "SymFn":
        self._check_same_arity(other)
        return SymFn(self.n, self.charset & other.charset)

    def __or__(self, other: "SymFn") -> "SymFn":
        self._check_same_arity(other)
        return SymFn(self.n, self.charset | other.charset)

    def __xor__(self, other: "SymFn") -> "SymFn":
        self._check_same_arity(other)
        return SymFn(self.n, self.charset ^ other.charset)

    # -- expansion and differencing -------------------------------------------

    def expand(self) -> tuple[frozenset[int], frozenset[int]]:
        """Characteristic sets (B, C) of the cofactors about any one variable.

        B keeps the counts still reachable when the chosen input is 0; C is
        the set decremented for the input at 1, clipped to ``{0..n-1}``.  By
        symmetry the split is the same whichever variable is chosen.
        """
        if self.n < 1:
            raise ValueError("cannot expand a 0-input function")
        b = frozenset(a for a in self.charset if a <= self.n - 1)
        c = frozenset(a - 1 for a in self.charset if a >= 1)
        return b, c

    def derivative(self) -> "SymFn":
        """Boolean difference about any variable: arity n-1, set ``B xor C``."""
        b, c = self.expand()
        return SymFn(self.n - 1, b ^ c)

    # -- measures ----------------------------------------------------------

    def weight(self) -> int:
        """Number of true rows: sum of binomials ``C(n, a)`` over the set."""
        return sum(comb(self.n, a) for a in self.charset)

    def tbp(self) -> int:
        """Per-voter total Banzhaf power: weight of the derivative.

        Every voter of a symmetric rule has the same swing count, so the
        normalized power is ``1/n`` whenever this is nonzero.
        """
        if self.n < 1:
            raise ValueError("a 0-input function has no voters")
        return self.derivative().weight()

    # -- realization as a dense table -----------------------------------------

    def to_table(
        self,
        placement: Optional[Sequence[int]] = None,
        n_total: Optional[int] = None,
    ) -> TruthTable:
        """Dense table over ``n_total`` variables with the inputs at `placement`.

        `placement` lists the 1-based variable indices carrying the symmetric
        inputs (default ``1..n``); all other variables are vacuous.  The value
        on a row depends only on how many placed variables are 1.
        """
        if placement is None:
            placement = tuple(range(1, self.n + 1))
        placement = tuple(placement)
        if n_total is None:
            n_total = max(placement, default=0)
        if len(placement) != self.n:
            raise ValueError(f"placement names {len(placement)} of {self.n} inputs")
        if len(set(placement)) != len(placement):
            raise ValueError("placement indices must be distinct")
        if any(not 1 <= i <= n_total for i in placement):
            raise ValueError(f"placement indices must lie in 1..{n_total}")
        if n_total > N_MAX:
            raise ValueError(f"arity {n_total} exceeds dense-table limit {N_MAX}")

        placed = set(placement)
        # tables[c]: the table over the variables not yet split, given c ones
        # among the placed variables before them; a placed variable reads the
        # tables of c + 1 ones where it is 1, and each one shortens the list
        tables = [int(c in self.charset) for c in range(self.n + 1)]
        for v in range(n_total, 0, -1):
            half, step = 1 << (n_total - v), int(v in placed)
            tables = [(tables[c + step] << half) | tables[c] for c in range(len(tables) - step)]
        return TruthTable(n_total, tables[0])

    # -- textual form ----------------------------------------------------------

    def format(self, names: Optional[Sequence[str]] = None) -> str:
        """Render as ``Sy(n; {a1,a2,...}; v1,v2,...)``."""
        charset = ",".join(str(a) for a in sorted(self.charset))
        if names is None:
            names = [f"X{i}" for i in range(1, self.n + 1)]
        if len(names) != self.n:
            raise ValueError(f"expected {self.n} names, got {len(names)}")
        tail = f"; {','.join(names)}" if self.n else ""
        return f"Sy({self.n}; {{{charset}}}{tail})"

    def __str__(self) -> str:
        return self.format()


_SYM_TEXT = re.compile(
    r"^\s*Sy\s*\(\s*(\d+)\s*;\s*\{([^{}]*)\}\s*(?:;([^;)]*))?\)\s*$"
)


def parse_sym(text: str) -> tuple[SymFn, Optional[tuple[str, ...]]]:
    """Parse the ``Sy(n; {a1,...}; v1,...)`` form, whitespace-insensitively.

    Returns the function and the variable-name tuple, or None when the name
    part is omitted.  Names follow the SOP parser's rules: valid and distinct.
    """
    m = _SYM_TEXT.match(text)
    if m is None:
        raise ValueError(f"not a symmetric-function literal: {text!r}")
    n = int(m.group(1))
    body = m.group(2).strip()
    charset = frozenset(int(a) for a in body.split(",")) if body else frozenset()
    names: Optional[tuple[str, ...]] = None
    if m.group(3) is not None:
        names = tuple(s.strip() for s in m.group(3).split(","))
        if len(names) != n:
            raise ValueError(f"expected {n} variable names in {text!r}")
        variable_index(names)
    return SymFn(n, charset), names
