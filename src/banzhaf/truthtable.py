"""Dense truth tables for switching functions, stored as Python integers.

A function of ``n`` variables is a vector of ``2**n`` output bits.  Bit ``j``
of :attr:`TruthTable.bits` holds the function value on input row ``j``, where
row ``j`` assigns ``X_1 .. X_n`` the binary digits of ``j`` with ``X_1`` as
the most significant digit.  Row 0 is therefore the all-zeros vote and row
``2**n - 1`` the all-ones vote.

Storing the whole table in one int makes the connectives single bitwise
operations and the weight a popcount.  Restriction and Boolean differencing
are implemented with mask/shift kernels so that no per-row Python loop is
ever needed; every operation is pure and returns a new table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

#: Largest arity for dense tables (2**24 bits = 2 MiB per table).  Larger
#: systems must go through the symmetric or subset-sum paths instead.
N_MAX = 24


#: One mask per bit position, widened in place to the largest arity asked for.
_zero_masks: dict[int, int] = {}


def _var_zero_mask(pos: int, n: int) -> int:
    """Rows whose index has bit `pos` clear (the X=0 half), over at least 2**n rows.

    The mask for 2**n rows is the low end of the one for 2**(n+1) rows, so a
    longer mask serves too, but only as the right operand of ``&`` against a
    value of at most 2**n bits: that costs only the shorter operand.
    """
    block = 1 << pos
    mask = _zero_masks.get(pos, 0)
    if mask.bit_length() + block < 1 << n:  # the top run of zeros is implied
        mask = mask or (1 << block) - 1
        span = mask.bit_length() + block
        while span < 1 << n:
            mask |= mask << span
            span *= 2
        _zero_masks[pos] = mask
    return mask


def _squeeze(bits: int, pos: int, n: int) -> int:
    """Compact the X=0 half-blocks of an n-variable table into 2**(n-1) bits.

    `bits` must be zero outside the blocks selected by ``_var_zero_mask(pos, n)``.
    Adjacent kept blocks are merged pairwise, doubling the block size each
    round, so the whole compaction costs n-1-pos big-int operations.
    """
    for k in range(pos, n - 1):
        bits = (bits | (bits >> (1 << k))) & _var_zero_mask(k + 1, n)
    return bits


def _stretch(bits: int, pos: int, m: int) -> int:
    """Inverse of :func:`_squeeze`: spread a 2**m-bit table over 2**(m+1) bits,
    leaving the result in the blocks where the new variable (at bit `pos`) is 0.
    """
    for k in range(m - 1, pos - 1, -1):
        bits = (bits | (bits << (1 << k))) & _var_zero_mask(k, m + 1)
    return bits


@dataclass(frozen=True)
class TruthTable:
    """Immutable dense truth table of an ``n``-variable switching function."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.n <= N_MAX:
            raise ValueError(f"arity must be between 0 and {N_MAX}, got {self.n}")
        if self.bits < 0 or self.bits.bit_length() > 1 << self.n:
            raise ValueError(f"bit vector does not fit 2**{self.n} rows")

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, n: int, value: int) -> "TruthTable":
        return cls(n, ((1 << (1 << n)) - 1) if value else 0)

    @classmethod
    def variable(cls, n: int, i: int) -> "TruthTable":
        """Table of the bare literal ``X_i`` inside an n-variable space."""
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} out of range 1..{n}")
        pos = n - i
        return cls(n, (((1 << (1 << n)) - 1) & _var_zero_mask(pos, n)) << (1 << pos))

    @classmethod
    def from_rows(cls, rows: Sequence[int]) -> "TruthTable":
        """Build a table from an explicit output column, row 0 first."""
        size = len(rows)
        n = size.bit_length() - 1
        if size != 1 << n:
            raise ValueError(f"row count {size} is not a power of two")
        bits = 0
        for j, v in enumerate(rows):
            if v not in (0, 1):
                raise ValueError(f"row {j}: output must be 0 or 1, got {v!r}")
            bits |= v << j
        return cls(n, bits)

    # -- row access and serialization -------------------------------------

    def row(self, j: int) -> int:
        """Function value on input row ``j`` (0-based, X_1 = most significant)."""
        if not 0 <= j < (1 << self.n):
            raise ValueError(f"row {j} out of range for {self.n} variables")
        return (self.bits >> j) & 1

    def to_text(self) -> str:
        """Serialize as ``n=<k>`` header plus the 2**k output bits in row order."""
        body = format(self.bits, f"0{1 << self.n}b")[::-1]
        return f"n={self.n}\n{body}\n"

    @classmethod
    def from_text(cls, text: str) -> "TruthTable":
        header, _, body = text.partition("\n")
        header = header.strip()
        if not header.startswith("n="):
            raise ValueError("missing 'n=<k>' header")
        n = int(header[2:])
        if not 0 <= n <= N_MAX:
            raise ValueError(f"arity must be between 0 and {N_MAX}, got {n}")
        payload = "".join(body.split())
        if len(payload) != 1 << n:
            raise ValueError(f"expected {1 << n} bits, got {len(payload)}")
        if payload.strip("01"):
            raise ValueError("bit body may contain only '0' and '1'")
        return cls(n, int(payload[::-1], 2))

    # -- pointwise connectives ---------------------------------------------

    def _check_same_arity(self, other: "TruthTable") -> None:
        if self.n != other.n:
            raise ValueError(f"arity mismatch: {self.n} vs {other.n}")

    def __and__(self, other: "TruthTable") -> "TruthTable":
        self._check_same_arity(other)
        return TruthTable(self.n, self.bits & other.bits)

    def __or__(self, other: "TruthTable") -> "TruthTable":
        self._check_same_arity(other)
        return TruthTable(self.n, self.bits | other.bits)

    def __xor__(self, other: "TruthTable") -> "TruthTable":
        self._check_same_arity(other)
        return TruthTable(self.n, self.bits ^ other.bits)

    def __invert__(self) -> "TruthTable":
        return TruthTable(self.n, self.bits ^ ((1 << (1 << self.n)) - 1))

    # -- restriction and differencing --------------------------------------

    def restrict(self, i: int, v: int) -> "TruthTable":
        """Fix ``X_i`` to ``v`` and drop it, yielding an (n-1)-variable table.

        The remaining variables keep their relative order.
        """
        if self.n < 1:
            raise ValueError("cannot restrict a 0-variable function")
        if not 1 <= i <= self.n:
            raise ValueError(f"variable index {i} out of range 1..{self.n}")
        if v not in (0, 1):
            raise ValueError(f"restriction value must be 0 or 1, got {v!r}")
        pos = self.n - i
        half = self.bits >> (1 << pos) if v else self.bits
        return TruthTable(self.n - 1, _squeeze(half & _var_zero_mask(pos, self.n), pos, self.n))

    def _fold(self, i: int) -> int:
        """The Boolean difference at ``X_i``, left in the X_i = 0 half-blocks.

        The two halves of the table are folded onto each other and XORed
        cell-wise; a one marks an input where flipping ``X_i`` flips f.
        """
        if not 1 <= i <= self.n:
            raise ValueError(f"variable index {i} out of range 1..{self.n}")
        pos = self.n - i
        return (self.bits ^ (self.bits >> (1 << pos))) & _var_zero_mask(pos, self.n)

    def boolean_difference(self, i: int) -> "TruthTable":
        """XOR of the two cofactors at ``X_i``, as an (n-1)-variable table."""
        return TruthTable(self.n - 1, _squeeze(self._fold(i), self.n - i, self.n))

    def difference_weight(self, i: int) -> int:
        """Weight of :meth:`boolean_difference`, read without building it."""
        return self._fold(i).bit_count()

    def insert_vacuous(self, i: int) -> "TruthTable":
        """Insert a new, irrelevant variable so it becomes ``X_i`` of the result.

        Inverse of :meth:`restrict` at either value; handy for re-aligning
        arities after differencing.
        """
        if self.n >= N_MAX:
            raise ValueError(f"arity {self.n + 1} would exceed {N_MAX}")
        if not 1 <= i <= self.n + 1:
            raise ValueError(f"variable index {i} out of range 1..{self.n + 1}")
        pos = self.n + 1 - i
        spread = _stretch(self.bits, pos, self.n)
        return TruthTable(self.n + 1, spread | (spread << (1 << pos)))

    # -- measures and structure checks --------------------------------------

    def weight(self) -> int:
        """Number of true rows (minterms)."""
        return self.bits.bit_count()

    def syndrome(self) -> Fraction:
        """Weight normalized by 2**n, as an exact rational in [0, 1]."""
        return Fraction(self.weight(), 1 << self.n)

    def is_vacuous_in(self, i: int) -> bool:
        """True iff f does not depend on ``X_i`` (zero Boolean difference)."""
        return self._fold(i) == 0

    def is_monotone(self) -> bool:
        """True iff raising any input from 0 to 1 never lowers the output."""
        # a true X_i = 0 row where the fold has a one steps down at X_i = 1
        return not any(self.bits & self._fold(i) for i in range(1, self.n + 1))

    def is_causal(self) -> bool:
        """True iff the all-0 row maps to 0 and the all-1 row maps to 1."""
        return (self.bits & 1) == 0 and self.row((1 << self.n) - 1) == 1

    def is_symmetric_in(self, i: int, j: int) -> bool:
        """True iff transposing variables ``X_i`` and ``X_j`` leaves f unchanged."""
        for k in (i, j):
            if not 1 <= k <= self.n:
                raise ValueError(f"variable index {k} out of range 1..{self.n}")
        if i == j:
            return True
        a, b = self.n - min(i, j), self.n - max(i, j)
        # rows with bit a clear and bit b set against their transposes, moved
        # down onto the rows with both bits clear so that no mask is shifted
        diff = (self.bits ^ (self.bits >> ((1 << a) - (1 << b)))) >> (1 << b)
        return (diff & _var_zero_mask(a, self.n) & _var_zero_mask(b, self.n)) == 0

    def __repr__(self) -> str:
        return f"TruthTable(n={self.n}, bits=0x{self.bits:x})"
