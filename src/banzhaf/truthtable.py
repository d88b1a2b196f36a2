"""Dense truth tables for switching functions, stored as Python integers.

A function of ``n`` variables is a vector of ``2**n`` output bits.  Bit ``j``
of :attr:`TruthTable.bits` holds the function value on input row ``j``, where
row ``j`` assigns ``X_1 .. X_n`` the binary digits of ``j`` with ``X_1`` as
the most significant digit.  Row 0 is therefore the all-zeros vote and row
``2**n - 1`` the all-ones vote.

Storing the whole table in one int makes the weight a popcount.  Restriction
and Boolean differencing are implemented with mask/shift kernels so that no
per-row Python loop is ever needed; every operation is pure and returns a new
table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

#: Largest arity for dense tables (2**24 bits = 2 MiB per table) and for a
#: system's decision diagram.  Larger systems are counted without either, by
#: meeting in the middle or subset-sum counting.
N_MAX = 24

#: Time budget of one counting-kernel call: its price in seconds, not a timeout.
MAX_SECONDS = 1.0

#: Memory budget of one counting-kernel call: bytes of its largest structure.
MAX_BYTES = 1 << 25


class Price(NamedTuple):
    """A counting kernel's estimated seconds (2-vCPU Xeon, Python 3.11) and
    bytes on one input, worked out in O(n) or O(cubes) before it allocates."""

    kernel: str
    seconds: float
    nbytes: float

    def refusal(self) -> str:
        """Why a call at this price is refused; empty within both budgets."""
        if self.seconds <= MAX_SECONDS and self.nbytes <= MAX_BYTES:
            return ""
        over = [f"MAX_SECONDS = {MAX_SECONDS} s"] * (self.seconds > MAX_SECONDS)
        over += [f"MAX_BYTES = {MAX_BYTES} bytes"] * (self.nbytes > MAX_BYTES)
        price = f"{self.kernel} priced at {self.seconds:.3g} s and {self.nbytes:.3g} bytes"
        return f"{price} passes {' and '.join(over)}"

    def check(self) -> None:
        """Raise ``ValueError`` with :meth:`refusal` past either budget."""
        if self.refusal():
            raise ValueError(self.refusal())


def _exp2(k: int) -> float:
    """``2**k`` for a price, infinite past the float range."""
    return 2.0**k if k < 1024 else float("inf")


def _is_int(x: object) -> bool:
    """An ``int`` proper: ``True`` and ``False`` are not arities, bit vectors,
    quotas or weights."""
    return isinstance(x, int) and not isinstance(x, bool)


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


@dataclass(frozen=True)
class TruthTable:
    """Immutable dense truth table of an ``n``-variable switching function."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        if not (_is_int(self.n) and _is_int(self.bits)):
            raise ValueError(f"arity and bits must be integers, got {self.n!r} and {self.bits!r}")
        if not 0 <= self.n <= N_MAX:
            raise ValueError(f"arity must be between 0 and {N_MAX}, got {self.n}")
        if self.bits < 0 or self.bits.bit_length() > 1 << self.n:
            raise ValueError(f"bit vector does not fit 2**{self.n} rows")

    # -- row access ---------------------------------------------------------

    def row(self, j: int) -> int:
        """Function value on input row ``j`` (0-based, X_1 = most significant)."""
        if not 0 <= j < (1 << self.n):
            raise ValueError(f"row {j} out of range for {self.n} variables")
        return (self.bits >> j) & 1

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

    # -- measures and structure checks --------------------------------------

    def weight(self) -> int:
        """Number of true rows (minterms)."""
        return self.bits.bit_count()

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
