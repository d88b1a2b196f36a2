"""Weighted yes-no voting systems and their dense truth tables.

A system is a quota plus one non-negative integer weight per voter: a bill
passes when the yes-voters' weights sum to the quota or beyond.  The rule is
therefore a threshold switching function, pinned down by ``n + 1`` integers
instead of ``2**n`` table entries, and scale-invariant: multiplying quota and
weights by the same positive constant changes nothing.  The dense table
(:meth:`VotingSystem.to_table`) is built from the sorted subset sums of two
halves of the voters, with no recursion, whatever the weights.

Quotas above the total weight are deliberately legal - the analyzer reports
the resulting constant-0 system as a finding rather than refusing it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

from .truthtable import N_MAX, TruthTable, _is_int


@dataclass(frozen=True)
class VotingSystem:
    """Quota-and-weights model ``(quota; w1, .., wn)`` with optional names."""

    quota: int
    weights: tuple[int, ...]
    names: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(self.weights))
        if isinstance(self.names, str):
            raise ValueError(f"voter names must be a sequence of strings, got {self.names!r}")
        if self.names is not None:
            object.__setattr__(self, "names", tuple(self.names))
        if not _is_int(self.quota) or self.quota < 1:
            raise ValueError(f"quota must be a positive integer, got {self.quota!r}")
        if not self.weights:
            raise ValueError("a voting system needs at least one voter")
        for w in self.weights:
            if not _is_int(w) or w < 0:
                raise ValueError(f"weights must be non-negative integers, got {w!r}")
        if self.names is not None:
            if len(self.names) != len(self.weights):
                raise ValueError(
                    f"{len(self.names)} names for {len(self.weights)} voters"
                )
            for name in self.names:
                if not isinstance(name, str) or not name:
                    raise ValueError(f"voter names must be non-empty strings, got {name!r}")
            if len(set(self.names)) != len(self.names):
                raise ValueError("voter names must be distinct")

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def total_weight(self) -> int:
        return sum(self.weights)

    @property
    def voter_names(self) -> tuple[str, ...]:
        """Declared names, or ``X1..Xn`` when none were given."""
        if self.names is not None:
            return self.names
        return tuple(f"X{i}" for i in range(1, self.n + 1))

    # -- realization ---------------------------------------------------------

    def to_table(self) -> TruthTable:
        """Dense truth table: bit j is 1 iff row j's yes-weights reach the quota.

        Built from the subset sums of two halves, as in meeting in the middle
        (Horowitz and Sahni, JACM 21, 1974): the last ``k = max(n // 2,
        min(n, 3))`` voters are the low half, so row ``j`` is ``high << k |
        low``.  The low rows, sorted by sum, give the ``2**k + 1`` nested sets
        "rows of the ``c`` largest sums"; the block of high row ``h`` is the
        set whose ``c`` counts the low sums that reach the quota less ``h``'s
        sum, found by bisection.  Each distinct block is encoded once as
        ``2**k / 8`` little-endian bytes (whole bytes, since ``k >= 3`` unless
        ``n <= 3``, when there is one block) and the blocks are joined in row
        order.  Costs ``2**k`` ORs on at most ``2**k / 8`` bytes and one
        bisection per high row, whatever the weights.  Raises ``ValueError``
        beyond :data:`~banzhaf.truthtable.N_MAX` voters.
        """
        n = self.n
        if n > N_MAX:
            raise ValueError(f"a truth table of {n} voters exceeds its limit N_MAX = {N_MAX}")
        k = max(n // 2, min(n, 3))
        high, low = [0], [0]  # subset sums by row, the half's first voter most significant
        for sums, weights in ((high, self.weights[: n - k]), (low, self.weights[n - k :])):
            for w in reversed(weights):
                sums += [s + w for s in sums]
        order = sorted(range(1 << k), key=low.__getitem__)
        ascending = [low[r] for r in order]
        tails = [0]  # tails[c]: the low rows of the c largest sums
        for r in reversed(order):
            tails.append(tails[-1] | 1 << r)
        counts = [(1 << k) - bisect_left(ascending, self.quota - a) for a in high]
        size = max(1, (1 << k) // 8)
        blocks = {c: tails[c].to_bytes(size, "little") for c in set(counts)}
        return TruthTable(n, int.from_bytes(b"".join(blocks[c] for c in counts), "little"))
