"""Weighted yes-no voting systems and their dense truth tables.

A system is a quota plus one non-negative integer weight per voter: a bill
passes when the yes-voters' weights sum to the quota or beyond.  The rule is
therefore a threshold switching function, pinned down by ``n + 1`` integers
instead of ``2**n`` table entries, and scale-invariant: multiplying quota and
weights by the same positive constant changes nothing.

Quotas above the total weight are deliberately legal - the analyzer reports
the resulting constant-0 system as a finding rather than refusing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .truthtable import N_MAX, TruthTable


def _is_int(x: object) -> bool:
    """An ``int`` proper: ``True`` and ``False`` are not quotas or weights."""
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class VotingSystem:
    """Quota-and-weights model ``(quota; w1, .., wn)`` with optional names."""

    quota: int
    weights: tuple[int, ...]
    names: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(self.weights))
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

    def scaled(self, c: int) -> "VotingSystem":
        """The same rule with quota and every weight multiplied by ``c``."""
        if not _is_int(c) or c < 1:
            raise ValueError(f"scale factor must be a positive integer, got {c!r}")
        return VotingSystem(self.quota * c, tuple(w * c for w in self.weights), self.names)

    # -- realization ---------------------------------------------------------

    def to_table(self) -> TruthTable:
        """Dense truth table: bit j is 1 iff row j's yes-weights reach the quota.

        Built by splitting on voters in order and memoizing on the residual
        quota, so the cost is bounded by ``n * total_weight`` big-int
        concatenations rather than a loop over all rows.
        """
        if self.n > N_MAX:
            raise ValueError(f"arity {self.n} exceeds dense-table limit {N_MAX}")
        weights = self.weights
        n = self.n
        remaining = [0] * (n + 2)
        for i in range(n, 0, -1):
            remaining[i] = remaining[i + 1] + weights[i - 1]
        memo: dict[tuple[int, int], int] = {}

        def build(i: int, need: int) -> int:
            if need <= 0:
                return (1 << (1 << (n - i + 1))) - 1
            if need > remaining[i]:
                return 0
            key = (i, need)
            got = memo.get(key)
            if got is None:
                half = 1 << (n - i)
                got = (build(i + 1, need - weights[i - 1]) << half) | build(i + 1, need)
                memo[key] = got
            return got

        return TruthTable(n, build(1, self.quota))


def check_scale_invariance(system: VotingSystem, c: int) -> bool:
    """Property hook: the table is unchanged when quota and weights scale by c."""
    return system.to_table() == system.scaled(c).to_table()
