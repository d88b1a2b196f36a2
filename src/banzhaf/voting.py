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

    def scaled(self, c: int) -> "VotingSystem":
        """The same rule with quota and every weight multiplied by ``c``."""
        if not _is_int(c) or c < 1:
            raise ValueError(f"scale factor must be a positive integer, got {c!r}")
        return VotingSystem(self.quota * c, tuple(w * c for w in self.weights), self.names)

    # -- realization ---------------------------------------------------------

    def to_table(self) -> TruthTable:
        """Dense truth table: bit j is 1 iff row j's yes-weights reach the quota.

        Built one level of the rule's decision diagram at a time, from the last
        voter up, on the quota each voter still needs to meet, so the cost is
        bounded by ``n * total_weight`` big-int concatenations, not a row loop.
        """
        if self.n > N_MAX:
            raise ValueError(f"arity {self.n} exceeds dense-table limit {N_MAX}")
        n, weights, rest = self.n, self.weights, self.total_weight
        # levels[i]: the needs open at voter i + 1, 0 < need <= weight from there on
        levels = [{self.quota} if self.quota <= rest else set()]
        for w in weights[:-1]:
            rest -= w
            levels.append({m for need in levels[-1] for m in (need, need - w) if 0 < m <= rest})
        tables: dict[int, int] = {}  # need -> table of the later voters; absent reads 0
        for i in range(n - 1, -1, -1):
            half, w = 1 << (n - 1 - i), weights[i]
            ones = (1 << half) - 1
            tables = {
                need: ((ones if need <= w else tables.get(need - w, 0)) << half)
                | tables.get(need, 0)
                for need in levels.pop()
            }
        return TruthTable(n, tables.get(self.quota, 0))


def check_scale_invariance(system: VotingSystem, c: int) -> bool:
    """Property hook: the table is unchanged when quota and weights scale by c."""
    return system.to_table() == system.scaled(c).to_table()
