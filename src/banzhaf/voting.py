"""Weighted yes-no voting systems and their dense truth tables.

A system is a quota plus one non-negative integer weight per voter: a bill
passes when the yes-voters' weights sum to the quota or beyond.  The rule is
therefore a threshold switching function, pinned down by ``n + 1`` integers
instead of ``2**n`` table entries, and scale-invariant: multiplying quota and
weights by the same positive constant changes nothing.  The dense table
(:meth:`VotingSystem.to_table`) is folded up the rule's decision diagram,
which stores each rule that fixing some votes leaves once.

Quotas above the total weight are deliberately legal - the analyzer reports
the resulting constant-0 system as a finding rather than refusing it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

from .truthtable import N_MAX, TruthTable, _is_int


#: Node ids of the two constants on every level of a rule's decision diagram.
ZERO, ONE = 0, 1


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

    def _diagram(self) -> tuple[list[list[int]], list[list[int]]]:
        """The rule's ordered decision diagram, one level per voter, voters in
        the system's order, as its per-level child lists ``(no, yes)``.

        Level ``i`` (0-based) holds the distinct rules on voters ``i + 1..n``
        that fixing the votes of the voters before them leaves.  Ids
        :data:`ZERO` and :data:`ONE` are the constants, and ``no[i][k - 2]``
        and ``yes[i][k - 2]`` are the children of level ``i``'s inner node
        ``k`` when voter ``i + 1`` says no and yes, both ids on level
        ``i + 1``; level ``n`` has only the constants.  The root is inner node
        2 of level 0, and there is none when the rule is constant 0.  The
        diagram is quasi-reduced: no two nodes of a level are the same rule,
        and a node whose children are equal is kept, so that every edge goes
        down exactly one level.

        Fixing the votes of voters ``1..i`` leaves a threshold rule on the
        others with the quota they still need, and the needs that leave the
        same rule form an interval.  A node is a level and such an interval:
        from the intervals ``[a0, b0]`` of its no child and ``[a1, b1]`` of its
        yes child, both a level down, a voter of weight ``w`` gets
        ``[max(a0, a1 + w), min(b0, b1 + w)]``.  The nodes are made depth
        first by a recursive helper: a need that no interval of its level
        holds yet gets a node once its no child and then its yes child are
        looked up or made.  The recursion takes one frame per level, so it is
        at most ``N_MAX + 1`` = 25 frames deep.  Level ``i`` holds at most
        ``min(2**i, 2**(n - i) + 1)`` inner nodes, about 12.3k in all at 24
        voters, whatever the weights.  Raises ``ValueError`` beyond
        :data:`~banzhaf.truthtable.N_MAX` voters.
        """
        if self.n > N_MAX:
            raise ValueError(f"a diagram of {self.n} voters exceeds its limit N_MAX = {N_MAX}")
        n, weights = self.n, self.weights
        rests = [0] * (n + 1)  # rests[i]: the weight of voters i + 1..n
        for i in range(n - 1, -1, -1):
            rests[i] = rests[i + 1] + weights[i]
        # per level, its inner nodes' interval lows and highs in order, their
        # ids, and their children in id order; no per-node tuple outlives the call
        lows: list[list[int]] = [[] for _ in range(n)]
        highs: list[list[int]] = [[] for _ in range(n)]
        ids: list[list[int]] = [[] for _ in range(n)]
        nos: list[list[int]] = [[] for _ in range(n)]
        yeses: list[list[int]] = [[] for _ in range(n)]

        def node(i: int, need: int) -> tuple[int, Optional[int], Optional[int]]:
            """Id and interval of the level-``i`` node for ``need``, made if new.

            A constant's interval is unbounded on one side, given as None:
            ONE's is (-inf, 0] and ZERO's [rests[i] + 1, inf).
            """
            if need <= 0:
                return ONE, None, 0
            if need > rests[i]:
                return ZERO, rests[i] + 1, None
            k = bisect_right(lows[i], need) - 1
            if k >= 0 and need <= highs[i][k]:
                return ids[i][k], lows[i][k], highs[i][k]
            w = weights[i]
            # 0 < need <= rests[i], so the no child is not ONE and the yes
            # child is not ZERO: a0 and b1 are bounded
            c0, a0, b0 = node(i + 1, need)
            c1, a1, b1 = node(i + 1, need - w)
            low = a0 if a1 is None else max(a0, a1 + w)
            high = b1 + w if b0 is None else min(b0, b1 + w)
            made = len(nos[i]) + 2
            k = bisect_right(lows[i], low)
            lows[i].insert(k, low)
            highs[i].insert(k, high)
            ids[i].insert(k, made)
            nos[i].append(c0)
            yeses[i].append(c1)
            return made, low, high

        node(0, self.quota)
        del node  # the helper refers to itself; drop that cycle with it
        return nos, yeses

    def to_table(self) -> TruthTable:
        """Dense truth table: bit j is 1 iff row j's yes-weights reach the quota.

        Folded up the rule's decision diagram (:meth:`_diagram`), which is
        built first: a node's table is its yes child's table above its no
        child's, one shift and one ``|`` per node, and each level's tables
        are dropped as soon as the level above is built.  Raises
        ``ValueError`` beyond :data:`~banzhaf.truthtable.N_MAX` voters.
        """
        n = self.n
        nos, yeses = self._diagram()
        tables = [0, 1]  # ZERO and ONE on level n, where no vote is left
        for i in range(n - 1, -1, -1):
            half = 1 << (n - 1 - i)
            tables = [0, (1 << 2 * half) - 1] + [
                (tables[yes] << half) | tables[no] for no, yes in zip(nos[i], yeses[i])
            ]
        return TruthTable(n, tables[2] if len(tables) > 2 else 0)
