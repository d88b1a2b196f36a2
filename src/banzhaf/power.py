"""The Banzhaf power engine: swing counts, normalization, and cross-checks.

A voter's total Banzhaf power (TBP) is the number of ways that voter can
swing the outcome: winning vote configurations that turn losing when the
voter alone defects.  For a monotone rule this is exactly the weight of the
Boolean difference of the rule with respect to that voter, which the main
path computes on the dense truth table.  Two independent oracles recompute
the same number from the quota-and-weights description alone - one by direct
enumeration of all vote configurations, one by subset-sum counting over the
other voters - and :func:`analyze` treats any disagreement as a hard error.
:func:`analyze` computes the count vector once per system; the dummies (zero
counts) and the symmetry classes (equal counts) are read off it.

Swing-counting convention: each dummy voter doubles every raw swing count,
because an irrelevant vote can always be flipped without changing the
scenario.  All counts reported here therefore collapse configurations that
differ only in dummies' votes to a single swing, i.e. they are taken in the
subsystem of voters that can actually influence the outcome.  Normalized
powers are unaffected by the convention, and a count divided by
``2**(essential voters - 1)`` is still the voter's decisiveness probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .truthtable import N_MAX, TruthTable
from .voting import SymmetryClasses, VotingSystem

#: analyze() runs the oracle cross-check by default up to this arity.
ORACLE_AUTO_LIMIT = 12


class OracleDisagreementError(RuntimeError):
    """The analysis and an independent recomputation disagree.

    Either the oracles returned different swing counts, or the dummies or
    symmetry classes read off the counts disagree with the truth table.

    This always signals an implementation bug, never a property of the
    analyzed system, so it is raised rather than reported.
    """


class NoDecisiveVoterError(ValueError):
    """Normalization was requested for an all-zero power vector."""


@dataclass(frozen=True)
class StructuralChecks:
    """Structural findings about the rule as a switching function."""

    monotone: bool
    causal: bool
    constant: bool


@dataclass(frozen=True)
class PowerReport:
    """Full power analysis of one voting system.

    `ntbp` is empty when every voter is a dummy (constant rule); otherwise it
    holds exact reduced fractions summing to 1.
    """

    tbp: tuple[int, ...]
    ntbp: tuple[Fraction, ...]
    dummies: frozenset[int]
    classes: SymmetryClasses
    checks: StructuralChecks
    oracle_verified: bool


# -- derivative-weight path ----------------------------------------------------


def _essential(raw: Sequence[int]) -> tuple[int, ...]:
    """Raw swing counts halved once per dummy voter (see the module docstring)."""
    dummies = sum(1 for c in raw if c == 0)
    return tuple(c >> dummies for c in raw)


def tbp(table: TruthTable, i: int) -> int:
    """Swing count of voter ``i`` from the dense table of the rule.

    Weight of the Boolean difference about ``X_i``, divided by ``2**d`` for
    the ``d`` dummy variables among the others (see the module docstring).
    """
    if not 1 <= i <= table.n:
        raise ValueError(f"variable index {i} out of range 1..{table.n}")
    return tbp_all(table)[i - 1]


def tbp_all(table: TruthTable, classes: Optional[SymmetryClasses] = None) -> tuple[int, ...]:
    """Swing counts for all voters: Boolean-difference weights, one per class.

    With a partition into interchangeable voters only class representatives
    are differentiated and the weight is broadcast, which is exactly
    equivalent to differentiating every variable.  Without one, every
    variable is processed.  Weights are halved once per zero weight, i.e.
    per dummy (see the module docstring).
    """
    groups = classes if classes is not None else [(i,) for i in range(1, table.n + 1)]
    raw: dict[int, int] = {}
    for group in groups:
        raw.update(dict.fromkeys(group, table.difference_weight(group[0])))
    if len(raw) != table.n:
        raise ValueError("symmetry classes do not cover all voters")
    return _essential([raw[i] for i in range(1, table.n + 1)])


def normalize(tbp_values: Sequence[int]) -> tuple[Fraction, ...]:
    """Divide each swing count by their sum, as exact reduced fractions."""
    total = sum(tbp_values)
    if total == 0:
        raise NoDecisiveVoterError(
            "no decisive voter: every Banzhaf power is zero, nothing to normalize by"
        )
    return tuple(Fraction(v, total) for v in tbp_values)


# -- enumeration oracle ---------------------------------------------------------


def _enum_swing_counts(quota: int, weights: tuple[int, ...]) -> tuple[int, ...]:
    """Raw per-voter swing counts by walking all 2**n vote configurations.

    Pure threshold arithmetic on weighted sums; shares nothing with the
    truth-table machinery.
    """
    n = len(weights)
    size = 1 << n
    sums = [0] * size
    for j in range(1, size):
        low = j & -j
        sums[j] = sums[j ^ low] + weights[n - low.bit_length()]
    counts = [0] * n
    for j in range(size):
        s = sums[j]
        if s >= quota:
            m = j
            while m:
                low = m & -m
                m ^= low
                k = n - low.bit_length()
                if s - weights[k] < quota:
                    counts[k] += 1
    return tuple(counts)


def _oracle_count(kernel, system: VotingSystem, i: int) -> int:
    """Voter ``i``'s count from an oracle kernel's whole raw count vector."""
    if not 1 <= i <= system.n:
        raise ValueError(f"voter index {i} out of range 1..{system.n}")
    return _essential(kernel(system.quota, system.weights))[i - 1]


def tbp_oracle_enum(system: VotingSystem, i: int) -> int:
    """Independent swing count for voter ``i`` by exhaustive enumeration."""
    if system.n > N_MAX:
        raise ValueError(f"enumeration oracle limited to {N_MAX} voters, got {system.n}")
    return _oracle_count(_enum_swing_counts, system, i)


# -- subset-sum oracle -----------------------------------------------------------


def _dp_swing_counts(quota: int, weights: tuple[int, ...]) -> tuple[int, ...]:
    """Raw per-voter swing counts by subset-sum counting, in exact integers.

    One forward pass counts the subsets of all voters at each weight sum;
    each voter is then un-inserted to get the distribution over the others,
    and the swings are the subsets landing in ``[quota - w, quota - 1]``.
    Costs O(n * total_weight) arithmetic operations, so it also serves
    systems too large for a dense table.
    """
    total = sum(weights)
    full = [0] * (total + 1)
    full[0] = 1
    for w in weights:
        for s in range(total - w, -1, -1):
            full[s + w] += full[s]
    counts = []
    for w in weights:
        if w == 0:
            counts.append(0)  # the swing interval [quota, quota-1] is empty
            continue
        others = [0] * (total + 1)
        for s in range(total + 1):
            others[s] = full[s] - (others[s - w] if s >= w else 0)
        lo, hi = max(0, quota - w), min(quota - 1, total)
        counts.append(sum(others[lo : hi + 1]))
    return tuple(counts)


def tbp_oracle_dp(system: VotingSystem, i: int) -> int:
    """Independent swing count for voter ``i`` by subset-sum counting."""
    return _oracle_count(_dp_swing_counts, system, i)


# -- full analysis ------------------------------------------------------------


def analyze(system: VotingSystem, verify: Optional[bool] = None) -> PowerReport:
    """Analyze a voting system: powers, dummies, symmetry classes, findings.

    The swing counts come from the dense table's Boolean-difference weights
    up to :data:`~banzhaf.truthtable.N_MAX` voters, one per group of equal
    weights, and from the subset-sum oracle beyond.  On both routes the
    dummies are the zero counts and the classes the groups of equal counts:
    two voters of a weighted rule are interchangeable exactly when they swing
    equally often (Taylor & Zwicker, *Simple Games*, 1999).  By default up to
    :data:`ORACLE_AUTO_LIMIT` voters (`verify` overrides this either way) the
    counts are cross-checked against both oracles, and the dummies and
    classes against the table's vacuity and transposition tests.
    """
    n = system.n
    if n > N_MAX:
        if verify:
            raise ValueError(f"cross-check needs a dense table, so at most {N_MAX} voters")
        table = None
        tbp_vec = _essential(_dp_swing_counts(system.quota, system.weights))
        total = system.total_weight
        # non-negative weights can only help a bill
        checks = StructuralChecks(True, system.quota <= total, system.quota > total)
    else:
        table = system.to_table()
        tbp_vec = tbp_all(table, SymmetryClasses.of_equal(system.weights))
        checks = StructuralChecks(
            monotone=table.is_monotone(),
            causal=table.is_causal(),
            constant=table.weight() in (0, 1 << n),
        )
    dummies = frozenset(i for i, c in enumerate(tbp_vec, 1) if c == 0)
    classes = SymmetryClasses.of_equal(tbp_vec)

    if verify is None:
        verify = n <= ORACLE_AUTO_LIMIT
    do_verify = table is not None and bool(verify)
    if do_verify:
        enum_vec = _essential(_enum_swing_counts(system.quota, system.weights))
        dp_vec = _essential(_dp_swing_counts(system.quota, system.weights))
        lookup = {i: group for group in classes for i in group}
        voters = range(1, n + 1)
        if not (
            tbp_vec == enum_vec == dp_vec
            and all((i in dummies) == table.is_vacuous_in(i) for i in voters)
            and all(
                (lookup[i] is lookup[j]) == table.is_symmetric_in(i, j)
                for i, j in combinations(voters, 2)
            )
        ):
            raise OracleDisagreementError(
                f"analysis of {system} fails its cross-check: derivative={tbp_vec} "
                f"enumeration={enum_vec} subset-sum={dp_vec} dummies={sorted(dummies)} "
                f"classes={classes.classes}"
            )

    ntbp = normalize(tbp_vec) if any(tbp_vec) else ()
    return PowerReport(tbp_vec, ntbp, dummies, classes, checks, do_verify)
