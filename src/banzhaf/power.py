"""The Banzhaf power engine: swing counts, normalization, and cross-checks.

A voter's total Banzhaf power (TBP) is the number of ways that voter can
swing the outcome: winning vote configurations that turn losing when the
voter alone defects.  For a monotone rule this is exactly the weight of the
Boolean difference of the rule with respect to that voter.  :func:`analyze`
drops the light voters that can never swing (dummies: their Boolean
difference is 0), counts the rule on the others once, and reads the dummies
(zero counts) and the symmetry classes (equal counts) off the counts.  Two
exact sources count it: meeting in the middle between the subset sums of two
halves of the voters, and subset-sum counting over the other voters on the
smaller of the rule ``(q; w)`` and its dual ``(T - q + 1; w)``, ``T`` the
total weight (dualization, ``f^d(x) = not f(not x)``, keeps every
Boolean-difference weight).  Each is priced in O(n) before it runs
(:class:`~banzhaf.truthtable.Price`), the cheaper within
:data:`~banzhaf.truthtable.MAX_SECONDS` and :data:`~banzhaf.truthtable.MAX_BYTES`
runs, and the cross-check runs both within them, takes the weights on the
dense truth table (:func:`tbp_all`), one derivative per class, and fails on
any disagreement.

Swing-counting convention: each dummy voter doubles every raw swing count,
because an irrelevant vote can always be flipped without changing the
scenario.  All counts reported here therefore collapse configurations that
differ only in dummies' votes to a single swing, i.e. they are taken in the
subsystem of voters that can actually influence the outcome.  Normalized
powers are unaffected by the convention, and a count divided by
``2**(essential voters - 1)`` is still the voter's decisiveness probability.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate, islice, repeat
from math import gcd, log2
from operator import add, itemgetter
from struct import iter_unpack
from typing import Callable, NamedTuple, Optional, Sequence

from .truthtable import N_MAX, Price, TruthTable, _exp2
from .voting import VotingSystem

#: analyze() runs the oracle cross-check by default up to this arity.
ORACLE_AUTO_LIMIT = 12

#: Counts the subset-sum counter decodes into one list at a time when it reads
#: every field of its table: the list stays a few MB however large the table.
DP_BLOCK = 1 << 15


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
    holds exact reduced fractions summing to 1.  `classes` groups the 1-based
    voter indices by equal swing count, ordered by first member.
    """

    tbp: tuple[int, ...]
    ntbp: tuple[Fraction, ...]
    dummies: frozenset[int]
    classes: tuple[tuple[int, ...], ...]
    checks: StructuralChecks
    oracle_verified: bool


# -- Boolean-difference weights on the dense table ------------------------------


def _essential(raw: Sequence[int]) -> tuple[int, ...]:
    """Raw swing counts halved once per dummy voter (see the module docstring)."""
    dummies = sum(1 for c in raw if c == 0)
    return tuple(c >> dummies for c in raw)


def _groups(values: Sequence[object]) -> tuple[tuple[int, ...], ...]:
    """1-based indices grouped by equal ``values[i - 1]``, ordered by first member."""
    groups: dict[object, list[int]] = {}
    for i, v in enumerate(values, 1):
        groups.setdefault(v, []).append(i)
    return tuple(tuple(g) for g in groups.values())


def tbp_all(
    table: TruthTable, classes: Optional[Sequence[Sequence[int]]] = None
) -> tuple[int, ...]:
    """Swing counts for all voters: Boolean-difference weights, one per class.

    With a partition of voters ``1..n`` into interchangeable groups only the
    first member of each group is differentiated and the weight is broadcast,
    which is exactly equivalent to differentiating every variable.  Without
    one, every variable is processed.  Weights are halved once per zero
    weight, i.e. per dummy (see the module docstring).  Raises ``ValueError``
    when ``classes`` is not a partition: an empty group, an overlap, a gap or
    an index out of range.
    """
    n = table.n
    groups = [(i,) for i in range(1, n + 1)] if classes is None else classes
    if not all(groups) or sorted(i for g in groups for i in g) != list(range(1, n + 1)):
        raise ValueError(f"classes must partition voters 1..{n}, got {groups!r}")
    raw: dict[int, int] = {}
    for group in groups:
        raw.update(dict.fromkeys(group, table.difference_weight(group[0])))
    return _essential([raw[i] for i in range(1, n + 1)])


def normalize(tbp_values: Sequence[int]) -> tuple[Fraction, ...]:
    """Divide each swing count by their sum, as exact reduced fractions.

    One fraction is reduced per distinct count, and voters with equal counts
    (a symmetry class) share it.
    """
    total = sum(tbp_values)
    if total == 0:
        raise NoDecisiveVoterError(
            "no decisive voter: every Banzhaf power is zero, nothing to normalize by"
        )
    powers = {c: Fraction(c, total) for c in set(tbp_values)}
    return tuple(map(powers.__getitem__, tbp_values))


# -- meet-in-the-middle oracle --------------------------------------------------


def _subset_sums(weights: Sequence[int]) -> list[int]:
    """The sums of all ``2**len(weights)`` subsets, by doubling."""
    sums = [0]
    for w in weights:
        sums += [s + w for s in sums]
    return sums


# Meeting in the middle's cost model in microseconds: fixed, per subset sum (fit
# on 378 systems of 8-32 voters), and past 2**15 sums per sum and doubling, as the
# sorts and bisects leave the cache (0.65-1.56 times the time at 26-40 voters).
_MITM_US, _MITM_US_PER_SUM, _MITM_US_PAST_CACHE, _MITM_CACHE = 3.0, 0.57, 0.17, 1 << 15


def _mitm_price(n: int) -> Price:
    """The price of ``2**ceil(n/2) + 2**floor(n/2)`` subset sums, 72 bytes each."""
    sums = _exp2((n + 1) // 2) + _exp2(n // 2)
    us = _MITM_US + _MITM_US_PER_SUM * sums
    if sums > _MITM_CACHE:
        us += _MITM_US_PAST_CACHE * sums * log2(sums / _MITM_CACHE)
    return Price("meet-in-the-middle", us * 1e-6, 72 * sums)


def _mitm_swing_counts(quota: int, weights: tuple[int, ...]) -> tuple[int, ...]:
    """Raw per-voter swing counts by meeting in the middle (Horowitz & Sahni, 1974).

    The voters are cut by position into two halves.  A voter of weight ``w``
    swings with the others of sum in ``[quota - w, quota - 1]``, so its count
    is the sum, over the subset sums ``a`` of the rest of its half, of
    ``losing(a) - losing(a + w)``: ``losing(a)`` counts the other half's
    subset sums below ``quota - a``, one bisect per subset of a half.  Pure
    threshold arithmetic; it shares nothing with the table or the DP.
    Raises ``ValueError`` past a budget (:func:`_mitm_price`), before allocating.
    """
    n = len(weights)
    _mitm_price(n).check()
    halves = (weights[: n // 2], weights[n // 2 :])
    counts: list[int] = []
    for own, other in (halves, halves[::-1]):
        sums = sorted(_subset_sums(other))
        # losing(a) per subset of own: bit j of its index is set when own[j] votes yes
        losing = list(map(bisect_left, repeat(sums), [quota - a for a in _subset_sums(own)]))
        for _ in own:  # own[j] is bit 0 now: each subset without it, then with it
            without, with_ = losing[::2], losing[1::2]
            counts.append(sum(without) - sum(with_))
            losing = list(map(add, without, with_))  # own[j]'s vote summed out
    return tuple(counts)


def tbp_oracle_mitm(system: VotingSystem) -> tuple[int, ...]:
    """Independent swing counts by meeting in the middle; refused past a budget."""
    return _essential(_mitm_swing_counts(system.quota, system.weights))


# -- subset-sum oracle -----------------------------------------------------------


# The subset-sum counter's cost model in microseconds: a fixed cost per call,
# and a cost per byte operation of the big-integer passes, per decoded field,
# per strided byte sum (one per byte of a field in each run of prefix sums
# read) and per byte summed, fit on 369 systems of 4-250 voters (weights up to
# 10..10**12, quotas of 50-67 %) timed in both cases on a 2-vCPU Xeon with
# Python 3.11.7; on 378 more, the case it picks took 1.004 times the faster
# case's time on average, 1.26 times at worst.  Past a table of 2 MiB (the L2
# cache) each byte operation costs more on the table's share beyond it, four
# times more in the prefix passes, whose shifted copies reach twice the table:
# fit on 80 tables of 2-33 MB, 0.52-1.91 times the measured time there.
_DP_US, _DP_US_PER_BYTE_OP = 11.5, 4.16e-4
_DP_US_PER_FIELD, _DP_US_PER_RUN, _DP_US_PER_BYTE_SUM = 0.163, 0.62, 1.16e-3
_DP_CACHE, _DP_US_PAST_CACHE = 1 << 21, 2.6e-4


class _DPSize(NamedTuple):
    """The subset-sum counter's table for one input, after the gcd reduction,
    and its price: which case reads the window sums, and the estimated time."""

    g: int  # the gcd of the weights
    q: int  # the reduced quota: the table's fields
    nbytes: int  # bytes per field
    work: int  # byte operations of the per-voter passes
    steps: frozenset[int]  # the distinct nonzero reduced weights
    reads: int  # prefix sums the window sums read: sum(q // r) over the steps
    prefix: int  # byte operations of the log2(q) passes that make prefix sums

    def read_costs(self) -> tuple[float, float]:
        """Estimated time of the window sums by each case: decoding all ``q``
        fields, or ``log2(q)`` prefix passes and then, per run of prefix sums
        read, one strided byte sum per byte of a field."""
        runs = 1 + 2 * len(self.steps)
        byte_sums = self.nbytes * (_DP_US_PER_RUN * runs + _DP_US_PER_BYTE_SUM * self.reads)
        return _DP_US_PER_FIELD * self.q, _DP_US_PER_BYTE_OP * self.prefix + byte_sums

    def dense(self) -> bool:
        """Whether every field is decoded: the cheaper case by :meth:`read_costs`."""
        decode_all, byte_sums = self.read_costs()
        return decode_all <= byte_sums

    def price(self) -> Price:
        """Seconds of :func:`_dp_swing_counts`' passes and read, and its table's bytes."""
        table = self.q * self.nbytes
        if self.q.bit_length() > 1000:  # weights past the float range
            return Price("subset-sum counter", float("inf"), float("inf"))
        us = _DP_US + _DP_US_PER_BYTE_OP * self.work + min(self.read_costs())
        if table > _DP_CACHE:
            passes = self.work + (0 if self.dense() else 4 * self.prefix)
            us += _DP_US_PAST_CACHE * passes * (1 - _DP_CACHE / table)
        return Price("subset-sum counter", us * 1e-6, float(table))


def _dp_size(quota: int, weights: tuple[int, ...]) -> _DPSize:
    """The table :func:`_dp_swing_counts` builds for ``(quota; weights)``, in O(n).

    Its fields are the reduced quota of the rule or of its dual
    ``(T - quota + 1; weights)``, whichever is smaller, where ``T`` is the
    total weight: ``ceil(min(quota, T - quota + 1) / g)``.  The gcd step and
    the dual commute, since ``ceil((T - quota + 1) / g) = T/g - ceil(quota/g)
    + 1``.  Only for ``quota <= T``, so that some weight is nonzero.
    """
    g = gcd(*weights)
    q = -(-min(quota, sum(weights) - quota + 1) // g)
    nbytes = len(weights) // 8 + 1
    work = sum(1 for w in weights if w // g < q) * q * nbytes
    steps = frozenset(w // g for w in weights) - {0}
    reads = sum(q // r for r in steps)
    return _DPSize(g, q, nbytes, work, steps, reads, q * nbytes * (q - 1).bit_length())


def _dp_swing_counts(
    quota: int, weights: tuple[int, ...], size: Optional[_DPSize] = None
) -> tuple[int, ...]:
    """Raw per-voter swing counts by subset-sum counting, in exact integers.

    A voter of weight ``w`` swings for the subsets of the others whose sum
    lies in ``[quota - w, quota - 1]``.  Every voter swings as often in the
    dual rule ``(T - q + 1; w)``, ``T`` the total weight, since the
    complement among the others maps those sums one to one onto
    ``[T - q + 1 - w, T - q]``, so the counter counts the smaller of the two
    quotas, divided by the gcd (:func:`_dp_size`).  Only sums below it matter,
    so one forward pass counts the subsets of all voters at each sum
    ``s < q`` as the coefficients of the polynomial ``prod (1 + x**w) mod
    x**q``.  The coefficients are packed into one big integer,
    ``8 * (n // 8 + 1)`` bits each (no count exceeds ``2**n``), so a voter
    costs one shift and one add, plus a mask of the shifted copy once the
    weights inserted reach ``q``, and a voter with ``w >= q`` costs nothing.
    Dividing by ``1 + x**w`` un-inserts a voter, so the others' window sum
    for each *distinct* weight is an alternating sum of ``O(q / w)`` prefix
    sums of the counts.

    Costs O(n) big-integer operations on ``q * (n // 8 + 1)`` bytes, after
    the gcd step and the dual, then the window sums.  Those read about ``q / w``
    prefix sums per distinct weight, ``sum(q // w)`` in all, in runs of every
    ``2w``-th one.  The counter takes the case that :meth:`_DPSize.dense`
    estimates cheaper.  Either every count is decoded once, :data:`DP_BLOCK`
    at a time, and summed into prefix sums, and each window sum is a C-level
    strided slice of the block.  Or the same shift-and-add turns the packed
    counts into prefix sums in ``log2(q)`` more passes, and no field is
    decoded: by linearity a run's sum is, over the bytes of a field, one
    C-level strided slice of that byte summed and shifted into place.
    Nothing proportional to the total weight is allocated.  Raises ``ValueError``
    when :meth:`_DPSize.price` passes a budget, before allocating.  `size`,
    when given, is :func:`_dp_size` of the same input, priced within both.
    """
    if quota > sum(weights):  # nobody wins, so nobody swings (all-zero weights too)
        return (0,) * len(weights)
    if size is None:
        size = _dp_size(quota, weights)
        size.price().check()
    g, q, nbytes, steps = size.g, size.q, size.nbytes, size.steps
    bits = 8 * nbytes
    mask = (1 << q * bits) - 1
    poly, inserted = 1, 0  # inserted: the reduced weights multiplied in so far
    for w in sorted(weights):  # light voters first keep the integer short longer
        w //= g
        if w < q:  # (1 + x**w) = 1 mod x**q
            inserted += w
            if inserted < q:  # no field reaches x**q yet: nothing to mask off
                poly += poly << w * bits
            else:  # mask before the add: no field overflows, so the sum stays exact
                poly += (poly << w * bits) & mask

    # With pre[t] = #(subsets with sum < t), and pre[t] = 0 for t <= 0, the
    # others' count in [q - r, q - 1] is the sum over j >= 0 of
    # (-1)**j * (pre[q - j*r] - pre[q - (j+1)*r]), which regroups to
    # pre[q] - 2 * alternating[r], alternating[r] = pre[q - r] - pre[q - 2r] + ..
    if size.dense():
        counts = poly.to_bytes(q * nbytes, "little")
        del poly, mask  # only the packed counts stay alive next to a block

        def strided(pre: list[int], top: int, step: int) -> int:
            """Sum of pre[top] + pre[top - step] + .. over indices >= 1."""
            return sum(pre[(top - 1) % step + 1 : top + 1 : step]) if top > 0 else 0

        fields = map(
            int.from_bytes,
            map(itemgetter(0), iter_unpack(f"{nbytes}s", counts)),
            repeat("little"),
        )
        alternating = dict.fromkeys(steps, 0)
        base = carry = 0  # pre[0]
        while base < q:
            # pre[base + i] for i = 0 .. m, after the block's m counts
            pre = list(accumulate(islice(fields, DP_BLOCK), initial=carry))
            for r in alternating:
                top = q - r - base
                alternating[r] += strided(pre, top, 2 * r) - strided(pre, top - r, 2 * r)
            base += len(pre) - 1
            carry = pre[-1]
            del pre  # before the next block is decoded
        losing = carry  # pre[q]
    else:
        span = 1  # times 1 + x + .. + x**(2*span - 1): field s becomes pre[s + 1]
        while span < q:
            poly += (poly << span * bits) & mask
            span *= 2
        packed = poly.to_bytes(q * nbytes, "little")
        del poly, mask  # only the packed prefix sums stay alive during the reads

        def prefixes(top: int, step: int) -> int:
            """Sum of pre[top] + pre[top - step] + .. over t > 0: by linearity, the
            sum of each byte of those fields, one strided slice each, in place."""
            if top <= 0:  # a negative start would wrap around to the end
                return 0
            start, stride = (top - 1) * nbytes, -step * nbytes
            return sum(sum(packed[start + j :: stride]) << 8 * j for j in range(nbytes))

        losing = prefixes(q, q)
        alternating = {r: prefixes(q - r, 2 * r) - prefixes(q - 2 * r, 2 * r) for r in steps}
    by_weight = {0: 0}  # a weight-0 voter's window [q, q-1] is empty
    for w in set(weights) - {0}:
        by_weight[w] = losing - 2 * alternating[w // g]
    return tuple(by_weight[w] for w in weights)


def tbp_oracle_dp(system: VotingSystem) -> tuple[int, ...]:
    """Independent swing counts of all voters by subset-sum counting."""
    return _essential(_dp_swing_counts(system.quota, system.weights))


# -- full analysis ------------------------------------------------------------


def _essential_rule(system: VotingSystem) -> tuple[VotingSystem, tuple[int, ...]]:
    """The rule without the light voters that can never swing, and the
    0-based indices of the voters it keeps, in O(n log n).

    With the weights sorted, let ``S_j`` be the sum of the ``j`` lightest and
    ``g_j`` the gcd of the others.  The others' sum is a multiple of ``g_j``,
    and the light voters add at most ``S_j`` to it.  So when no multiple of
    ``g_j`` lies in ``[quota - S_j, quota - 1]``, the light voters never
    decide the outcome, and the rule is ``(ceil(quota / g_j); w / g_j)`` on
    the others.  That needs ``S_j < g_j``, so each light weight is below
    each kept one, and the largest such ``j`` drops every voter lighter than
    ``sorted(weights)[j]``.  A second reduction of its rule drops nothing.
    With nothing to drop (``j = 0``, or all weights 0), the system is
    returned as it is.
    """
    quota, weights = system.quota, system.weights
    n = len(weights)
    ordered = sorted(weights)
    light = list(accumulate(ordered, initial=0))  # light[j]: S_j
    gcds = list(accumulate(reversed(ordered), gcd))[::-1]  # gcds[j]: g_j
    j = next(
        (
            j
            for j in range(n - 1, 0, -1)
            if light[j] < gcds[j] and (light[j] - quota) // gcds[j] == -quota // gcds[j]
        ),
        0,
    )
    if not j:
        return system, tuple(range(n))
    g, lightest_kept = gcds[j], ordered[j]
    kept = tuple(i for i, w in enumerate(weights) if w >= lightest_kept)
    return VotingSystem(-(-quota // g), tuple(weights[i] // g for i in kept)), kept


def _sources(system: VotingSystem) -> dict[str, tuple[float, Callable[[], tuple[int, ...]]]]:
    """Every count source within both budgets, as ``{name: (seconds, call)}``:
    subset-sum counting (:meth:`_DPSize.price`) and meeting in the middle
    (:func:`_mitm_price`), priced in O(n); each call returns the raw swing
    counts.  Raises ``ValueError``, naming each price, when none fits."""
    n, quota, weights = system.n, system.quota, system.weights
    size = _dp_size(quota, weights) if quota <= system.total_weight else None
    # with no size the rule is constant 0, and the counter returns at once
    dp_price = size.price() if size else Price("subset-sum counter", 0.0, 0.0)
    priced = {
        "subset-sum": (dp_price, partial(_dp_swing_counts, quota, weights, size)),
        "meet-in-the-middle": (_mitm_price(n), partial(_mitm_swing_counts, quota, weights)),
    }
    sources = {name: (p.seconds, count) for name, (p, count) in priced.items() if not p.refusal()}
    if not sources:
        refusals = "; ".join(p.refusal() for p, _ in priced.values())
        raise ValueError(f"no count source fits {n} voters: {refusals}")
    return sources


def analyze(system: VotingSystem, verify: Optional[bool] = None) -> PowerReport:
    """Analyze a voting system: powers, dummies, symmetry classes, findings.

    First, in O(n log n), the light voters that can never swing are dropped
    and the others' weights and the quota divided by their gcd
    (:func:`_essential_rule`); the dropped voters get count 0.  The reduced
    rule is counted by the sources within both budgets (:func:`_sources`),
    and ``ValueError`` is raised before anything is built when none fits.
    Without `verify` only the source of least price runs, and no truth table
    is built.  The counts are the same exact integers whichever source gives
    them, and so is the report: the dummies are the zero counts and the
    classes the groups of equal counts, since two voters of a weighted rule
    are interchangeable exactly when they swing equally often (Taylor &
    Zwicker, *Simple Games*, 1999).  The rule is monotone, and causal unless
    the quota exceeds the total weight, when it is constant.  By default up
    to :data:`ORACLE_AUTO_LIMIT` voters (`verify` overrides this either way)
    every source within both budgets runs on the reduced rule, and their
    counts, which are reported, must all equal the weights on the whole
    system's table (:func:`tbp_all`), which also checks the reduction, the
    classes, the dummies and the findings.  ``verify=True`` beyond
    :data:`~banzhaf.truthtable.N_MAX` voters raises ``ValueError``.
    """
    n = system.n
    if verify is None:
        verify = n <= ORACLE_AUTO_LIMIT
    if verify and n > N_MAX:
        raise ValueError(
            f"verify needs a truth table, at most N_MAX = {N_MAX} voters: pass verify=False for {n}"
        )
    quota, total = system.quota, system.total_weight
    # non-negative weights can only help a bill, and the empty coalition loses
    checks = StructuralChecks(True, quota <= total, quota > total)
    reduced, kept = _essential_rule(system)
    sources = _sources(reduced)

    def spread(raw: tuple[int, ...]) -> tuple[int, ...]:
        """The reduced rule's raw counts as the system's counts: each dropped
        voter doubles every raw count, and the halving per zero undoes that."""
        tbp = [0] * n
        for i, c in zip(kept, _essential(raw)):
            tbp[i] = c
        return tuple(tbp)

    if verify:  # so n <= N_MAX: meeting in the middle fits
        counts = {name: spread(count()) for name, (_, count) in sources.items()}
        tbp_vec = next(iter(counts.values()))
    else:  # the first source of least estimate
        _, count = min(sources.values(), key=itemgetter(0))
        tbp_vec = spread(count())
    dummies = frozenset(i for i, c in enumerate(tbp_vec, 1) if c == 0)
    classes = _groups(tbp_vec)

    if verify:
        # The transpositions, one per class member after the first, show that
        # each class is symmetric in the table, so the one derivative per
        # class that tbp_all takes is every member's exact weight.  The
        # sources must equal those weights, and a voter's weight is zero
        # exactly when the table is vacuous in it, so that equality checks
        # the dummies too.  Symmetric voters have equal weights, so they share
        # a class, and the classes are the table's symmetry classes.  The
        # table is the whole system's, so it checks the reduction too.
        table = system.to_table()
        counts["table"] = tbp_all(table, classes)
        if not (
            len(set(counts.values())) == 1
            and checks
            == StructuralChecks(
                table.is_monotone(), table.is_causal(), table.weight() in (0, 1 << n)
            )
            and all(table.is_symmetric_in(group[0], i) for group in classes for i in group[1:])
        ):
            found = " ".join(f"{name}={vec}" for name, vec in counts.items())
            raise OracleDisagreementError(
                f"analysis of {system} fails its cross-check: {found} "
                f"dummies={sorted(dummies)} classes={classes} checks={checks}"
            )

    ntbp = normalize(tbp_vec) if any(tbp_vec) else ()
    return PowerReport(tbp_vec, ntbp, dummies, classes, checks, bool(verify))
