"""Test-side references that share no code with the package's kernels.

`enum_swing_counts` walks all 2**n vote configurations: the definition the
package's count routes are tested against, pure threshold arithmetic on
weighted sums.  Its cost doubles per voter, so tests use it up to about 12
voters.  `table_of`, `lift`, `count_table`, `rule_tables` and `scaled` build
test inputs row by row or from a system's fields.

`disjoint_cover` and `ie_weight` are the plain forms of the package's SOP
kernels on ``(pos, neg)`` cube masks: sequential disjointing that expands
every earlier cube against every piece, and inclusion-exclusion that tests
each extended conjunction for a clash.  The package's kernels skip work
whose outcome is fixed in advance and must give the same covers and sums.
"""

from itertools import combinations

from banzhaf import TruthTable, VotingSystem


def table_of(rows):
    """The table with the given output column, row 0 first."""
    return TruthTable(len(rows).bit_length() - 1, sum(v << j for j, v in enumerate(rows)))


def lift(table, i):
    """`table` with a new, irrelevant variable inserted as X_i, row by row."""
    n = table.n + 1
    low = (1 << (n - i)) - 1  # the row bits of X_{i+1}..X_n
    return table_of([table.row((j >> 1) & ~low | j & low) for j in range(1 << n)])


def count_table(n, placement, charset):
    """The n-variable table that is 1 exactly on the rows where the number of
    `placement` variables set lies in `charset`, row by row.

    With every variable placed this is the symmetric function of
    characteristic set `charset`: ``count_table(n, range(1, n + 1), range(k,
    n + 1))`` is k-out-of-n, ``count_table(n, (i,), {1})`` the literal X_i and
    ``count_table(n, (), {0})`` constant 1.
    """
    return table_of(
        [int(sum((j >> (n - i)) & 1 for i in placement) in charset) for j in range(1 << n)]
    )


def rule_tables(weights, quotas):
    """The table of the rule ``(q; weights)`` for each q in `quotas`, as
    ``(q, table)`` pairs, row by row: row j is 1 when the voters X_i with bit
    n - i of j set weigh at least q."""
    n = len(weights)
    sums = [0] * (1 << n)
    for j in range(1, 1 << n):
        low = j & -j
        sums[j] = sums[j ^ low] + weights[n - low.bit_length()]
    for q in quotas:
        yield q, table_of([int(s >= q) for s in sums])


def scaled(system, c):
    """The same rule with quota and every weight multiplied by c."""
    return VotingSystem(system.quota * c, tuple(w * c for w in system.weights), system.names)


def enum_swing_counts(quota, weights):
    """Raw per-voter swing counts: winning configurations that turn losing
    when that voter alone defects."""
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


def enum_tbp(system):
    """The reported counts: raw counts halved once per dummy (zero count)."""
    raw = enum_swing_counts(system.quota, system.weights)
    dummies = sum(1 for c in raw if c == 0)
    return tuple(c >> dummies for c in raw)


def _times_complement(p, q, bp, bq):
    """Expand ``(p, q) & ~(bp, bq)`` into disjoint mask pairs, in variable order.

    A piece that already clashes with the blocker is kept whole; one that
    holds all of the blocker's literals yields nothing.
    """
    if p & bq or q & bp:
        return [(p, q)]
    out = []
    missing = (bp & ~p) | (bq & ~q)
    while missing:
        v = missing & -missing
        missing ^= v
        if v & bp:
            out.append((p, q | v))
            p |= v
        else:
            out.append((p | v, q))
            q |= v
    return out


def disjoint_cover(cubes, cap):
    """Sequential disjointing of `cubes`, stable-sorted by literal count, as a
    tuple of cubes; pairwise disjoint cubes are returned in their own order.

    Raises ``ValueError`` when, after any earlier cube, the cubes produced so
    far would pass `cap`.
    """
    if all(ap & bq or aq & bp for (ap, aq), (bp, bq) in combinations(cubes, 2)):
        return tuple(cubes)
    cubes = sorted(cubes, key=lambda cube: bin(cube[0] | cube[1]).count("1"))
    out = []
    for k, cube in enumerate(cubes):
        fragments = [cube]
        for bp, bq in cubes[:k]:
            fragments = [piece for p, q in fragments for piece in _times_complement(p, q, bp, bq)]
            if not fragments:
                break
            if len(out) + len(fragments) > cap:
                raise ValueError(f"disjointing cube {k + 1} passes the cap of {cap} cubes")
        out.extend(fragments)
    return tuple(out)


def ie_weight(n, cubes):
    """Inclusion-exclusion over the cube subsets whose conjunction does not clash."""
    m = len(cubes)
    total = 0
    stack = [(0, 0, 0, 1)]
    while stack:
        start, p, q, sign = stack.pop()
        for j in range(start, m):
            cp, cq = cubes[j]
            jp, jq = p | cp, q | cq
            if jp & jq:
                continue
            total += sign << (n - (jp | jq).bit_count())
            if j + 1 < m:
                stack.append((j + 1, jp, jq, -sign))
    return total
