"""Reference swing counts by walking all 2**n vote configurations.

This is the definition the package's count routes are tested against: pure
threshold arithmetic on weighted sums, sharing no code with the package.
Its cost doubles per voter, so tests use it up to about 12 voters.
"""


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
