"""Seeded inputs, independent output checks and input properties.

Nothing here imports ``banzhaf``.  Every expected answer is recomputed by the
benchmark's own code: swing counts by a subset-sum counter, SOP weights by a
table builder.  A bug shared by the package and its own oracles therefore
still shows up as a failed check.

Each workload is a fixed cycle of input *shapes* (size and kind); the seed
only draws the concrete weights, quotas and cubes.  Every run therefore sees
the same mix in the same order, and the loop in ``run.py`` stops at a cycle
boundary so that a run never ends on a lopsided partial mix.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

#: The package's dense-table limit: above it ``analyze`` takes the subset-sum route.
N_MAX = 24

#: Failures the benchmark attributes to a named, known defect of the package.
#: They count in ``failed`` and ``fail_rate`` like any other failure, but do
#: not turn ``correct`` false; any failure outside this list does.
KNOWN_DEFECTS = {
    "classes-by-weight": (
        "ROADMAP item 2: above N_MAX analyze() groups symmetry classes by equal "
        "weight instead of equal swing count"
    ),
}


# -- reference: swing counts --------------------------------------------------


def swing_counts(quota: int, weights: tuple[int, ...]) -> list[int]:
    """Raw per-voter swing counts, by subset-sum counting truncated at the quota.

    ``P[s]`` counts the subsets of *all* voters with weight sum ``s < quota``;
    it is built as one packed big integer, one fixed-width field per sum.
    Leaving out a voter of weight ``w`` divides the generating function by
    ``1 + x**w``, so the others reach sum ``s`` in ``sum_j (-1)**j P[s - j*w]``
    ways.  Summed over the swing window ``[quota - w, quota - 1]`` these terms
    tile ``[0, quota - 1]`` with windows of width ``w``, which needs only the
    prefix sums of ``P``.
    """
    n = len(weights)
    field = n // 8 + 1  # bytes per count; a count is at most 2**n
    bits = 8 * field
    mask = (1 << (quota * bits)) - 1
    poly = 1
    for w in weights:
        if w < quota:
            poly = (poly + (poly << (w * bits))) & mask
    packed = poly.to_bytes(quota * field, "little")
    prefix = [0] * (quota + 1)  # prefix[k] = P[0] + .. + P[k-1]
    for s in range(quota):
        prefix[s + 1] = prefix[s] + int.from_bytes(packed[s * field : (s + 1) * field], "little")
    by_weight = {}
    for w in set(weights):
        count, sign, hi = 0, 1, quota
        while w and hi > 0:
            lo = max(0, hi - w)
            count += sign * (prefix[hi] - prefix[lo])
            sign, hi = -sign, lo
        by_weight[w] = count
    return [by_weight[w] for w in weights]


@dataclass(frozen=True)
class Expected:
    """What a correct analysis of one system reports, by the README's convention."""

    tbp: tuple[int, ...]
    ntbp: tuple[Fraction, ...]
    dummies: frozenset[int]
    classes: tuple[tuple[int, ...], ...]
    monotone: bool
    causal: bool
    constant: bool


def group_by(values) -> tuple[tuple[int, ...], ...]:
    """1-based indices grouped by equal value, groups ordered by first member."""
    groups: dict = {}
    for i, v in enumerate(values, 1):
        groups.setdefault(v, []).append(i)
    return tuple(tuple(g) for g in groups.values())


@lru_cache(maxsize=1)  # the check and the input's properties both ask
def expected_analysis(quota: int, weights: tuple[int, ...]) -> Expected:
    raw = swing_counts(quota, weights)
    zeros = raw.count(0)
    # Dummies' votes never matter: configurations differing only in them are
    # one swing scenario, so each dummy halves the raw counts.
    tbp = tuple(c >> zeros for c in raw)
    total = sum(tbp)
    return Expected(
        tbp=tbp,
        ntbp=tuple(Fraction(c, total) for c in tbp) if total else (),
        dummies=frozenset(i for i, c in enumerate(tbp, 1) if c == 0),
        # Taylor & Zwicker: voters are interchangeable iff their counts are equal.
        classes=group_by(tbp),
        monotone=True,
        causal=quota <= sum(weights),
        constant=quota > sum(weights),
    )


# -- reference: SOP weight ------------------------------------------------------


def sop_weight(cubes: list[tuple[frozenset, frozenset]], n: int) -> int:
    """True rows of an OR of cubes over ``n`` variables, from a dense bitset.

    ``cubes`` holds (positive, complemented) sets of 0-based variable indices.
    """
    size = 1 << n
    full = (1 << size) - 1
    var = []
    for i in range(n):
        half = 1 << i  # rows where bit i of the row index is set
        pattern, length = ((1 << half) - 1) << half, 2 * half
        while length < size:
            pattern |= pattern << length
            length *= 2
        var.append(pattern)
    table = 0
    for pos, neg in cubes:
        term = full
        for i in pos:
            term &= var[i]
        for i in neg:
            term &= ~var[i]
        table |= term
    return (table & full).bit_count()


def parse_cubes(expr: str, names: list[str]) -> list[tuple[frozenset, frozenset]]:
    """The benchmark's own reading of the SOP text it generated."""
    index = {name: k for k, name in enumerate(names)}
    cubes = []
    for term in expr.split("|"):
        pos, neg = set(), set()
        for lit in term.split():
            if lit.endswith("'"):
                neg.add(index[lit[:-1]])
            else:
                pos.add(index[lit])
        cubes.append((frozenset(pos), frozenset(neg)))
    return cubes


# -- output checks -----------------------------------------------------------------


@dataclass(frozen=True)
class Failure:
    reason: str
    defect: Optional[str] = None  # a KNOWN_DEFECTS key, when the failure is one


def _compare(exp: Expected, got: dict) -> list[str]:
    bad = []
    for field in ("tbp", "ntbp", "dummies", "classes", "monotone", "causal", "constant"):
        want = getattr(exp, field)
        if field == "classes":
            want = sorted(want)
        if got[field] != want:
            bad.append(field)
    return bad


def check_report(inp: dict, report) -> Optional[Failure]:
    """Check a ``PowerReport`` from ``analyze`` against the reference."""
    quota, weights = inp["quota"], tuple(inp["weights"])
    exp = expected_analysis(quota, weights)
    got = {
        "tbp": tuple(report.tbp),
        "ntbp": tuple(report.ntbp),
        "dummies": frozenset(report.dummies),
        "classes": sorted(tuple(g) for g in report.classes),
        "monotone": report.checks.monotone,
        "causal": report.checks.causal,
        "constant": report.checks.constant,
    }
    bad = _compare(exp, got)
    if not bad:
        return None
    reason = f"{', '.join(bad)} differ for quota={quota} n={len(weights)}"
    if bad == ["classes"] and len(weights) > N_MAX and got["classes"] == sorted(group_by(weights)):
        return Failure(reason, "classes-by-weight")
    return Failure(reason)


def check_cli_analyze(inp: dict, out: tuple[int, str, str]) -> Optional[Failure]:
    """Check ``banzhaf analyze --format json``: exit code and every reported field."""
    code, stdout, stderr = out
    if code != 0:
        return Failure(f"exit code {code}: {stderr.strip()[:200]}")
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return Failure(f"unparsable JSON report: {exc}")
    names = inp["names"]
    pos = {name: k for k, name in enumerate(names, 1)}
    exp = expected_analysis(inp["quota"], tuple(inp["weights"]))
    try:
        got = {
            "tbp": tuple(doc["tbp"]),
            "ntbp": tuple(Fraction(e["num"], e["den"]) for e in doc["ntbp"]),
            "dummies": frozenset(pos[name] for name in doc["dummies"]),
            "classes": sorted(tuple(pos[name] for name in g) for g in doc["symmetry_classes"]),
            **doc["checks"],
        }
        bad = _compare(exp, got)
        if doc["names"] != names or doc["weights"] != inp["weights"] or doc["quota"] != inp["quota"]:
            bad.append("echoed input")
        if doc["oracle_verified"] is not True:
            bad.append("oracle_verified")
    except (KeyError, TypeError) as exc:
        return Failure(f"malformed JSON report: {exc!r}")
    return Failure(f"{', '.join(bad)} differ") if bad else None


def check_cli_weight(inp: dict, out: tuple[int, str, str]) -> Optional[Failure]:
    """Check ``banzhaf weight --method all``: exit code and all three weights."""
    code, stdout, stderr = out
    if code != 0:
        return Failure(f"exit code {code}: {stderr.strip()[:200]}")
    want = sop_weight(parse_cubes(inp["expr"], inp["names"]), len(inp["names"]))
    lines = [line.split() for line in stdout.splitlines()]
    got = {parts[0]: parts[1] for parts in lines if len(parts) == 2}
    if sorted(got) != ["disjoint", "ie", "table"] or len(lines) != 3:
        return Failure(f"unexpected output {stdout[:200]!r}")
    wrong = [m for m, v in sorted(got.items()) if v != str(want)]
    return Failure(f"weight {want} expected, {wrong} differ") if wrong else None


# -- input generators ------------------------------------------------------------


def _quota(rng: random.Random, total: int) -> int:
    """Between a simple majority and two-thirds of the total weight."""
    lo = total // 2 + 1
    return rng.randint(lo, max(lo, (2 * total) // 3))


def _with_dummies(rng: random.Random, n: int, big_values: list[int], unit: int, few: bool) -> dict:
    """Weights that are multiples of ``unit``, a quota that is one, plus 1-3 small
    voters whose weights sum below ``unit``: those can never swing the outcome,
    like voter L of the paper's council (12; 4,4,4,2,2,1).  With ``few`` the
    small voters share one weight."""
    d = rng.randint(1, min(3, n - 2))
    big = [rng.choice(big_values) for _ in range(n - d)]
    cap = unit // (d + 1)  # d weights of at most unit/(d+1) sum below unit
    small = [rng.randint(1, cap)] * d if few else [rng.randint(1, cap) for _ in range(d)]
    weights = big + small
    rng.shuffle(weights)
    return {"quota": unit * _quota(rng, sum(big) // unit), "weights": weights}


def make_dense(rng: random.Random, shape) -> dict:
    """Shape ``(n, distinct, dummies)``: weights from 1..1000 taking ``distinct``
    values (1-4), or all distinct when ``distinct == n``."""
    n, distinct, dummies = shape
    unit = 40
    if distinct == n:
        if not dummies:
            weights = rng.sample(range(1, 1001), n)
            return {"quota": _quota(rng, sum(weights)), "weights": weights}
        d = rng.randint(1, 3)
        big = rng.sample(range(unit, 1001, unit), n - d)
        weights = big + rng.sample(range(1, 13), d)  # sum below unit
        rng.shuffle(weights)
        return {"quota": unit * _quota(rng, sum(big) // unit), "weights": weights}
    if dummies:  # the small voters' weight is one of the distinct values
        return _with_dummies(rng, n, rng.sample(range(unit, 1001, unit), distinct - 1), unit, few=True)
    values = rng.sample(range(1, 1001), distinct)
    weights = [rng.choice(values) for _ in range(n)]
    return {"quota": _quota(rng, sum(weights)), "weights": weights}


def make_council(rng: random.Random, shape) -> dict:
    """Shape ``(n, dummies)``: a named council with seat counts 1..50."""
    n, dummies = shape
    if dummies:
        inp = _with_dummies(rng, n, list(range(10, 51, 10)), 10, few=False)
    else:
        weights = [rng.randint(1, 50) for _ in range(n)]
        inp = {"quota": _quota(rng, sum(weights)), "weights": weights}
    inp["names"] = rng.sample(COUNCIL_NAMES, n)
    return inp


COUNCIL_NAMES = [a + b for a in "ABCDEFGHJKLMNPRSTW" for b in "aeiouy"]


def make_subset_sum(rng: random.Random, shape) -> dict:
    """Shape ``(kind, lo, hi)`` with ``lo <= n <= hi``.

    ``plain``: weights 1..100.  ``blocs``: 2-4 equal blocs heavier than all
    the small voters together, plus small voters of weight 1..20 that can
    never swing; the quota is a majority of blocs.
    """
    kind, lo, hi = shape
    n = rng.randint(lo, hi)
    if kind == "plain":
        weights = [rng.randint(1, 100) for _ in range(n)]
        return {"quota": _quota(rng, sum(weights)), "weights": weights}
    k = rng.randint(2, 4)
    small = [rng.randint(1, 20) for _ in range(n - k)]
    bloc = sum(small) + rng.randint(1, 100)
    weights = [bloc] * k + small
    rng.shuffle(weights)
    return {"quota": bloc * (k // 2 + 1), "weights": weights}


def make_sop(rng: random.Random, shape) -> dict:
    """Shape ``(variables, cubes)``: cubes of 2-5 literals, a quarter complemented."""
    nvars, ncubes = shape
    names = [f"x{i}" for i in range(1, nvars + 1)]
    terms = set()
    while len(terms) < ncubes:
        chosen = sorted(rng.sample(range(nvars), rng.randint(2, min(5, nvars))))
        terms.add(" ".join(names[v] + ("'" if rng.random() < 0.25 else "") for v in chosen))
    order = sorted(terms)
    rng.shuffle(order)
    return {"expr": " | ".join(order), "names": names}


# -- input properties --------------------------------------------------------------


def voting_props(inp: dict) -> dict:
    """Properties of one system that later PRs can cite as the share they exploit."""
    weights = inp["weights"]
    n = len(weights)
    exp = expected_analysis(inp["quota"], tuple(weights))
    return {
        "n": n,
        "total_weight": sum(weights),
        "distinct_weights_per_n": len(set(weights)) / n,
        "has_dummies": int(bool(exp.dummies)),
        "classes_per_n": len(exp.classes) / n,
    }


def sop_props(inp: dict, cubes_after_disjoint: int) -> dict:
    cubes = inp["expr"].count("|") + 1
    return {
        "variables": len(inp["names"]),
        "cubes": cubes,
        "cubes_after_disjoint": cubes_after_disjoint,
        "disjoint_growth": cubes_after_disjoint / cubes,
    }


def summarize(rows: list[dict]) -> dict:
    """Min, mean and max of each property over the run's inputs."""
    return {
        key: {
            "min": round(min(r[key] for r in rows), 4),
            "mean": round(sum(r[key] for r in rows) / len(rows), 4),
            "max": round(max(r[key] for r in rows), 4),
        }
        for key in rows[0]
    } | {"inputs": len(rows)}


# -- the workloads ------------------------------------------------------------------


def spread(counts: dict) -> tuple:
    """A cycle holding each shape ``counts[shape]`` times, evenly interleaved."""
    slots = sorted(
        ((j + 0.5) / k, rank, shape)
        for rank, (shape, k) in enumerate(counts.items())
        for j in range(k)
    )
    return tuple(shape for _, _, shape in slots)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: Optional[str]  # the cli subcommand timed, or None to time analyze()
    make: Callable[[random.Random, object], dict]
    cycle: tuple  # input shapes, one op each, repeated in order
    warmup: object  # shape of the warm-up input that set-up runs
    check: Callable[[dict, object], Optional[Failure]]
    tiny_cycle: tuple  # for the self-test
    rate: float  # ops per second of loop time at the commit that defined the benchmark

    def key(self, inp: dict) -> str:
        """Identity of an input as the package's caches would see it."""
        if "expr" in inp:
            return inp["expr"] + "\n" + ",".join(inp["names"])
        return f"{inp['quota']};{','.join(map(str, inp['weights']))}"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dense",
            why="analyze() at n=20..24 on the dense route; few vs all-distinct weights changes "
            "how much derivative work the symmetry classes share",
            command=None,
            make=make_dense,
            # The mix keeps the latency distribution dense around its p50 and
            # p90, so that neither percentile sits in a gap between shapes of
            # very different cost, where a few ops changing rank would move it
            # far.  The n = 20..22 few-distinct systems fill the bottom, the
            # n = 20 all-distinct and n = 23 one-or-two-weight systems the
            # middle and the band around the p90, and nine heavier ops the top.
            cycle=spread(
                {
                    # 120 systems with 1-4 distinct weights, every n from 20 to 24 ...
                    **{(n, k, k % 2 == 0): 8 if k <= 2 else 7 for n in (20, 21, 22) for k in range(1, 5)},
                    **{(23, k, k % 2 == 0): 13 for k in (1, 2)},
                    **{(24, k, k % 2 == 0): 1 for k in range(1, 5)},
                    # ... and 120 with all-distinct weights, mostly n = 20
                    (20, 20, True): 63,
                    (20, 20, False): 52,  # holds the p90
                    (21, 21, True): 1,
                    (21, 21, False): 1,
                    (22, 22, True): 1,
                    (22, 22, False): 1,
                    (24, 24, True): 1,
                }
            ),
            warmup=(20, 2, False),
            check=check_report,
            tiny_cycle=((8, 1, False), (9, 9, True), (10, 10, False), (10, 3, True)),
            rate=11,
        ),
        Workload(
            name="council",
            why="banzhaf analyze --format json at n=4..12 with both oracles: per-call overhead, "
            "report formatting and the oracles on tiny tables",
            command="analyze",
            make=make_council,
            cycle=tuple((n, n % 3 == 0) for n in range(4, 13)),
            warmup=(6, False),
            check=check_cli_analyze,
            tiny_cycle=((4, False), (5, True), (6, False)),
            rate=340,
        ),
        Workload(
            name="subset_sum",
            why="analyze() at n=100..300, the only route above N_MAX: subset-sum DP and normalize "
            "on huge integers, never a truth table",
            command=None,
            make=make_subset_sum,
            cycle=spread(
                {
                    ("plain", 100, 105): 18,
                    ("blocs", 100, 110): 8,
                    ("plain", 130, 140): 13,  # holds the p90
                    ("plain", 290, 300): 1,
                }
            ),
            warmup=("plain", 100, 100),
            check=check_report,
            tiny_cycle=(("plain", 26, 30), ("blocs", 26, 30)),
            rate=6,
        ),
        Workload(
            name="sop",
            why="banzhaf weight --method all on SOPs of 10..16 variables and 8..14 cubes: "
            "parsing, disjointing and inclusion-exclusion, no power or voting code",
            command="weight",
            make=make_sop,
            cycle=tuple((10 + (k * 3) % 7, 8 + k) for k in range(7)),
            warmup=(10, 8),
            check=check_cli_weight,
            tiny_cycle=((5, 3), (6, 4)),
            rate=34,
        ),
    )
}
