"""Self-test of the benchmark itself.

    python3 bench/selftest.py

* The reference counters agree with brute-force enumeration on small inputs.
* Every workload runs at tiny size, untraced and traced, and reports every
  metric ``BENCHMARK.json`` names, with its unit.
* A wrong result, injected here rather than in the package, is counted in
  ``failed`` and ``fail_rate`` and turns ``correct`` false.

Exits 0 when all checks pass, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random

import run
from workloads import WORKLOADS, parse_cubes, sop_weight, swing_counts

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def brute_swings(quota: int, weights: list[int]) -> list[int]:
    counts = [0] * len(weights)
    for votes in itertools.product((0, 1), repeat=len(weights)):
        total = sum(w for w, v in zip(weights, votes) if v)
        for i, (w, v) in enumerate(zip(weights, votes)):
            if v and total >= quota > total - w:
                counts[i] += 1
    return counts


def brute_sop(expr: str, names: list[str]) -> int:
    cubes = parse_cubes(expr, names)
    return sum(
        any(all(row[i] for i in pos) and not any(row[i] for i in neg) for pos, neg in cubes)
        for row in itertools.product((0, 1), repeat=len(names))
    )


def corrupt(k: int, out):
    """Make the first timed op's answer wrong in a way each check can see."""
    if k != 1:
        return out
    if not isinstance(out, tuple):  # a PowerReport
        return dataclasses.replace(out, tbp=(out.tbp[0] + 1,) + tuple(out.tbp[1:]))
    code, stdout, stderr = out
    if stdout.startswith("{"):
        doc = json.loads(stdout)
        doc["tbp"][0] += 1
        return code, json.dumps(doc), stderr
    method, value = stdout.splitlines()[-1].split()
    return code, stdout.replace(f"{method:<8} {value}", f"{method:<8} {int(value) + 1}"), stderr


def main() -> int:
    problems = []

    rng = random.Random(0)
    for _ in range(300):
        weights = [rng.randint(0, 12) for _ in range(rng.randint(1, 8))]
        quota = rng.randint(1, sum(weights) + 2)
        if swing_counts(quota, tuple(weights)) != brute_swings(quota, weights):
            problems.append(f"swing_counts wrong for ({quota}; {weights})")
    for shape in [(4, 3), (5, 4), (6, 5), (8, 6)]:
        inp = WORKLOADS["sop"].make(rng, shape)
        if sop_weight(parse_cubes(inp["expr"], inp["names"]), shape[0]) != brute_sop(inp["expr"], inp["names"]):
            problems.append(f"sop_weight wrong for {inp['expr']!r}")

    for name in WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            record = run.run_workload(name, seed=7, seconds=0.1, trace=trace, tiny=True)
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {k: m["unit"] for k, m in record["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={trace}: metrics {sorted(set(got) ^ set(want))} "
                                f"missing or extra, or units differ")
            if not record["correct"]:
                problems.append(f"{name} trace={trace}: unexplained failures {record['failures'][:3]}")
            if name != "subset_sum" and record["failed"]:
                problems.append(f"{name} trace={trace}: {record['failed']} failed ops")

        record = run.run_workload(name, seed=8, seconds=0.1, trace=False, tiny=True, corrupt=corrupt)
        injected = [f for f in record["failures"] if f["op"] == 1]
        if not injected or record["correct"] or record["fail_rate"] <= 0:
            problems.append(f"{name}: injected wrong result not counted ({record['failures'][:3]})")

    for line in problems:
        print("FAIL", line)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
