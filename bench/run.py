"""Benchmark of the ``banzhaf`` package: one seeded workload per run.

    python3 bench/run.py --workload dense --seed 1 --seconds 25 --trace 0

Each run is a closed loop: one client in one process, no extra threads, the
next op starting when the previous one returns.  Inputs are drawn from the
seed, every op gets an input no earlier op in the run has seen (the
package's oracles keep unbounded caches), and every output is checked,
outside the timed region, against the benchmark's own reference code.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` is the
separate traced run: ops alternate between an untraced and a traced call
on inputs of the same shape, and the spans give the per-layer metrics.
The last line of standard output is the result as one JSON object; the run
record (machine facts, input properties, failures, spans) goes to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import KNOWN_DEFECTS, WORKLOADS, Failure, sop_props, summarize, voting_props

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

MIN_OPS = 100  # so that the p90 latency has at least ten samples beyond it
GIVE_UP = 2  # stop at a cycle boundary after this many times --seconds
SETUP_PROBES = 7


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def machine_facts(seed: int) -> dict:
    facts = {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": platform.processor() or platform.machine(),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            facts[f"L{level}"] = size
    return facts


def _cache_bytes(text: str | None) -> int | None:
    if not text:
        return None
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1], 1)
    return int(text.rstrip("KMG")) * scale


class Inputs:
    """Seeded input stream that never hands out the same input twice."""

    def __init__(self, workload, seed: int, tiny: bool) -> None:
        self.workload = workload
        self.rng = random.Random(f"{workload.name}:{seed}")
        self.cycle = workload.tiny_cycle if tiny else workload.cycle
        self.seen: set[str] = set()

    def draw(self, shape) -> dict:
        for _ in range(1000):
            inp = self.workload.make(self.rng, shape)
            key = self.workload.key(inp)
            if key not in self.seen:
                self.seen.add(key)
                return inp
        raise RuntimeError(f"no fresh input of shape {shape} after 1000 draws")


def measure_setup(kind: str, payload) -> list[float]:
    """Fresh-interpreter set-up times: import plus the warm-up op (see probe.py)."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), kind, json.dumps(payload)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
                 corrupt=None) -> dict:
    """One run; returns the run record.  ``corrupt`` lets the self-test alter
    an op's output before it is checked."""
    import ops
    import tracing

    workload = WORKLOADS[name]
    inputs = Inputs(workload, seed, tiny)
    run_op = ops.run_cli if workload.command else ops.analyze
    root_span = "cli.main" if workload.command else "power.analyze"
    tracer = tracing.Tracer()
    ops_log = []  # [shape, latency_ms, traced] per op; the warm-up op first
    failures = []
    properties = []

    def finish(k: int, inp: dict, out) -> None:
        """Check op ``k`` and record its input's properties, outside the timed region."""
        if corrupt is not None:
            out = corrupt(k, out)
        if isinstance(out, Exception):
            failure = Failure(f"raised {out!r}")
        else:
            failure = workload.check(inp, out)
        if failure is not None:
            failures.append({"op": k, "reason": failure.reason, "defect": failure.defect})
        if workload.command == "weight":
            properties.append(sop_props(inp, ops.disjoint_cubes(inp)))
        else:
            properties.append(voting_props(inp))

    def timed_call(arg, traced: bool):
        """The op, with exceptions kept as its output so that they count as failures."""
        t0 = time.perf_counter()
        try:
            if traced:
                with tracing.instrumented(tracer):
                    out = tracer.call(root_span, run_op, arg)
            else:
                out = run_op(arg)
        except Exception as exc:  # noqa: BLE001 - an op failure, not a benchmark failure
            out = exc
        return out, (time.perf_counter() - t0) * 1000

    warm_shape = inputs.cycle[0] if tiny else workload.warmup
    warm_input = inputs.draw(warm_shape)
    warm_arg = ops.prepare(workload, warm_input)
    kind, payload = ("cli", warm_arg) if workload.command else ("analyze", warm_input)
    setup = [0.0] if tiny else measure_setup(kind, payload)
    out, ms = timed_call(warm_arg, False)
    ops_log.append([str(warm_shape), ms, False])
    finish(0, warm_input, out)

    # A run does a fixed amount of work: whole cycles, as many as the
    # workload's nominal rate fills --seconds with at the commit that defined
    # the benchmark.  Every run of a seed then times the same ops, and peak
    # RSS (which grows with the op count, through allocator fragmentation)
    # stays comparable between runs.
    n_cycle = len(inputs.cycle)
    per_position = 2 if trace else 1
    cycles = 1 if tiny else max(math.ceil(MIN_OPS / per_position / n_cycle),
                                round(seconds * workload.rate / per_position / n_cycle))
    gc.collect()
    start = time.perf_counter()
    for position in range(n_cycle * cycles):
        if position % n_cycle == 0 and time.perf_counter() - start > GIVE_UP * seconds:
            break  # a much slower program: keep the run inside its time limit
        shape = inputs.cycle[position % n_cycle]
        for traced in (False, True)[:per_position]:
            inp = inputs.draw(shape)
            arg = ops.prepare(workload, inp)
            tracer.op = len(ops_log)
            out, ms = timed_call(arg, traced)
            ops_log.append([str(shape), ms, traced])
            finish(tracer.op, inp, out)
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if len(inputs.seen) != len(ops_log):
        raise RuntimeError("an input repeated within the run")

    attempted = len(ops_log) - 1
    failed = sum(1 for f in failures if f["op"] > 0)
    latencies = [ms for _, ms, traced in ops_log[1:] if not traced]
    if trace:
        traced_ms = [ms for _, ms, traced in ops_log[1:] if traced]
        metrics = tracing.layer_metrics(tracer, traced_ms, latencies)
    else:
        metrics = {
            "ops_per_s": (len(latencies) / (sum(latencies) / 1000), "1/s"),
            "latency_p50_ms": (percentile(latencies, 50), "ms"),
            "latency_p90_ms": (percentile(latencies, 90), "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    facts = machine_facts(seed)
    if name == "dense":
        l2 = _cache_bytes(facts.get("L2"))
        facts["dense_table_bytes"] = {
            n: {"bytes": (1 << n) // 8, "per_L2": round((1 << n) / 8 / l2, 3) if l2 else None}
            for n in range(min(p["n"] for p in properties), max(p["n"] for p in properties) + 1)
        }
    return {
        "workload": name,
        "facts": facts,
        "seconds": seconds,
        "wall_s": wall,
        "attempted": attempted,
        "failed": failed,
        "fail_rate": failed / attempted,
        # Failures of a named known defect still count in failed and fail_rate.
        "correct": all(f["defect"] for f in failures),
        "failures": failures,
        "known_defects": {f["defect"]: KNOWN_DEFECTS[f["defect"]] for f in failures if f["defect"]},
        "setup_samples_s": setup,
        "input_properties": summarize(properties),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "ops": ops_log,
        "spans": tracer.spans,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "banzhaf" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'banzhaf'}", file=sys.stderr)
        return 2

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = record.pop("spans")
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    if args.trace:
        with open(f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, op) in enumerate(spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

    for key, m in record["metrics"].items():
        print(f"{args.workload} {key} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} fail_rate = {record['fail_rate']:.6g} ratio "
          f"({record['failed']} of {record['attempted']} ops)")
    for defect, text in record["known_defects"].items():
        print(f"{args.workload} known defect {defect}: {text}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
