"""Spans around the package's calls, recorded from the benchmark's own code.

:func:`instrumented` swaps wrappers in for the package's functions and
methods while a traced op runs, and puts the originals back afterwards.  The
wrappers are reached exactly where ``analyze`` and ``cli`` make their calls,
so the spans follow the program's own call order.  A name the package no
longer has is skipped; its time then shows as the caller's self time and
lowers ``trace.coverage``.

Spans live in memory as ``[name, start, end, parent, op]`` lists and are
written out once the run ends.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import Counter, defaultdict

#: Layers with a self-time metric, in the order the report lists them.
TIMED_LAYERS = (
    "voting.to_table",
    "voting.symmetry_classes",
    "power.tbp_all",
    "truthtable.checks",
    "power.oracle_enum",
    "power.oracle_dp",
    "power.normalize",
    "cli.report",
    "sop.parse",
    "sop.to_tt",
    "sop.make_disjoint",
    "sop.weight_disjoint",
    "sop.weight_ie",
)
ERROR_LAYERS = ("voting", "truthtable", "power", "sop", "cli")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self._last_exc = None

    def call(self, name: str, fn, *args, **kwargs):
        sid = len(self.spans)
        span = [name, time.perf_counter(), None, self.stack[-1] if self.stack else None, self.op]
        self.spans.append(span)
        self.stack.append(sid)
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            if exc is not self._last_exc:  # count where it is raised, not at each span it crosses
                self._last_exc = exc
                self.errors[name.split(".")[0]] += 1
            raise
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def innermost(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None


def _wrap(tracer: Tracer, name: str, fn, observe=None, only_under=None):
    def wrapper(*args, **kwargs):
        if only_under is not None and tracer.innermost() != only_under:
            return fn(*args, **kwargs)
        result = tracer.call(name, fn, *args, **kwargs)
        if observe is not None:
            observe(tracer.counts, args, kwargs, result)
        return result

    return wrapper


def _count_derivatives(counts, args, kwargs, result) -> None:
    table = args[0]
    classes = args[1] if len(args) > 1 else kwargs.get("classes")
    counts["derivatives"] += table.n if classes is None else len(classes)
    counts["voters"] += table.n


def _count_cubes(counts, args, kwargs, result) -> None:
    counts["cubes_before"] += len(args[0].cubes)
    counts["cubes_after"] += len(result.cubes)


def _targets():
    """(owner, attribute, span name, observer, only_under) for every traced call."""
    from banzhaf import cli, power, truthtable, voting

    checks = [
        (truthtable.TruthTable, m, "truthtable.checks", None, "power.analyze")
        for m in ("is_vacuous_in", "is_monotone", "is_causal", "weight")
    ]
    return [
        (cli, "analyze", "power.analyze", None, None),
        (voting.VotingSystem, "to_table", "voting.to_table", None, None),
        (voting.VotingSystem, "symmetry_classes", "voting.symmetry_classes", None, None),
        *checks,
        (power, "tbp_all", "power.tbp_all", _count_derivatives, None),
        (power, "tbp_oracle_enum", "power.oracle_enum", None, None),
        (power, "tbp_oracle_dp", "power.oracle_dp", None, None),
        # The private kernels behind the oracles: the subset-sum route of
        # analyze calls the DP directly, without the per-voter wrapper.
        (power, "_enum_swing_counts", "power.oracle_enum", None, None),
        (power, "_dp_swing_counts", "power.oracle_dp", None, None),
        (power, "normalize", "power.normalize", None, None),
        (cli.ReportDocument, "from_analysis", "cli.report", None, None),
        (cli.ReportDocument, "to_json", "cli.report", None, None),
        (cli, "parse_sop", "sop.parse", None, None),
        (cli, "sop_to_tt", "sop.to_tt", None, None),
        (cli, "make_disjoint", "sop.make_disjoint", _count_cubes, None),
        (cli, "sop_weight_disjoint", "sop.weight_disjoint", None, None),
        (cli, "sop_weight_ie", "sop.weight_ie", None, None),
    ]


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Route the package's calls through ``tracer`` for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, observe, only_under in _targets():
            if attr not in vars(owner):
                continue
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                patched = classmethod(_wrap(tracer, name, original.__func__, observe, only_under))
            else:
                patched = _wrap(tracer, name, original, observe, only_under)
            saved.append((owner, attr, original))
            setattr(owner, attr, patched)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, traced_ms: list[float], untraced_ms: list[float]) -> dict:
    """Per-layer metrics: median self time and mean calls per op, plus ratios."""
    children = defaultdict(float)
    for name, start, end, parent, _ in tracer.spans:
        if parent is not None:
            children[parent] += end - start
    self_ms = defaultdict(lambda: defaultdict(float))  # op -> layer -> ms
    calls: Counter = Counter()
    coverage = []
    for sid, (name, start, end, parent, op) in enumerate(tracer.spans):
        own = (end - start - children[sid]) * 1000
        if parent is None:
            coverage.append(children[sid] / (end - start))
            continue
        self_ms[op][name] += own
        if tracer.spans[parent][0] != name:  # entries into a layer, not its recursion
            calls[name] += 1
    ops = sorted({span[4] for span in tracer.spans})
    metrics = {}
    for layer in TIMED_LAYERS:
        metrics[f"{layer}_ms"] = (statistics.median(self_ms[op][layer] for op in ops), "ms")
        metrics[f"{layer}_calls"] = (calls[layer] / len(ops), "calls/op")
    c = tracer.counts
    metrics["power.derivatives_per_voter"] = (
        c["derivatives"] / c["voters"] if c["voters"] else 0.0, "ratio")
    metrics["sop.disjoint_growth"] = (
        c["cubes_after"] / c["cubes_before"] if c["cubes_before"] else 0.0, "ratio")
    for layer in ERROR_LAYERS:
        metrics[f"{layer}.errors"] = (tracer.errors[layer], "count")
    metrics["trace.coverage"] = (statistics.median(coverage), "ratio")
    metrics["trace.overhead"] = (statistics.median(traced_ms) / statistics.median(untraced_ms), "ratio")
    return metrics
