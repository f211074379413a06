"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files: :func:`instrumented`
replaces public functions of ``mrhetero`` under the name their caller looks
them up by (``mrhetero.simulation.marginal_regressions``,
``mrhetero.cli.harmonize``, ``mrhetero.estimators.bootstrap``,
``mrhetero.kernels.wls_origin``, ...) and restores them on exit. The
program's code is not changed.

Span record format, one JSON object per line when dumped::

    {"id": 17, "name": "kernels.wls_origin", "start": 12.031, "end": 12.0311,
     "parent": 16, "trace": 3, "thread": 140211, "attrs": {}}

- ``id``: unique within a dump; ``parent`` is the id of the enclosing span
  (``null`` for a root), also across threads of the replicate pool, whose
  workers inherit the submitting thread's current span.
- ``start``/``end``: ``time.perf_counter()`` seconds.
- ``trace``: one id per traced pass; every span of the pass shares it.
- ``thread``: ``threading.get_ident()`` of the recording thread.
- ``attrs``: counts and labels taken at the boundary (``rows``, ``kept``,
  ``resamples``, ``failed``, ``method``, ``cpu_s``, ``error``).

A span's self time is its duration minus the union of its children's
intervals. Children that run concurrently on pool threads overlap each
other; the time counted more than once is reported as the parallel excess,
so that ``sum(self) - parallel_excess + uncovered == pass wall time``.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import statistics
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, NamedTuple

LAYERS = ("cli", "summary_data", "heterogeneity", "simulation", "estimators", "bootstrap", "kernels")
METHODS = ("MrWald", "MrWaldR", "MrWaldD", "Ivw", "Divw", "Egger", "WeightedMedian")
KERNELS = ("wls_origin", "wls_intercept", "l1_origin", "weighted_median_ratio", "divw", "divw_variance")

# Spans whose per-call median and 99th percentile are reported; kernels and
# point estimators run thousands of times per pass on bootstrap workloads.
_PER_CALL = tuple(f"kernels.{k}" for k in KERNELS) + ("estimators.point",)


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    trace: int
    thread: int
    attrs: dict


class Recorder:
    """Keeps spans in memory; a thread-local stack tracks the open span."""

    def __init__(self):
        self.spans: list[Span] = []
        self.events: list[str] = []
        self.trace_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def new_trace(self) -> None:
        self.spans = []
        self.events = []
        self.trace_id += 1

    def wrap(self, name: str, fn: Callable, attrs: Callable | None = None, cpu: bool = False):
        """Return ``fn`` recording one span per call.

        ``attrs(args, kwargs, result)`` adds counts from a successful call;
        ``cpu`` adds the process CPU time spent during the span.
        """
        rec = self

        def traced(*args, **kwargs):
            stack = rec._stack()
            sid = next(rec._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            extra: dict = {}
            cpu0 = time.process_time() if cpu else 0.0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                extra["error"] = type(exc).__name__
                raise
            else:
                if attrs is not None:
                    extra.update(attrs(args, kwargs, result))
                return result
            finally:
                t1 = time.perf_counter()
                if cpu:
                    extra["cpu_s"] = time.process_time() - cpu0
                stack.pop()
                rec.spans.append(
                    Span(sid, name, t0, t1, parent, rec.trace_id, threading.get_ident(), extra)
                )

        return traced

    def adopt(self, parent: int | None, fn: Callable) -> Callable:
        """Run ``fn`` on another thread as a child of span ``parent``."""
        rec = self

        def run(*args, **kwargs):
            stack = rec._stack()
            stack.append(parent)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()

        return run

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def _patch(stack: contextlib.ExitStack, obj, attr: str, value) -> None:
    original = getattr(obj, attr)
    setattr(obj, attr, value)
    stack.callback(setattr, obj, attr, original)


@contextlib.contextmanager
def instrumented(rec: Recorder):
    """Wrap the public functions of every ``mrhetero`` layer while active."""
    # The package re-exports the function ``bootstrap`` under the name of its
    # module, so modules are looked up by their full name.
    cli, sim, summary_data, estimators, boot, heterogeneity, kernels = (
        importlib.import_module(f"mrhetero.{name}")
        for name in ("cli", "simulation", "summary_data", "estimators", "bootstrap",
                     "heterogeneity", "kernels")
    )

    def method_of(args, kwargs, result):
        return {"method": getattr(args[0], "value", str(args[0]))}

    def rows(args, kwargs, result):
        return {"rows": len(result)}

    def harmonized(args, kwargs, result):
        r = result[1]
        total = r.kept + r.dropped_mismatch + r.dropped_palindromic + r.dropped_missing
        return {"kept": r.kept, "ids": total}

    def resampled(args, kwargs, result):
        return {"resamples": args[2].n_boot, "failed": int(result.n_failed)}

    converting = rec.wrap("summary_data.as_triple_arrays", summary_data.as_triple_arrays)
    columnar = summary_data.TripleArrays

    def as_triple_arrays(triples):
        # Pass-throughs of already-columnar input cost nothing; only
        # conversions are recorded.
        if isinstance(triples, columnar):
            return triples
        return converting(triples)

    original_point = estimators.point_estimator

    def point_estimator(method):
        label = {"method": getattr(method, "value", str(method))}
        return rec.wrap("estimators.point", original_point(method), attrs=lambda a, k, r: label)

    class PropagatingExecutor(sim.ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            return super().submit(rec.adopt(rec.current(), fn), *args, **kwargs)

    pairs_init = kernels.WeightedPairs.__post_init__

    def counted_init(self):
        rec.events.append("kernels.WeightedPairs.constructions")
        pairs_init(self)

    estimate = rec.wrap("estimators.estimate", estimators.estimate, attrs=method_of)
    with contextlib.ExitStack() as stack:
        _patch(stack, cli, "parse_summary_file",
               rec.wrap("summary_data.parse_summary_file", cli.parse_summary_file, attrs=rows))
        _patch(stack, cli, "harmonize", rec.wrap("summary_data.harmonize", cli.harmonize, attrs=harmonized))
        _patch(stack, cli, "het_test", rec.wrap("heterogeneity.het_test", cli.het_test))
        _patch(stack, cli, "estimate", estimate)
        _patch(stack, cli, "run_scenario", rec.wrap("simulation.run_scenario", cli.run_scenario, cpu=True))
        _patch(stack, sim, "simulate_replicate",
               rec.wrap("simulation.simulate_replicate", sim.simulate_replicate))
        _patch(stack, sim, "marginal_regressions",
               rec.wrap("summary_data.marginal_regressions", sim.marginal_regressions))
        _patch(stack, sim, "estimate", estimate)
        _patch(stack, sim, "ThreadPoolExecutor", PropagatingExecutor)
        _patch(stack, estimators, "bootstrap",
               rec.wrap("bootstrap.bootstrap", estimators.bootstrap, attrs=resampled))
        _patch(stack, estimators, "point_estimator", point_estimator)
        _patch(stack, heterogeneity, "chisq_sf",
               rec.wrap("heterogeneity.chisq_sf", heterogeneity.chisq_sf))
        for module in (sim, estimators, boot, kernels, heterogeneity):
            _patch(stack, module, "as_triple_arrays", as_triple_arrays)
        for name in KERNELS:
            _patch(stack, kernels, name, rec.wrap(f"kernels.{name}", getattr(kernels, name)))
        _patch(stack, kernels.WeightedPairs, "__post_init__", counted_init)
        yield rec


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, int(-(-q * len(ordered) // 100)) - 1))
    return ordered[k]


def layer_metrics(rec: Recorder, pass_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass, plus the closure terms."""
    spans = rec.spans
    children: dict[int | None, list[Span]] = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)

    self_s: dict[int, float] = {}
    excess = 0.0
    for s in spans:
        kids = children.get(s.id, [])
        covered = _union_length([(c.start, c.end) for c in kids])
        self_s[s.id] = (s.end - s.start) - covered
        excess += sum(c.end - c.start for c in kids) - covered

    total: Counter = Counter()
    own: Counter = Counter()
    calls: Counter = Counter()
    durations: dict[str, list[float]] = defaultdict(list)
    by_method: Counter = Counter()
    attrs: Counter = Counter()
    method_failures = 0
    run_scenario_cpu = run_scenario_wall = 0.0
    for s in spans:
        d = s.end - s.start
        total[s.name] += d
        own[s.name] += self_s[s.id]
        calls[s.name] += 1
        if s.name in _PER_CALL:
            durations[s.name].append(d)
        if s.name == "estimators.estimate":
            by_method[s.attrs["method"]] += d
            method_failures += "error" in s.attrs
        if s.name == "simulation.run_scenario":
            run_scenario_cpu += s.attrs["cpu_s"]
            run_scenario_wall += d
        for key in ("rows", "kept", "ids", "resamples", "failed"):
            attrs[f"{s.name}.{key}"] += s.attrs.get(key, 0)
    roots = sum(s.end - s.start for s in children.get(None, []))
    events = Counter(rec.events)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {
        "cli.main.s": total["cli.main"],
        "cli.self_s": own["cli.main"],
        "simulation.run_scenario.s": total["simulation.run_scenario"],
        "simulation.run_scenario.self_s": own["simulation.run_scenario"],
        "simulation.run_scenario.cpu_per_wall": ratio(run_scenario_cpu, run_scenario_wall),
        "simulation.simulate_replicate.s": total["simulation.simulate_replicate"],
        "simulation.simulate_replicate.self_s": own["simulation.simulate_replicate"],
        "simulation.simulate_replicate.calls": calls["simulation.simulate_replicate"],
        "summary_data.marginal_regressions.s": total["summary_data.marginal_regressions"],
        "summary_data.marginal_regressions.calls": calls["summary_data.marginal_regressions"],
        "summary_data.parse_summary_file.s": total["summary_data.parse_summary_file"],
        "summary_data.parse_summary_file.rows": attrs["summary_data.parse_summary_file.rows"],
        "summary_data.harmonize.s": total["summary_data.harmonize"],
        "summary_data.harmonize.kept_ratio": ratio(
            attrs["summary_data.harmonize.kept"], attrs["summary_data.harmonize.ids"]),
        "summary_data.as_triple_arrays.conversions": calls["summary_data.as_triple_arrays"],
        "summary_data.as_triple_arrays.s": total["summary_data.as_triple_arrays"],
        "heterogeneity.het_test.s": total["heterogeneity.het_test"],
        "heterogeneity.chisq_sf.s": total["heterogeneity.chisq_sf"],
        "bootstrap.bootstrap.s": total["bootstrap.bootstrap"],
        "bootstrap.bootstrap.self_s": own["bootstrap.bootstrap"],
        "bootstrap.bootstrap.calls": calls["bootstrap.bootstrap"],
        "bootstrap.resamples": attrs["bootstrap.bootstrap.resamples"],
        "bootstrap.failed": attrs["bootstrap.bootstrap.failed"],
        "bootstrap.ok_ratio": ratio(
            attrs["bootstrap.bootstrap.resamples"] - attrs["bootstrap.bootstrap.failed"],
            attrs["bootstrap.bootstrap.resamples"]),
        "estimators.estimate.s": total["estimators.estimate"],
        "estimators.estimate.self_s": own["estimators.estimate"],
        "estimators.point.calls": calls["estimators.point"],
        "estimators.point.self_s": own["estimators.point"],
        "estimators.method_failures": method_failures,
        "kernels.WeightedPairs.constructions": events["kernels.WeightedPairs.constructions"],
    }
    for method in METHODS:
        m[f"estimators.estimate.{method}.s"] = by_method[method]
    for name in KERNELS:
        m[f"kernels.{name}.calls"] = calls[f"kernels.{name}"]
        m[f"kernels.{name}.s"] = total[f"kernels.{name}"]
    for name in _PER_CALL:
        m[f"{name}.call_p50_us"] = _percentile(durations[name], 50) * 1e6
        m[f"{name}.call_p99_us"] = _percentile(durations[name], 99) * 1e6
    self_sum = sum(self_s.values())
    for layer in LAYERS:
        m[f"{layer}.self_share"] = ratio(
            sum(v for name, v in own.items() if name.startswith(layer + ".")), self_sum)
    uncovered = pass_wall_s - roots
    m.update({
        "trace.wall_s": pass_wall_s,
        "trace.spans": len(spans),
        "trace.self_sum_s": self_sum,
        "trace.parallel_excess_s": excess,
        "trace.uncovered_s": uncovered,
    })
    return m


def closure_error(m: dict[str, float]) -> float:
    """``sum(self) - parallel_excess + uncovered - wall``; zero up to rounding."""
    return m["trace.self_sum_s"] - m["trace.parallel_excess_s"] + m["trace.uncovered_s"] - m["trace.wall_s"]


def unit_of(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith((".share", "_share")):
        return "fraction"
    if name.endswith(("_ratio", "cpu_per_wall")):
        return "ratio"
    return "count"


# Times that are nonzero on every workload. Every other time is a layer that
# some workload never calls, which reads exactly 0 s on every run, so the
# result line gives it as a share of the pass's span time instead.
RESULT_SECONDS = ("trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s", "trace.self_sum_s")


def result_metrics(values: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics of the result line, derived from ``values``.

    Times outside :data:`RESULT_SECONDS` become shares of
    ``trace.self_sum_s`` (``x.s`` -> ``x.share``, ``x.self_s`` ->
    ``x.self_share``); per-call percentiles stay in the report only.
    """
    out = {}
    for name, v in values.items():
        unit = unit_of(name)
        if unit == "us":
            continue
        if unit == "s" and name not in RESULT_SECONDS:
            name = name[:-2] + (".share" if name.endswith(".s") else "_share")
            v = v / values["trace.self_sum_s"]
        out[name] = v
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
