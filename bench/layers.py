"""Per-layer metrics of the traced pass.

Layer names are the program's module names.  Times are self times from
:mod:`tracer` spans, counts come from the program's own telemetry (the
record each session appends to the metrics history), and both are
reported per op: per CLI invocation, or per job on ``serve-jobs``.
Ratios are taken over the summed counts.  The ``interpreter`` metrics
and ``import.numpy_loaded`` are per traced process instead (a CLI op is
one process; a service round is one server).
"""

from __future__ import annotations

import re
import statistics
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence

from tracer import self_times

#: (name, unit, better) of every per-layer metric, in report order.
METRICS = (
    ("interpreter.startup_s", "s", "lower"),
    ("interpreter.exit_s", "s", "lower"),
    ("import.total_s", "s", "lower"),
    ("import.numpy_s", "s", "lower"),
    ("import.repro_s", "s", "lower"),
    ("import.numpy_loaded", "fraction", "lower"),
    ("perf.index.get_many_s", "s", "lower"),
    ("perf.index.put_many_s", "s", "lower"),
    ("perf.index.prune_s", "s", "lower"),
    ("perf.index.lookup_s", "s", "lower"),
    ("perf.index.insert_s", "s", "lower"),
    ("perf.index.hits", "count", "higher"),
    ("perf.index.misses", "count", "lower"),
    ("perf.index.writes", "count", "lower"),
    ("perf.index.evictions", "count", "lower"),
    ("perf.index.hit_ratio", "ratio", "higher"),
    ("perf.index.bytes_read", "B", "lower"),
    ("perf.cache.hits", "count", "higher"),
    ("perf.cache.misses", "count", "lower"),
    ("perf.cache.entries", "count", "lower"),
    ("perf.planner.self_s", "s", "lower"),
    ("perf.planner.requests", "count", "lower"),
    ("perf.planner.duplicates", "count", "lower"),
    ("perf.planner.executed", "count", "lower"),
    ("perf.planner.units", "count", "lower"),
    ("perf.planner.dedup_ratio", "ratio", "higher"),
    ("perf.tensorsweep.run_group_s", "s", "lower"),
    ("perf.tensorsweep.batched_cells", "count", "higher"),
    ("perf.tensorsweep.fallback_cells", "count", "lower"),
    ("perf.tensorsweep.batched_frac", "fraction", "higher"),
    ("mappings.sim_s", "s", "lower"),
    ("mappings.calls", "count", "lower"),
    ("mappings.corner_turn.viram_s", "s", "lower"),
    ("mappings.corner_turn.imagine_s", "s", "lower"),
    ("mappings.corner_turn.raw_s", "s", "lower"),
    ("mappings.cslc_s", "s", "lower"),
    ("mappings.beam_steering_s", "s", "lower"),
    ("check.validation_s", "s", "lower"),
    ("check.rows", "count", "higher"),
    ("eval.experiments_s", "s", "lower"),
    ("eval.table3_s", "s", "lower"),
    ("scenarios.run_scenarios_s", "s", "lower"),
    ("scenarios.pipelines", "count", "lower"),
    ("service.queue_wait_p50_s", "s", "lower"),
    ("service.exec_p50_s", "s", "lower"),
    ("service.http_overhead_p50_s", "s", "lower"),
    ("service.execute_job_s", "s", "lower"),
    ("service.journal_append_s", "s", "lower"),
    ("service.journal_records", "count", "lower"),
    ("service.journal_bytes", "B", "lower"),
    ("service.deduped", "count", "higher"),
    ("service.rejected", "count", "lower"),
    ("resilience.retries", "count", "lower"),
    ("resilience.degradations", "count", "lower"),
    ("bench.traced_op_s", "s", "lower"),
    ("bench.unattributed_s", "s", "lower"),
    ("bench.unattributed_frac", "fraction", "lower"),
    ("bench.trace_overhead_frac", "fraction", "lower"),
)

NAMES = frozenset(name for name, _unit, _better in METRICS)

#: Span name -> metric receiving its self time (besides the prefix rules
#: in :meth:`LayerTotals.add_spans`).
SPAN_METRICS = {
    "perf.planner.execute_requests": "perf.planner.self_s",
    "perf.tensorsweep.run_group": "perf.tensorsweep.run_group_s",
    "check.validation_section": "check.validation_s",
    "eval.run_table3": "eval.table3_s",
    "scenarios.run_scenarios": "scenarios.run_scenarios_s",
    "service.execute_job": "service.execute_job_s",
    "service.journal_append": "service.journal_append_s",
}

#: Metric -> telemetry key in the program's metrics-history record.
COUNTERS = {
    "perf.index.hits": "perf.diskcache.hits",
    "perf.index.misses": "perf.diskcache.misses",
    "perf.index.writes": "perf.diskcache.writes",
    "perf.index.evictions": "perf.diskcache.evictions",
    "perf.cache.hits": "perf.cache.hits",
    "perf.cache.misses": "perf.cache.misses",
    "perf.cache.entries": "perf.cache.entries",
    "perf.planner.requests": "perf.timers.counters.planner.requests",
    "perf.planner.duplicates": "perf.timers.counters.planner.duplicates",
    "perf.planner.executed": "perf.timers.counters.planner.executed",
    "perf.planner.units": "perf.timers.counters.planner.units",
    "perf.tensorsweep.batched_cells": "perf.tensor.batched_cells",
    "perf.tensorsweep.fallback_cells": "perf.tensor.fallback_cells",
    "scenarios.pipelines": "scenario.pipelines",
    "service.deduped": "service.deduped",
    "resilience.retries": "resilience.retries",
    "resilience.degradations": "resilience.degradations",
}
REJECTED = ("service.rejected_saturated", "service.rejected_shed",
            "service.rejected_draining", "service.rejected_invalid")

_CHECK_SUMMARY = re.compile(
    rb"repro check \[\w+\]: (\d+) passed, (\d+) failed, (\d+) skipped"
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class LayerTotals:
    """Sums over the traced ops of one workload run."""

    def __init__(self) -> None:
        self.sums: Counter = Counter()
        self.ops = 0
        self.processes = 0
        self.walls: List[float] = []
        self.samples: Dict[str, List[float]] = defaultdict(list)

    def add_spans(self, spans: Sequence[Sequence[Any]],
                  keep: Callable[[Sequence[Any]], bool] = lambda s: True,
                  ) -> List[float]:
        """Add the self time of each kept span (bar the ``op`` root) to
        its layer; returns every span's self time."""
        selfs = self_times(spans)
        numpy_spans = set()
        for i, (span, own) in enumerate(zip(spans, selfs)):
            name = span[0]
            if name == "op" or not keep(span):
                continue
            attrs = span[6] or {}
            if name == "import":
                module = attrs["module"]
                self.sums["import.total_s"] += own
                if module.split(".")[0] == "repro":
                    self.sums["import.repro_s"] += own
                if module.split(".")[0] == "numpy":
                    numpy_spans.add(i)
                    if span[3] not in numpy_spans:
                        self.sums["import.numpy_s"] += span[2] - span[1]
            elif name.startswith("perf.index."):
                self.sums[name + "_s"] += own
                self.sums["perf.index.bytes_read"] += attrs.get(
                    "bytes_read", 0)
            elif name.startswith("mappings."):
                _, kernel, machine = name.split(".")[:3]
                self.sums["mappings.sim_s"] += own
                self.sums["mappings.calls"] += 1
                for metric in (f"mappings.{kernel}.{machine}_s",
                               f"mappings.{kernel}_s"):
                    if metric in NAMES:
                        self.sums[metric] += own
            elif name.startswith("eval.experiment."):
                self.sums["eval.experiments_s"] += own
            elif name in SPAN_METRICS:
                self.sums[SPAN_METRICS[name]] += own
        self.processes += 1
        self.sums["import.numpy_loaded"] += bool(numpy_spans)
        return selfs

    def _interpreter(self, child, spans: Sequence[Sequence[Any]]) -> float:
        """Add the process's start-up before its ``op`` root span and its
        exit after it; returns their sum."""
        startup = spans[0][1] - child.t_launch
        exit_ = child.t_end - spans[0][2]
        self.sums["interpreter.startup_s"] += startup
        self.sums["interpreter.exit_s"] += exit_
        return startup + exit_

    def add_counters(self, telemetry: Dict[str, Any]) -> None:
        for metric, key in COUNTERS.items():
            self.sums[metric] += telemetry.get(key, 0) or 0
        self.sums["service.rejected"] += sum(
            telemetry.get(key, 0) or 0 for key in REJECTED)

    def add_cli_op(self, child, telemetry: Dict[str, Any]) -> None:
        """One traced CLI invocation: whatever its spans do not cover is
        interpreter start-up before the first span, exit after the last,
        or unattributed time inside the ``op`` root."""
        self.ops += 1
        self.walls.append(child.wall)
        self.sums["bench.traced_op_s"] += child.wall
        spans = (child.spans or {}).get("spans") or []
        attributed = 0.0
        if spans:
            selfs = self.add_spans(spans)
            attributed = self._interpreter(child, spans) + sum(selfs[1:])
        self.sums["bench.unattributed_s"] += child.wall - attributed
        self.add_counters(telemetry)
        match = _CHECK_SUMMARY.search(child.stdout)
        if match:
            self.sums["check.rows"] += sum(int(g) for g in match.groups())

    def add_serve_round(self, child, telemetry: Dict[str, Any],
                        jobs: Sequence[Any], journal: Path) -> None:
        """One traced server round.  A job's latency splits into queue
        wait and HTTP overhead (from its job record and the client's
        clock) and the executor window, which the job's spans cover;
        what they leave uncovered is unattributed.  Deduplicated
        submissions are pure HTTP."""
        spans = (child.spans or {}).get("spans") or []
        ids = {job.job for job in jobs if job.job}
        selfs = self.add_spans(spans, keep=lambda s: s[4] in ids)
        if spans:
            self._interpreter(child, spans)
        executors = {s[5] for s in spans if s[0] == "service.execute_job"}
        covered = sum(own for s, own in zip(spans, selfs)
                      if s[4] in ids and s[5] in executors and s[0] != "op")
        window = 0.0
        for job in jobs:
            self.ops += 1
            self.walls.append(job.latency)
            self.sums["bench.traced_op_s"] += job.latency
            rec = job.record
            if job.deduped or not job.ok:
                continue
            submitted, started = rec["submitted_at"], rec["started_at"]
            finished = rec["finished_at"]
            self.samples["service.queue_wait_p50_s"].append(
                started - submitted)
            self.samples["service.exec_p50_s"].append(finished - started)
            self.samples["service.http_overhead_p50_s"].append(
                job.latency - (finished - submitted))
            window += finished - started
        self.sums["bench.unattributed_s"] += window - covered
        try:
            data = journal.read_bytes()
        except OSError:
            data = b""
        self.sums["service.journal_records"] += data.count(b"\n")
        self.sums["service.journal_bytes"] += len(data)
        self.add_counters(telemetry)

    def metrics(self, untraced_walls: Sequence[float]) -> Dict[str, float]:
        n = max(self.ops, 1)
        out = {name: self.sums[name] / n for name, _unit, _ in METRICS}
        s = self.sums
        for name in ("import.numpy_loaded", "interpreter.startup_s",
                     "interpreter.exit_s"):
            out[name] = _ratio(s[name], self.processes)
        out["perf.index.hit_ratio"] = _ratio(
            s["perf.index.hits"], s["perf.index.hits"] + s["perf.index.misses"])
        out["perf.planner.dedup_ratio"] = _ratio(
            s["perf.planner.duplicates"], s["perf.planner.requests"])
        out["perf.tensorsweep.batched_frac"] = _ratio(
            s["perf.tensorsweep.batched_cells"],
            s["perf.tensorsweep.batched_cells"]
            + s["perf.tensorsweep.fallback_cells"])
        for name in ("service.queue_wait_p50_s", "service.exec_p50_s",
                     "service.http_overhead_p50_s"):
            values = self.samples.get(name)
            out[name] = statistics.median(values) if values else 0.0
        out["bench.unattributed_frac"] = _ratio(
            s["bench.unattributed_s"], s["bench.traced_op_s"])
        out["bench.trace_overhead_frac"] = (
            statistics.median(self.walls) / statistics.median(untraced_walls)
            - 1 if self.walls and untraced_walls else 0.0
        )
        return out
