"""Trace exporters: Chrome ``trace_event`` JSON, SVG timelines, JSONL.

Three renderings of one :class:`~repro.trace.tracer.Tracer`:

* :func:`to_chrome` — the Chrome/Perfetto ``trace_event`` JSON object
  format.  Load the file at https://ui.perfetto.dev or in
  ``chrome://tracing``; each track becomes a named thread, spans are
  complete (``"ph": "X"``) events, and timestamps are **simulated
  cycles** (the viewer's µs unit reads as cycles).
* :func:`timeline_svg` — a per-resource busy/idle Gantt rendered by
  :func:`repro.eval.svg.utilization_timeline_svg`, one row per track.
* :func:`metrics_manifest_lines` — per-run JSON-lines records (run id,
  config hash, cycle totals, breakdown, op census, scalar metrics) that
  are deterministic for a given model version, so two manifests
  (``repro report --metrics PATH``) diff cleanly across model changes.

The chrome document is self-verifying: :func:`chrome_busy_by_track`
recomputes per-track busy sums from the *exported* events (resolving
thread names through the metadata records), which is how the
``invariant.trace.accounting`` check proves the export pipeline did not
drop or distort spans.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.trace.tracer import INSTANT, SPAN, Tracer

MANIFEST_SCHEMA = "repro-metrics/1"


def to_chrome(tracer: Tracer) -> Dict[str, Any]:
    """The tracer's events as a Chrome ``trace_event`` JSON object.

    Tracks map to threads of one process: a ``thread_name`` metadata
    record per track, then the events with integer ``tid``.  Counters,
    run records, and the clock convention travel in ``otherData``.
    """
    tids: Dict[str, int] = {
        track: i for i, track in enumerate(tracer.tracks())
    }
    events: List[Dict[str, Any]] = []
    for track, tid in tids.items():
        events.append(
            {
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": track},
            }
        )
        events.append(
            {
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "name": "thread_sort_index",
                "args": {"sort_index": tid},
            }
        )
    for event in tracer.events:
        record: Dict[str, Any] = {
            "ph": event.phase,
            "pid": 0,
            "tid": tids[event.track],
            "name": event.name,
            "cat": event.category or event.resource_class,
            "ts": event.ts,
        }
        if event.phase == SPAN:
            record["dur"] = event.dur
        elif event.phase == INSTANT:
            record["s"] = "t"  # thread-scoped instant
        if event.args:
            record["args"] = dict(event.args)
        events.append(record)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "tool": "repro trace",
            "clock": "simulated cycles (1 viewer-us = 1 cycle)",
            "runs": list(tracer.runs),
            "counters": dict(sorted(tracer.counters.items())),
        },
    }


def chrome_track_names(document: Mapping[str, Any]) -> Dict[int, str]:
    """``tid -> track name`` from a chrome document's metadata records."""
    names: Dict[int, str] = {}
    for event in document["traceEvents"]:
        if event.get("ph") == "M" and event.get("name") == "thread_name":
            names[int(event["tid"])] = str(event["args"]["name"])
    return names


def chrome_busy_by_track(document: Mapping[str, Any]) -> Dict[str, float]:
    """Per-track span-duration sums recomputed from an *exported* chrome
    document (not from the tracer), validating the export path."""
    names = chrome_track_names(document)
    busy: Dict[str, float] = {}
    for event in document["traceEvents"]:
        if event.get("ph") == SPAN:
            track = names.get(int(event["tid"]), f"tid{event['tid']}")
            busy[track] = busy.get(track, 0.0) + float(event["dur"])
    return busy


def utilization_timelines(
    tracer: Tracer,
) -> "OrderedDict[str, List[Tuple[float, float]]]":
    """Merged busy segments per track, accounting tracks first.

    The ordering matches how the SVG stacks its rows: the ledger view on
    top, then the fine-grained resource tracks in appearance order.
    """
    tracks = tracer.tracks()
    ordered = [t for t in tracks if t.startswith("accounting/")] + [
        t for t in tracks if not t.startswith("accounting/")
    ]
    out: "OrderedDict[str, List[Tuple[float, float]]]" = OrderedDict()
    for track in ordered:
        segments = tracer.segments(track)
        if segments:
            out[track] = segments
    return out


def timeline_svg(tracer: Tracer, title: Optional[str] = None) -> str:
    """The per-resource busy/idle timeline as a self-contained SVG."""
    from repro.errors import ExperimentError
    from repro.eval.svg import utilization_timeline_svg

    timelines = utilization_timelines(tracer)
    if not timelines:
        raise ExperimentError("trace holds no spans to render")
    if title is None:
        runs = tracer.runs
        if runs:
            title = "trace timeline: " + ", ".join(
                f"{r['kernel']}/{r['machine']}" for r in runs
            )
        else:
            title = "trace timeline"
    total = max(end for segs in timelines.values() for _, end in segs)
    return utilization_timeline_svg(title, timelines, total)


def manifest_record(
    run: Any,
    *,
    config_hash: Optional[str] = None,
    counters: Optional[Mapping[str, float]] = None,
) -> Dict[str, Any]:
    """One JSON-safe metrics-manifest record for a kernel run.

    Everything in the record is deterministic for a given model version
    (no wall times), so manifests from different PRs diff cleanly.
    ``counters`` optionally attaches a traced run's counter snapshot.
    """
    from repro.eval.export import kernel_run_record

    record: Dict[str, Any] = {
        "schema": MANIFEST_SCHEMA,
        "run_id": config_hash[:12] if config_hash else None,
        "config_hash": config_hash,
    }
    record.update(kernel_run_record(run))
    if counters is not None:
        record["trace_counters"] = dict(sorted(counters.items()))
    return record


def metrics_manifest_lines(
    results: Mapping[Tuple[str, str], Any],
    workloads: Optional[Mapping[str, Any]] = None,
) -> List[str]:
    """One manifest line per (kernel, machine) run, sorted by pair.

    ``workloads`` must be the same overrides the sweep ran with so the
    config hashes describe what actually executed.
    """
    from repro.perf.cache import cache_key

    lines = []
    for (kernel, machine), run in sorted(results.items()):
        kwargs: Dict[str, Any] = {}
        if workloads and kernel in workloads:
            kwargs["workload"] = workloads[kernel]
        record = manifest_record(
            run, config_hash=cache_key(kernel, machine, kwargs)
        )
        lines.append(json.dumps(record, sort_keys=True))
    return lines


def write_metrics_manifest(
    path: Union[str, Path],
    results: Mapping[Tuple[str, str], Any],
    workloads: Optional[Mapping[str, Any]] = None,
) -> Path:
    """Write the JSON-lines metrics manifest for a sweep (atomically);
    returns the path."""
    from repro.ioutil import atomic_write_text

    path = Path(path)
    atomic_write_text(
        path, "\n".join(metrics_manifest_lines(results, workloads)) + "\n"
    )
    return path


def write_chrome(path: Union[str, Path], tracer: Tracer) -> Path:
    """Write the chrome trace JSON for ``tracer`` (atomically); returns
    the path."""
    from repro.ioutil import atomic_write_text

    path = Path(path)
    atomic_write_text(path, json.dumps(to_chrome(tracer), indent=1) + "\n")
    return path
