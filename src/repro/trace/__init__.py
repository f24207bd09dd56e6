"""Simulation tracing and telemetry (``repro trace``).

Opt-in observability for the machine models, zero-overhead when off:

* :mod:`repro.trace.tracer` — :class:`Tracer`, the :func:`tracing`
  context manager, and the :func:`active_tracer` hook every
  instrumentation site guards on;
* :mod:`repro.trace.telemetry` — the unified, namespaced metrics
  registry (:data:`TELEMETRY`), which every counter owner registers
  with, and :class:`~repro.trace.telemetry.Counters`, the one tally
  class the program's own counters share;
* :mod:`repro.trace.export` — Chrome ``trace_event`` JSON, per-resource
  utilization-timeline SVGs, and the JSON-lines metrics manifest;
* :mod:`repro.trace.run` — :func:`trace_run`, the one-call driver.

See ``docs/observability.md`` for the event schema, track naming, and
how to open a trace in Perfetto.
"""

from repro.trace.export import (
    chrome_busy_by_track,
    metrics_manifest_lines,
    timeline_svg,
    to_chrome,
    write_chrome,
    write_metrics_manifest,
)
from repro.trace.run import trace_run
from repro.trace.telemetry import TELEMETRY, TelemetryRegistry
from repro.trace.tracer import TraceEvent, Tracer, active_tracer, tracing

__all__ = [
    "TELEMETRY",
    "TelemetryRegistry",
    "TraceEvent",
    "Tracer",
    "active_tracer",
    "chrome_busy_by_track",
    "metrics_manifest_lines",
    "timeline_svg",
    "to_chrome",
    "trace_run",
    "tracing",
    "write_chrome",
    "write_metrics_manifest",
]
