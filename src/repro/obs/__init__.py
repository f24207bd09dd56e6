"""Flight recorder and metrics history (the ``obs`` layer).

Everything the runtime knows about itself — planner dispatch decisions,
supervisor incidents, chaos injections, cache-tier hits, wall timings,
the full TELEMETRY snapshot — used to evaporate when the process
exited.  This package makes the telemetry *durable* and *actionable*:

* :mod:`repro.obs.ledger` — the **flight recorder**: an append-only
  JSON-lines event log per CLI session
  (``.repro/obs/ledger/<session>.jsonl``), every event stamped with a
  content-addressed session id and a monotonic sequence number;
* :mod:`repro.obs.history` — the **metrics history**: one record per
  completed command appended to ``.repro/obs/history.jsonl`` (full
  telemetry snapshot, wall timings, run identity, deterministic model
  metrics);
* :mod:`repro.obs.regress` — ``repro metrics regress``: the
  continuous-benchmarking gate that compares the latest history record
  against prior history with per-metric tolerance bands, exiting
  non-zero on regression;
* :mod:`repro.obs.roofline` — ``repro analyze roofline``: per
  kernel×machine arithmetic intensity and memory-bound fraction derived
  from the cycle ledgers and trace tracks, reproducing the paper's
  "memory-intensive" argument as a computed artifact;
* :mod:`repro.obs.dashboard` — the self-contained HTML dashboard
  (history sparklines, cache hit rates, the roofline chart, utilization
  timelines reusing the SVG exporter);
* :mod:`repro.obs.progress` — the live :class:`ProgressReporter` (TTY
  and JSON-lines modes) wired into the planner and the Supervisor.

Observation only: nothing in this package may change a modelled number
or a byte of command stdout.  The ledger and history live in files, the
progress reporter writes to stderr, and the ``invariant.obs.*`` checks
(:mod:`repro.check.obs`) prove the ledger's accounting reconciles with
the planner/cache/supervisor telemetry it mirrors.
"""

from __future__ import annotations

from repro.obs.ledger import (
    FlightRecorder,
    current_recorder,
    end_session,
    obs_enabled,
    obs_root,
    record,
    recording,
    start_session,
)
from repro.obs.progress import (
    ProgressReporter,
    current_reporter,
    progress_reporting,
)

__all__ = [
    "FlightRecorder",
    "ProgressReporter",
    "current_recorder",
    "current_reporter",
    "end_session",
    "obs_enabled",
    "obs_root",
    "progress_reporting",
    "record",
    "recording",
    "start_session",
]
