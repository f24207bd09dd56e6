"""Service counters: every admission decision and lifecycle event, counted.

Like :mod:`repro.resilience.stats` one tier down, the service absorbs
trouble rather than surfacing it — a duplicate request becomes a dedup
hit, saturation becomes a 429, a crash becomes a replay — so counters
are the only external evidence of what happened.  :data:`SERVICE_STATS`
is a :class:`~repro.trace.telemetry.Counters` tally registered with
:data:`~repro.trace.telemetry.TELEMETRY` as the ``service.*`` namespace;
the dedup-conservation invariant and the chaos service scenarios assert
against it (N identical submissions show ``deduped == N - 1`` and
exactly one planner execution).  The fast tier's scratch-runtime
experiment counts inside ``SERVICE_STATS.scoped()``, so a report or a
service job's validation adds nothing here.
"""

from __future__ import annotations

from repro.trace.telemetry import TELEMETRY, Counters

#: Counter names, in render order.
COUNTERS = (
    "submitted",
    "admitted",
    "deduped",
    "rejected_saturated",
    "rejected_shed",
    "rejected_draining",
    "rejected_invalid",
    "completed",
    "failed",
    "cancelled",
    "replayed",
    "journal_torn_tails",
    "drains",
    "http_requests",
    "http_errors",
    "client_disconnects",
)

#: Process-wide service tally.
SERVICE_STATS = Counters("service", COUNTERS)
TELEMETRY.register("service", SERVICE_STATS.snapshot)
