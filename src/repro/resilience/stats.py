"""Resilience counters: every recovery action, counted and named.

The supervisor's whole value is that failures are *absorbed* — a killed
worker becomes a retried chunk, a corrupt cache entry becomes a
quarantined file — which means the only external evidence that anything
happened is telemetry.  :data:`RESILIENCE` is that evidence: a
:class:`~repro.trace.telemetry.Counters` tally of retries,
degradations, crashes, deadline misses, pool resurrections, broken
locks, and quarantines, plus the structured incident log behind them,
registered with :data:`~repro.trace.telemetry.TELEMETRY` as the
``resilience.*`` namespace and printed by ``repro report --perf``.

The acceptance contract of the chaos harness reads these directly:
under an injected worker kill a healthy supervisor shows
``resilience.retries >= 1`` and ``resilience.degradations == 0`` —
recovered in place, never silently downgraded to serial.  The embedded
checks that stage a degradation or a quarantine on purpose do it inside
``RESILIENCE.scoped()``, so those staged events never reach this tally.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Any, Dict, Iterator, List

from repro.trace.telemetry import TELEMETRY, Counters
from repro.trace.tracer import active_tracer

#: The service job (by id) on whose behalf the current thread is
#: working, or ``""`` outside any job.  Supervisor events and
#: degradation incidents stamp this into their payloads so ledger
#: events, journal records, and incident JSON are joinable.
_JOB_CONTEXT: contextvars.ContextVar[str] = contextvars.ContextVar(
    "repro_service_job", default=""
)


def current_job() -> str:
    """The service job id the current context is executing, or ``""``."""
    return _JOB_CONTEXT.get()


@contextlib.contextmanager
def job_scope(job: str) -> Iterator[None]:
    """Attribute supervisor incidents in this block to service job
    ``job`` (context-local; concurrent jobs don't bleed into each
    other's payloads)."""
    token = _JOB_CONTEXT.set(job)
    try:
        yield
    finally:
        _JOB_CONTEXT.reset(token)

#: Counter names, in render order.
COUNTERS = (
    "retries",
    "degradations",
    "worker_crashes",
    "deadline_exceeded",
    "pool_restarts",
    "isolated_cells",
    "failed_cells",
    "io_errors",
    "io_retries",
    "locks_broken",
    "quarantined",
    "chaos_injections",
)


class ResilienceStats(Counters):
    """The resilience tally plus its structured incident log.

    The snapshot adds ``last_degradation_reason``, read from the newest
    ``degradation`` incident, so a scope covers it with the log.
    """

    def note_degradation(self, reason: str) -> None:
        """Record one parallel→serial degradation and why it happened.

        The reason string replaces the bare ``RuntimeWarning`` the
        executor used to emit: it survives in the telemetry snapshot,
        the metrics manifest, and the ``--perf`` output, where a warning
        would have scrolled away.
        """
        self.note("degradations")
        payload = {"reason": reason}
        job = current_job()
        if job:
            payload["job"] = job
        self.log_incident("degradation", payload)
        tracer = active_tracer()
        if tracer is not None:
            tracer.instant(
                "degradation",
                track="resilience/supervisor",
                args=payload,
            )
        from repro.obs.ledger import record

        record("supervisor.degradation", **payload)

    def log_incident(self, kind: str, payload: Dict[str, Any]) -> None:
        """Keep one supervisor event's structured payload.

        The *same* payload object the supervisor mirrors onto the
        tracer and the flight-recorder ledger, so the chaos acceptance
        tests can compare the ledger's ``supervisor.*`` events against
        this log byte-for-byte (``json.dumps(..., sort_keys=True)``).
        """
        with self._lock:
            self._tally().incidents.append(
                {"kind": kind, "payload": dict(payload)}
            )

    def incidents(self) -> List[Dict[str, Any]]:
        """The structured incident log, in occurrence order."""
        with self._lock:
            return [
                {"kind": i["kind"], "payload": dict(i["payload"])}
                for i in self._tally().incidents
            ]

    def snapshot(self) -> Dict[str, Any]:
        snap = super().snapshot()
        reasons = [
            i["payload"]["reason"]
            for i in self.incidents()
            if i["kind"] == "degradation"
        ]
        snap["last_degradation_reason"] = reasons[-1] if reasons else ""
        return snap


#: Process-wide resilience tally.
RESILIENCE = ResilienceStats("resilience", COUNTERS)
TELEMETRY.register("resilience", RESILIENCE.snapshot)
