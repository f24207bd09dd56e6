"""Resilience counters: every recovery action, counted and named.

The supervisor's whole value is that failures are *absorbed* — a killed
worker becomes a retried chunk, a corrupt cache entry becomes a
quarantined file — which means the only external evidence that anything
happened is telemetry.  :data:`RESILIENCE` is that evidence: a
:class:`~repro.trace.telemetry.Counters` tally of retries,
degradations, crashes, deadline misses, pool resurrections, broken
locks, and quarantines, plus the last degradation's reason, registered
with :data:`~repro.trace.telemetry.TELEMETRY` as the ``resilience.*``
namespace and printed by ``repro report --perf``.  The incidents
themselves are the session ledger's ``supervisor.*`` events.

The acceptance contract of the chaos harness reads these directly:
under an injected worker kill a healthy supervisor shows
``resilience.retries >= 1`` and ``resilience.degradations == 0`` —
recovered in place, never silently downgraded to serial.  The embedded
check that stages a quarantine on purpose does it inside
``repro.obs.ledger.recording(RESILIENCE)``, so it never reaches this
tally.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Any, Dict, Iterator

from repro.trace.telemetry import TELEMETRY, Counters
from repro.trace.tracer import active_tracer

#: The service job (by id) on whose behalf the current thread is
#: working, or ``""`` outside any job.  Supervisor events stamp this
#: into their payloads so ledger events and journal records are
#: joinable.
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


#: The snapshot key naming the newest degradation's cause.
REASON = "last_degradation_reason"


class ResilienceStats(Counters):
    """The resilience tally, plus the last degradation's reason.

    The reason is kept in the tally the calling context sees, so a
    scope covers it with the counts.
    """

    def note_degradation(self, reason: str) -> None:
        """Record one parallel→serial degradation and why it happened.

        The reason string replaces the bare ``RuntimeWarning`` the
        executor used to emit: it survives in the telemetry snapshot,
        the metrics manifest, and the ``--perf`` output, where a warning
        would have scrolled away.
        """
        self.note("degradations")
        with self._lock:
            self._tally()[REASON] = reason
        payload = {"reason": reason}
        job = current_job()
        if job:
            payload["job"] = job
        tracer = active_tracer()
        if tracer is not None:
            tracer.instant(
                "degradation",
                track="resilience/supervisor",
                args=payload,
            )
        from repro.obs.ledger import record

        record("supervisor.degradation", **payload)

    def snapshot(self) -> Dict[str, Any]:
        snap = super().snapshot()
        snap.setdefault(REASON, "")
        return snap


#: Process-wide resilience tally.
RESILIENCE = ResilienceStats("resilience", COUNTERS)
TELEMETRY.register("resilience", RESILIENCE.snapshot)
