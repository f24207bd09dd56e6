"""Resilience counters: every recovery action, counted and named.

The supervisor's whole value is that failures are *absorbed* — a killed
worker becomes a retried chunk, a corrupt cache entry becomes a
quarantined record — which means the only external evidence that
anything happened is telemetry.  :data:`RESILIENCE` is that evidence: a
:class:`~repro.trace.telemetry.Counters` tally of retries,
degradations, crashes, deadline misses, pool resurrections, read
retries and quarantines, plus the last degradation's reason, registered
with :data:`~repro.trace.telemetry.TELEMETRY` as the ``resilience.*``
namespace and printed by ``repro report --perf``.  The incidents
themselves are the session ledger's ``supervisor.*`` events: each
supervisor transition is one :meth:`ResilienceStats.transition` call,
which counts it, records it and mirrors it onto the tracer, so the
counts and the ledger cannot disagree.

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
from typing import Any, Dict, Iterator, Optional

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
    "quarantined",
    "chaos_injections",
)


#: The snapshot key naming the newest degradation's cause.
REASON = "last_degradation_reason"

#: Each supervisor transition and the counter it moves (``None``:
#: recorded, not counted).
TRANSITIONS: Dict[str, Optional[str]] = {
    "retry": "retries",
    "degradation": "degradations",
    "worker_crash": "worker_crashes",
    "deadline_exceeded": "deadline_exceeded",
    "pool_restart": "pool_restarts",
    "isolate": "isolated_cells",
    "cell_failed": "failed_cells",
    "incident": None,
}


class ResilienceStats(Counters):
    """The resilience tally, plus the last degradation's reason.

    The reason is kept in the tally the calling context sees, so a
    scope covers it with the counts.
    """

    def transition(self, kind: str, n: int = 1, **payload: Any) -> None:
        """One supervisor transition: add ``n`` to its counter
        (:data:`TRANSITIONS`), record ``supervisor.<kind>`` in the
        ledger and mirror it onto the tracer's ``resilience/supervisor``
        track as ``resilience.<kind>``.

        A transition inside a service job carries that job's id
        (``job``), making ledger events and journal records joinable
        in postmortems.
        """
        from repro.obs.ledger import record

        counter = TRANSITIONS[kind]
        if counter is not None:
            self.note(counter, n)
        job = current_job()
        if job:
            payload.setdefault("job", job)
        record(f"supervisor.{kind}", **payload)
        tracer = active_tracer()
        if tracer is not None:
            tracer.instant(
                f"resilience.{kind}",
                track="resilience/supervisor",
                args=payload or None,
            )

    def note_degradation(self, reason: str) -> None:
        """Record one parallel→serial degradation and why it happened.

        The reason survives in the telemetry snapshot, the metrics
        manifest and the ``--perf`` output, where a warning would have
        scrolled away.
        """
        with self._lock:
            self._tally()[REASON] = reason
        self.transition("degradation", reason=reason)

    def snapshot(self) -> Dict[str, Any]:
        snap = super().snapshot()
        snap.setdefault(REASON, "")
        return snap


#: Process-wide resilience tally.
RESILIENCE = ResilienceStats("resilience", COUNTERS)
TELEMETRY.register("resilience", RESILIENCE.snapshot)
