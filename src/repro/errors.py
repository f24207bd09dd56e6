"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while letting
programming errors (``TypeError`` etc.) propagate.

The resilience layer (:mod:`repro.resilience`) extends the hierarchy
with an execution-failure taxonomy: :class:`TransientError` marks
infrastructure failures that are legitimate to retry or degrade around,
while its subclasses :class:`WorkerCrashError` and
:class:`DeadlineExceeded` mark failures that *survived* the retry budget
and must propagate (re-running a crashing cell serially would take the
main process down with it).
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigError(ReproError):
    """A machine or kernel configuration is inconsistent or out of range."""


class CapacityError(ReproError):
    """A working set does not fit in the memory it was placed in.

    Raised, e.g., when a kernel mapping tries to stage more data in the
    Imagine stream register file or a Raw tile's local SRAM than the
    configured capacity allows.  The paper's experimental setup depends on
    these constraints (the corner-turn matrix was chosen to be *larger*
    than Imagine's SRF and Raw's local memories but *smaller* than VIRAM's
    on-chip DRAM), so capacity violations are hard errors rather than
    silent spills.
    """


class ScheduleError(ReproError):
    """A dependency schedule is malformed (cycles, unknown tasks, ...)."""


class PatternError(ReproError):
    """An address-stream pattern descriptor is malformed."""


class MappingError(ReproError):
    """A kernel→machine mapping was invoked with an unsupported workload."""


class ExperimentError(ReproError):
    """An evaluation-harness experiment is unknown or failed to run."""


class CheckError(ReproError):
    """A machine-checked invariant or differential oracle was violated.

    Raised by :mod:`repro.check` when a run's numbers break one of the
    paper-derived invariants (cycles below the §2.5 bound, traffic below
    the kernel footprint, ...) or when two redundant evaluation paths
    disagree.  Carries the rendered check report in its message.
    """


class ServiceError(ReproError):
    """A service request is malformed or cannot be admitted.

    Raised by the job runtime (:mod:`repro.service`) for unknown job
    kinds, non-content-addressable parameters, and submissions against
    a draining runtime; the HTTP layer maps it to a 4xx response
    instead of a stack trace.
    """


class TransientError(ReproError):
    """A retryable infrastructure failure (pool spawn, pickling, I/O).

    The supervised executor treats a ``TransientError`` that is *not*
    one of the subclasses below as "the pool cannot be used at all" and
    degrades to serial execution — the work itself is fine, only the
    parallel transport is broken.  Subclasses mark failures where the
    *work* misbehaved under supervision and retrying serially would be
    wrong.
    """


class WorkerCrashError(TransientError):
    """A worker process died (SIGKILL, OOM, hard crash) and the retry
    budget could not recover the affected cell.

    Carries ``incident`` — a structured description of the failed cells
    (request indices, attempt counts, last observed error) — so callers
    can report *which* cell is poisoned instead of a bare traceback.
    """

    def __init__(
        self, message: str, incident: Optional[Dict[str, Any]] = None
    ) -> None:
        super().__init__(message)
        self.incident: Dict[str, Any] = dict(incident or {})


class DeadlineExceeded(TransientError):
    """A supervised task ran past its per-chunk deadline on every
    attempt.  Carries the same structured ``incident`` payload as
    :class:`WorkerCrashError`."""

    def __init__(
        self, message: str, incident: Optional[Dict[str, Any]] = None
    ) -> None:
        super().__init__(message)
        self.incident: Dict[str, Any] = dict(incident or {})
