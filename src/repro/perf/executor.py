"""Parallel sweep executor for independent kernel runs.

A sweep — Table 3's fifteen cells, a sensitivity perturbation study, a
scaling curve — is a list of *run requests* ``(kernel, machine,
kwargs)`` whose executions are independent and deterministic.  This
module evaluates such a list either serially or on a
:class:`~concurrent.futures.ProcessPoolExecutor`, returning results in
request order; because the mappings are pure functions, the parallel
results are identical to serial execution.

Planning — deduplication, the two-tier cache probe, serving duplicate
slots — lives in :mod:`repro.perf.planner`; :func:`run_cells` is the
stable entry point that hands its request list to the planner.  This
module owns the *mechanics* of dispatch: the worker entry points and
the chunked process pool (one pool submission per chunk of cells, not
one per cell — a sweep of hundreds of small cells pays pickling and
scheduling overhead per chunk instead of per run).  Workers execute via
``registry.run``, which writes fresh results straight into the shared
disk tier, so sibling workers' parents and future processes hit.

Dispatch is *supervised* (:class:`repro.resilience.Supervisor`): a
crashed worker or a chunk that misses its deadline is retried with
backoff on a resurrected pool, a persistently failing cell is isolated
and reported precisely, and only a failure of the pool *transport*
itself (restricted sandboxes, interpreters without ``fork``/``spawn``,
unpicklable payloads) degrades the sweep to serial execution.  Each
degradation is counted under ``resilience.degradations`` with the
classified reason string recorded in telemetry — not a warning that
scrolls away.  Failures raised by the mappings themselves
(``ReproError`` and friends) propagate unchanged.
"""

from __future__ import annotations

import math
import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError, TransientError
from repro.perf import timers

__all__ = ["RunRequest", "resolve_jobs", "run_cells", "chunked"]

#: One sweep cell: (kernel, machine, mapping kwargs).
RunRequest = Tuple[str, str, Dict[str, Any]]

#: Target pool submissions per worker: enough chunks for load balance,
#: few enough that submission overhead stays amortised.
CHUNKS_PER_WORKER = 4


def _execute(request: RunRequest):
    """Worker entry point: run one request (top-level for pickling)."""
    kernel, machine, kwargs = request
    from repro.mappings import registry

    return registry.run(kernel, machine, **kwargs)


def _execute_chunk(chunk: Sequence[RunRequest]) -> List[Any]:
    """Worker entry point: run one chunk of requests, in order.

    Each run goes through ``registry.run``, so the worker's own cache
    tiers apply — in particular every fresh result is persisted to the
    shared disk tier before the chunk is pickled back to the parent.
    """
    if os.environ.get("REPRO_CHAOS"):
        from repro.resilience import chaos

        chaos.on_worker_chunk()
    return [_execute(request) for request in chunk]


def _execute_unit(unit) -> List[Any]:
    """Worker entry point: run one dispatch unit (top-level for
    pickling).  A :class:`~repro.perf.tensorsweep.BatchGroup` evaluates
    its whole calibration grid in one call; a
    :class:`~repro.perf.tensorsweep.SingleCell` goes through
    ``registry.run``.  Either way the worker's cache tiers apply —
    fresh results are persisted to the shared disk tier in their
    cached form."""
    from repro.perf import tensorsweep

    return tensorsweep.execute_unit(unit)


def _execute_unit_chunk(chunk: Sequence[Any]) -> List[List[Any]]:
    """Worker entry point: run one chunk of dispatch units, in order."""
    if os.environ.get("REPRO_CHAOS"):
        from repro.resilience import chaos

        chaos.on_worker_chunk()
    return [_execute_unit(unit) for unit in chunk]


def chunked(
    requests: Sequence[RunRequest], n_jobs: int,
    chunk_size: Optional[int] = None,
) -> List[List[RunRequest]]:
    """Split ``requests`` into *balanced* dispatch batches.

    ``chunk_size`` caps the batch size (default: enough chunks for
    ~``CHUNKS_PER_WORKER`` per worker).  Work is spread near-evenly
    across the resulting chunks — sizes differ by at most one — instead
    of filling every chunk to the cap and leaving the remainder in a
    runt tail: with uniform slicing, 17 cells at cap 8 split 8/8/1, and
    whichever worker draws the 1-cell chunk idles while its siblings
    each grind through 8.  Balanced, the same sweep splits 6/6/5.
    """
    if not requests:
        return []
    if chunk_size is None:
        chunk_size = max(
            1, math.ceil(len(requests) / (n_jobs * CHUNKS_PER_WORKER))
        )
    chunk_size = max(1, int(chunk_size))
    n_chunks = math.ceil(len(requests) / chunk_size)
    base, extra = divmod(len(requests), n_chunks)
    chunks: List[List[RunRequest]] = []
    start = 0
    for ci in range(n_chunks):
        size = base + (1 if ci < extra else 0)
        chunks.append(list(requests[start:start + size]))
        start += size
    return chunks


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: ``None``/0/1 mean serial."""
    if jobs is None:
        return 1
    jobs = int(jobs)
    if jobs < 0:
        raise ReproError(f"jobs must be >= 0, got {jobs}")
    return max(1, jobs)


def run_cells(
    requests: Sequence[RunRequest],
    jobs: Optional[int] = None,
    chunk_size: Optional[int] = None,
) -> List[Any]:
    """Evaluate run requests, in order; ``jobs > 1`` uses a process pool.

    Returns one :class:`~repro.arch.base.KernelRun` per request.
    Requests already held by either cache tier are answered without
    dispatch; fresh results land in both tiers.  Duplicate requests in
    one sweep are evaluated once.  This is a thin front over
    :func:`repro.perf.planner.execute_requests`.
    """
    from repro.perf.planner import execute_requests

    return execute_requests(requests, jobs=jobs, chunk_size=chunk_size)


def _run_pool(
    requests: Sequence[RunRequest], n_jobs: int,
    chunk_size: Optional[int] = None,
) -> Optional[List[Any]]:
    """Evaluate on a supervised process pool, one submission per chunk;
    ``None`` if the pool transport cannot be used (caller falls back to
    serial).

    Failure classification is the supervisor's: worker crashes and
    deadline misses are retried internally (and raised as
    :class:`~repro.errors.WorkerCrashError` /
    :class:`~repro.errors.DeadlineExceeded` only once the retry budget
    is spent — those propagate, since re-running a crashing cell
    serially would take this process down too).  A plain
    :class:`~repro.errors.TransientError` means the pool *itself* is
    unusable; that degrades to serial here, counted under
    ``resilience.degradations`` with the reason recorded in telemetry.
    Mapping errors (``ReproError``) propagate unchanged.
    """
    from repro.errors import DeadlineExceeded, WorkerCrashError
    from repro.obs.ledger import record
    from repro.resilience.stats import RESILIENCE
    from repro.resilience.supervisor import Supervisor

    chunks = chunked(requests, n_jobs, chunk_size)
    record(
        "pool.dispatch", jobs=n_jobs, chunks=len(chunks),
        cells=len(requests),
    )
    try:
        with timers.timer("sweep.parallel"):
            timers.count("sweep.pool_chunks", len(chunks))
            batched = Supervisor(n_jobs).run(chunks)
        return [result for batch in batched for result in batch]
    except (WorkerCrashError, DeadlineExceeded):
        raise
    except TransientError as exc:
        # Pool transport unavailable (sandbox, no fork, unpicklable
        # payload): run the sweep serially instead.  The fallback keeps
        # results identical, but silently losing the requested
        # parallelism hides real environment problems — record the
        # classified cause where it persists.
        cause = exc.__cause__
        reason = (
            f"{type(cause).__name__}: {cause}" if cause is not None
            else str(exc)
        )
        RESILIENCE.note_degradation(reason)
        timers.count("sweep.pool_fallback")
        return None


def _run_unit_pool(
    units: Sequence[Any], n_jobs: int,
    chunk_size: Optional[int] = None,
) -> Optional[List[List[Any]]]:
    """Evaluate dispatch units on a supervised process pool; ``None`` if
    the pool transport cannot be used (caller falls back to serial).

    Chunking counts *units*, not cells: a tensor batch of a thousand
    calibration cells is one dispatch unit and one slot in a chunk, so
    pool load-balancing reflects actual submissions instead of
    inflating the chunk count by the batch width.  Failure
    classification matches :func:`_run_pool` — crashes and deadline
    misses propagate once the supervisor's retry budget is spent, a
    transport-level :class:`~repro.errors.TransientError` degrades to
    serial with the reason recorded in telemetry.
    """
    from repro.errors import DeadlineExceeded, WorkerCrashError
    from repro.obs.ledger import record
    from repro.resilience.stats import RESILIENCE
    from repro.resilience.supervisor import Supervisor

    chunks = chunked(units, n_jobs, chunk_size)
    record(
        "pool.dispatch", jobs=n_jobs, chunks=len(chunks), units=len(units),
    )
    try:
        with timers.timer("sweep.parallel"):
            timers.count("sweep.pool_chunks", len(chunks))
            batched = Supervisor(n_jobs, task=_execute_unit_chunk).run(chunks)
        return [result for batch in batched for result in batch]
    except (WorkerCrashError, DeadlineExceeded):
        raise
    except TransientError as exc:
        cause = exc.__cause__
        reason = (
            f"{type(cause).__name__}: {cause}" if cause is not None
            else str(exc)
        )
        RESILIENCE.note_degradation(reason)
        timers.count("sweep.pool_fallback")
        return None
