"""Sweep planner: collect → dedup → read the tiers → dispatch → serve.

Every sweep driver in the library — ``run_table3``, the sensitivity
perturbation study, the scaling curve, the ablation variants,
``full_report``'s prewarm — ultimately needs a *set* of ``(kernel,
machine, kwargs)`` cells, and hands it to :func:`execute_requests`
(directly or through a :class:`SweepPlan`), which returns one result
per request, in request order.  Because the mappings are pure
functions, a pooled sweep's results are identical to a serial one's.

1. **collect** — drivers add cells to a :class:`SweepPlan` (or pass a
   list to :func:`execute_requests`), receiving a slot per *request*;
2. **dedup** — requests are folded by content key
   (:func:`~repro.perf.cache.cache_key`) *before* any execution, and
   independently of whether the caches are enabled — structural
   deduplication, not a cache artifact;
3. **read** — one :func:`~repro.perf.cache.read_tiers` call answers
   what the tiers hold: tier 1, then one batched tier-2 read promoted
   into tier 1.  ``cache=False`` and traced requests are not read, so a
   traced sweep executes every cell, as a traced ``registry.run`` does;
4. **tensor-partition** — the misses are partitioned by
   :func:`repro.perf.tensorsweep.plan_units` into *dispatch units*:
   cells that differ only in float calibration constants collapse into
   one tensor batch group (a single structure pass evaluated as numpy
   arrays over the whole grid), everything else — traced runs,
   non-batchable kwargs, singleton groups — stays a per-cell unit that
   carries its key, so no unit reads the tiers again;
5. **dispatch** — serially, or on the process pool in *chunks* (one
   pool submission per chunk of units; a tensor batch counts as one
   unit regardless of its cell count), supervised by
   :class:`repro.resilience.Supervisor`: crashed workers are retried, a
   poisoned cell is isolated, and only an unusable pool transport
   degrades the sweep to serial, counted under
   ``resilience.degradations`` with its reason (see
   docs/robustness.md).  Units store their fresh results through
   :func:`~repro.perf.cache.write_tiers` wherever they run, so a pooled
   sweep's workers write the shared tier 2 themselves and the parent
   only seeds its own tier 1;
6. **serve** — duplicate slots are filled with independent copies, and
   drivers index results by the slots they collected.

Each sweep's partition is one ``plan`` dict (``requests``,
``duplicates``, ``memory_hits``, ``disk_hits``, ``executed``, ``units``,
``batch_units``, ``batched_cells``), recorded as the ``sweep.plan``
ledger event and added to :data:`PLANNER_STATS`, so the ledger and the
counts cannot disagree.  The tally keeps the telemetry namespace these
counts have always had, ``perf.timers.counters.planner``; the tensor
engine's own counters live in ``perf.tensor``.  Execution records one
``pool.dispatch`` event per pooled sweep and one ``sweep.progress``
event per finished unit (serial) or chunk (pool), which the live
progress line follows.  Mapping failures (``ReproError`` and friends)
propagate unchanged.
"""

from __future__ import annotations

import copy
import math
import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    DeadlineExceeded,
    ReproError,
    TransientError,
    WorkerCrashError,
)
from repro.obs.ledger import record
from repro.perf import tensorsweep, timers
from repro.perf.cache import RUN_CACHE, cache_key, read_tiers
from repro.trace.telemetry import TELEMETRY, Counters
from repro.trace.tracer import active_tracer

#: One sweep cell: (kernel, machine, mapping kwargs).
RunRequest = Tuple[str, str, Dict[str, Any]]

#: Target pool submissions per worker: enough chunks for load balance,
#: few enough that submission overhead stays amortised.
CHUNKS_PER_WORKER = 4

#: The planner's tally: one count per ``sweep.plan`` field.
PLANNER_STATS = Counters(
    "perf.timers.counters.planner",
    (
        "requests", "duplicates", "memory_hits", "disk_hits", "executed",
        "units", "batch_units", "batched_cells",
    ),
)
TELEMETRY.register(PLANNER_STATS.namespace, PLANNER_STATS.snapshot)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: ``None``/0/1 mean serial."""
    if jobs is None:
        return 1
    jobs = int(jobs)
    if jobs < 0:
        raise ReproError(f"jobs must be >= 0, got {jobs}")
    return max(1, jobs)


def chunked(
    items: Sequence[Any], n_jobs: int, chunk_size: Optional[int] = None,
) -> List[List[Any]]:
    """Split ``items`` into *balanced* dispatch batches.

    ``chunk_size`` caps the batch size (default: enough chunks for
    ~``CHUNKS_PER_WORKER`` per worker).  Work is spread near-evenly
    across the resulting chunks — sizes differ by at most one — instead
    of filling every chunk to the cap and leaving the remainder in a
    runt tail: with uniform slicing, 17 cells at cap 8 split 8/8/1, and
    whichever worker draws the 1-cell chunk idles while its siblings
    each grind through 8.  Balanced, the same sweep splits 6/6/5.
    """
    if not items:
        return []
    if chunk_size is None:
        chunk_size = max(
            1, math.ceil(len(items) / (n_jobs * CHUNKS_PER_WORKER))
        )
    chunk_size = max(1, int(chunk_size))
    n_chunks = math.ceil(len(items) / chunk_size)
    base, extra = divmod(len(items), n_chunks)
    chunks: List[List[Any]] = []
    start = 0
    for ci in range(n_chunks):
        size = base + (1 if ci < extra else 0)
        chunks.append(list(items[start:start + size]))
        start += size
    return chunks


def execute_requests(
    requests: Sequence[RunRequest],
    jobs: Optional[int] = None,
    chunk_size: Optional[int] = None,
) -> List[Any]:
    """Evaluate run requests in order; the planner's full pipeline.

    Returns one :class:`~repro.arch.base.KernelRun` per request.
    ``jobs > 1`` dispatches the tier misses to a process pool in chunked
    batches; ``chunk_size`` overrides the batch size (default: enough
    chunks for ~4 per worker, for load balance without per-cell
    submission overhead).
    """
    requests = [
        (kernel, machine, dict(kwargs)) for kernel, machine, kwargs in requests
    ]
    n_jobs = resolve_jobs(jobs)
    if not requests:
        return []
    results: List[Any] = [None] * len(requests)
    tracing = active_tracer() is not None

    # Collect + dedup: one representative slot per content key.  Keys
    # are computed even with the caches disabled — identical requests
    # are pure-function calls, so evaluating one per key is a
    # structural optimisation, not a caching assumption.  The key a
    # cell is read and stored under is ``None`` where no tier may
    # answer it.
    pending: List[Tuple[int, RunRequest, Optional[str]]] = []
    seen_keys: Dict[str, int] = {}
    duplicates: List[Tuple[int, int]] = []  # (slot, representative slot)
    with timers.timer("sweep.cache-probe"):
        for i, request in enumerate(requests):
            kernel, machine, kwargs = request
            key = cache_key(kernel, machine, kwargs)
            if key is not None:
                if key in seen_keys:
                    duplicates.append((i, seen_keys[key]))
                    continue
                seen_keys[key] = i
            if tracing or not kwargs.get("cache", True):
                key = None
            pending.append((i, request, key))
        found, disk_hits = read_tiers([key for _, _, key in pending])
    for i, _, key in pending:
        if key in found:
            results[i] = found[key]
    pending = [item for item in pending if item[2] not in found]

    # Partition the misses into dispatch units: tensor batch groups
    # (one structure pass, whole calibration grid) and per-cell
    # fallbacks.  A batch counts as ONE dispatch unit — chunk sizing
    # and pool submissions see units, not the batch width.
    units = (
        tensorsweep.plan_units(
            [(request, key) for _, request, key in pending]
        )
        if pending
        else []
    )
    batch_units = [u for u in units if isinstance(u, tensorsweep.BatchGroup)]
    plan = {
        "requests": len(requests),
        "duplicates": len(duplicates),
        "memory_hits": len(found) - disk_hits,
        "disk_hits": disk_hits,
        "executed": len(pending),
        "units": len(units),
        "batch_units": len(batch_units),
        "batched_cells": sum(len(u.positions) for u in batch_units),
    }
    PLANNER_STATS.add(plan)
    record("sweep.plan", **plan, jobs=n_jobs)
    for unit in units:
        record(
            "planner.dispatch",
            unit="batch" if isinstance(unit, tensorsweep.BatchGroup)
            else "cell",
            cells=len(unit.positions),
        )

    if pending:
        unit_outcomes = None
        if n_jobs > 1 and len(units) > 1:
            unit_outcomes = _run_unit_pool(
                units, n_jobs, chunk_size=chunk_size
            )
        pooled = unit_outcomes is not None
        if not pooled:
            with timers.timer("sweep.serial"):
                unit_outcomes = []
                for unit in units:
                    unit_outcomes.append(tensorsweep.execute_unit(unit))
                    record(
                        "sweep.progress", cells=len(unit.positions), units=1
                    )
        # Scatter unit results back to pending order.
        outcomes: List[Any] = [None] * len(pending)
        for unit, unit_results in zip(units, unit_outcomes):
            for position, outcome in zip(unit.positions, unit_results):
                outcomes[position] = outcome
        for (i, _, key), outcome in zip(pending, outcomes):
            if pooled and key is not None and RUN_CACHE.enabled:
                # The workers wrote tier 2; seed this process's tier 1
                # so later calls in the session hit.
                RUN_CACHE.insert(key, outcome)
            results[i] = outcome

    for i, rep in duplicates:
        results[i] = copy.deepcopy(results[rep])
    return results


def _run_chunk(units: Sequence[Any]) -> List[List[Any]]:
    """Pool-worker entry point (top-level for pickling): run one chunk
    of dispatch units, in order."""
    if os.environ.get("REPRO_CHAOS"):
        from repro.resilience import chaos

        chaos.on_worker_chunk()
    return [tensorsweep.execute_unit(unit) for unit in units]


def _run_unit_pool(
    units: Sequence[Any], n_jobs: int, chunk_size: Optional[int] = None,
) -> Optional[List[List[Any]]]:
    """Evaluate dispatch units on a supervised process pool; ``None`` if
    the pool transport cannot be used (caller falls back to serial).

    Chunking counts *units*, not cells: a tensor batch of a thousand
    calibration cells is one dispatch unit and one slot in a chunk, so
    pool load-balancing reflects actual submissions instead of
    inflating the chunk count by the batch width.  Failure
    classification is the supervisor's: worker crashes and deadline
    misses are retried internally (and raised as
    :class:`~repro.errors.WorkerCrashError` /
    :class:`~repro.errors.DeadlineExceeded` only once the retry budget
    is spent — those propagate, since re-running a crashing cell
    serially would take this process down too).  A plain
    :class:`~repro.errors.TransientError` means the pool *itself* is
    unusable; that degrades to serial here, counted under
    ``resilience.degradations`` with the reason recorded in telemetry.
    """
    from repro.resilience.stats import RESILIENCE
    from repro.resilience.supervisor import Supervisor

    chunks = chunked(units, n_jobs, chunk_size)
    record(
        "pool.dispatch", jobs=n_jobs, chunks=len(chunks), units=len(units),
    )
    try:
        with timers.timer("sweep.parallel"):
            batched = Supervisor(n_jobs, task=_run_chunk).run(chunks)
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
        return None


class SweepPlan:
    """A collected request set with slot-stable, dedup-aware execution.

    Drivers call :meth:`add` while enumerating the cells they will need
    — duplicate cells (by content key) share one slot, so the shared
    baselines of a sensitivity sweep are *hoisted* at collection time —
    then :meth:`execute` once, and read results by slot::

        plan = SweepPlan()
        base = plan.add("corner_turn", "viram")
        up = plan.add("corner_turn", "viram", calibration=perturbed)
        runs = plan.execute(jobs=4)
        elasticity = runs[up].cycles / runs[base].cycles
    """

    def __init__(self) -> None:
        self._requests: List[RunRequest] = []
        self._by_key: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._requests)

    def add(self, kernel: str, machine: str, **kwargs: Any) -> int:
        """Collect one cell; returns its slot.  A cell already collected
        (same content key) returns the existing slot instead of growing
        the plan."""
        key = cache_key(kernel, machine, kwargs)
        if key is not None and key in self._by_key:
            return self._by_key[key]
        slot = len(self._requests)
        self._requests.append((kernel, machine, dict(kwargs)))
        if key is not None:
            self._by_key[key] = slot
        return slot

    @property
    def requests(self) -> List[RunRequest]:
        """The deduped request list, in collection order."""
        return [
            (kernel, machine, dict(kwargs))
            for kernel, machine, kwargs in self._requests
        ]

    def execute(
        self,
        jobs: Optional[int] = None,
        chunk_size: Optional[int] = None,
    ) -> List[Any]:
        """Run the plan; returns one result per slot."""
        return execute_requests(
            self._requests, jobs=jobs, chunk_size=chunk_size
        )
