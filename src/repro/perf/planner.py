"""Sweep planner: collect → dedup → batch-dispatch → serve from cache.

Every sweep driver in the library — ``run_table3``, the sensitivity
perturbation study, the scaling curve, the ablation variants,
``full_report``'s prewarm — ultimately needs a *set* of ``(kernel,
machine, kwargs)`` cells.  Before this module each driver handed its
list to the executor independently, so overlapping cells (the shared
Table 3 baselines, a sensitivity sweep's unperturbed anchors) were
re-requested and, with caching off, re-simulated.

The planner makes the request set a first-class object:

1. **collect** — drivers add cells to a :class:`SweepPlan` (or pass a
   list to :func:`execute_requests`), receiving a slot per *request*;
2. **dedup** — requests are folded by content key
   (:func:`~repro.perf.cache.cache_key`) *before* any execution, and
   independently of whether the caches are enabled — structural
   deduplication, not a cache artifact;
3. **probe** — each unique cell is answered from tier 1 (the in-memory
   :data:`~repro.perf.cache.RUN_CACHE`) or tier 2 (the persistent
   :data:`~repro.perf.diskcache.DISK_CACHE`, promoting hits into
   tier 1) where possible;
4. **tensor-partition** — the misses are partitioned by
   :func:`repro.perf.tensorsweep.plan_units` into *dispatch units*:
   cells that differ only in float calibration constants collapse into
   one tensor batch group (a single structure pass evaluated as numpy
   arrays over the whole grid), everything else — traced runs,
   non-batchable kwargs, singleton groups — stays a per-cell unit;
5. **batch-dispatch** — units go to the process pool in *chunks* (one
   pool submission per chunk of units; a tensor batch counts as one
   unit regardless of its cell count), supervised by
   :class:`repro.resilience.Supervisor` (crashed workers are retried, a
   poisoned cell is isolated, and only an unusable pool transport
   degrades the batch to serial — see docs/robustness.md); workers run
   ``registry.run`` or the batch runner, writing results straight into
   the shared disk tier (one write per batch group), so sibling
   workers' parents and future processes hit without re-simulating;
6. **serve** — duplicate slots are filled with independent copies, and
   drivers index results by the slots they collected.

Each sweep's partition is one ``plan`` dict (``requests``,
``duplicates``, ``memory_hits``, ``disk_hits``, ``executed``, ``units``,
``batch_units``, ``batched_cells``), recorded as the ``sweep.plan``
ledger event and added to :data:`PLANNER_STATS`, so the ledger and the
counts cannot disagree.  The tally keeps the telemetry namespace these
counts have always had, ``perf.timers.counters.planner``; the tensor
engine's own counters live in ``perf.tensor``.  Execution records one
``sweep.progress`` event per finished unit (serial) or chunk (pool),
which the live progress line follows.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.ledger import record
from repro.perf import tensorsweep, timers
from repro.perf.cache import RUN_CACHE, cache_key, cached_form
from repro.perf.diskcache import DISK_CACHE
from repro.trace.telemetry import TELEMETRY, Counters

#: One sweep cell: (kernel, machine, mapping kwargs).
RunRequest = Tuple[str, str, Dict[str, Any]]

#: The planner's tally: one count per ``sweep.plan`` field.
PLANNER_STATS = Counters(
    "perf.timers.counters.planner",
    (
        "requests", "duplicates", "memory_hits", "disk_hits", "executed",
        "units", "batch_units", "batched_cells",
    ),
)
TELEMETRY.register(PLANNER_STATS.namespace, PLANNER_STATS.snapshot)


def execute_requests(
    requests: Sequence[RunRequest],
    jobs: Optional[int] = None,
    chunk_size: Optional[int] = None,
) -> List[Any]:
    """Evaluate run requests in order; the planner's full pipeline.

    Returns one :class:`~repro.arch.base.KernelRun` per request.
    ``jobs > 1`` dispatches cache misses to a process pool in chunked
    batches; ``chunk_size`` overrides the batch size (default: enough
    chunks for ~4 per worker, for load balance without per-cell
    submission overhead).
    """
    from repro.perf import executor

    requests = [
        (kernel, machine, dict(kwargs)) for kernel, machine, kwargs in requests
    ]
    n_jobs = executor.resolve_jobs(jobs)
    if not requests:
        return []
    results: List[Any] = [None] * len(requests)

    # Collect + dedup: one representative slot per content key.  Keys
    # are computed even with the caches disabled — identical requests
    # are pure-function calls, so evaluating one per key is a
    # structural optimisation, not a caching assumption.
    pending: List[Tuple[int, RunRequest, Optional[str]]] = []
    seen_keys: Dict[str, int] = {}
    duplicates: List[Tuple[int, int]] = []  # (slot, representative slot)
    disk_probe: List[Tuple[int, str]] = []  # tier-1 misses to batch-probe
    memory_hits = disk_hits = 0
    with timers.timer("sweep.cache-probe"):
        for i, (kernel, machine, kwargs) in enumerate(requests):
            key = cache_key(kernel, machine, kwargs)
            if key is not None:
                if key in seen_keys:
                    duplicates.append((i, seen_keys[key]))
                    continue
                # Tier 1: in-memory memo.
                if RUN_CACHE.enabled:
                    hit = RUN_CACHE.lookup(key)
                    if hit is not None:
                        results[i] = hit
                        seen_keys[key] = i
                        memory_hits += 1
                        continue
                seen_keys[key] = i
                if DISK_CACHE.enabled:
                    disk_probe.append((i, key))
            pending.append((i, requests[i], key))
        if disk_probe:
            # Tier 2: one batched probe against the persistent store —
            # a single manifest sync and segment-ordered payload reads
            # instead of a per-key index walk (promote hits to tier 1).
            served = DISK_CACHE.get_many([key for _, key in disk_probe])
            if served:
                for i, key in disk_probe:
                    value = served.get(key)
                    if value is not None:
                        value = cached_form(value)
                        if RUN_CACHE.enabled:
                            RUN_CACHE.insert(key, value)
                        results[i] = value
                        disk_hits += 1
                pending = [
                    item for item in pending if results[item[0]] is None
                ]

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
        "memory_hits": memory_hits,
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
            unit_outcomes = executor._run_unit_pool(
                units, n_jobs, chunk_size=chunk_size
            )
        pooled = unit_outcomes is not None
        if unit_outcomes is None:
            # Serial path: execute_unit handles both cache tiers itself
            # (registry.run for singles, the tensor engine's per-cell
            # round-trip for batches).
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
        if pooled:
            # Workers simulated in their own processes and wrote the
            # disk tier themselves (their registry.run / tensor engine
            # does); seed this process's memory tier so later calls
            # in-session hit.
            for (_, _, key), outcome in zip(pending, outcomes):
                if key is not None and RUN_CACHE.enabled:
                    RUN_CACHE.insert(key, outcome)
        for (i, _, _), outcome in zip(pending, outcomes):
            results[i] = outcome

    for i, rep in duplicates:
        results[i] = copy.deepcopy(results[rep])
    return results


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
