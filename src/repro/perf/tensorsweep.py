"""Tensorized sweep engine: whole parameter grids as numpy batches.

A dense sweep — the sensitivity study, a calibration grid, a scaling
family — produces many cells that differ *only* in float calibration
constants: same kernel, same machine, same workload, same mapping
options.  Evaluating them one ``registry.run`` at a time repeats the
calibration-independent heavy lifting (address-stream construction, DRAM
activation counting, cache-trace simulation, functional references) once
per cell, even though it is identical across the grid.

Every mapping module therefore splits its ``run`` into a ``_structure``
pass and a batched ``_evaluate`` (see :mod:`repro.mappings.batch`),
exposed through ``run_batch(calibrations, **kwargs)`` entry points in
:data:`repro.mappings.registry._BATCH_REGISTRY`.  This module is the
piece that lets the *planner* use them:

* :func:`plan_units` partitions a pending (post-dedup, post-cache-probe)
  request list into **dispatch units**: :class:`BatchGroup` for runs of
  cells that share a batchable signature (same kernel/machine, same
  non-calibration kwargs, same structural calibration fields) and
  :class:`SingleCell` for everything else — pairs without a batch entry
  point, uncacheable kwargs, singleton groups, and *all* cells while a
  tracer is active (a traced run must execute per cell to emit its
  spans; see the ``tracer_fallbacks`` counter).
* :func:`execute_unit` runs one unit — a batch group through its batch
  runner, a single through ``registry.run`` — and round-trips batch
  results into the exact per-cell cache entries the scalar path would
  have written: each cell is validated by the post-run hook and inserted
  under its *original* content key, so memoization, the disk tier,
  golden snapshots, and the differential oracles observe no difference.

Bit-identity of the batch path is by construction — ``run()`` *is* the
batch of one — and is continuously re-proven by the
``invariant.tensor.*`` differential check (:mod:`repro.check.tensor`).

Engine activity is exported as the ``perf.tensor`` TELEMETRY namespace
via :data:`TENSOR_STATS` and shown by ``repro report --perf``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.calibration import Calibration
from repro.perf import timers
from repro.perf.cache import RUN_CACHE, cache_key, cached_form
from repro.perf.diskcache import DISK_CACHE
from repro.trace.telemetry import TELEMETRY, Counters
from repro.trace.tracer import active_tracer

#: One sweep cell: (kernel, machine, mapping kwargs).
RunRequest = Tuple[str, str, Dict[str, Any]]


#: Process-wide engine counters.  Updated in the planning process, so
#: pool workers need not report back.
TENSOR_STATS = Counters(
    "perf.tensor",
    ("batches", "batched_cells", "fallback_cells", "tracer_fallbacks"),
)
TELEMETRY.register("perf.tensor", TENSOR_STATS.snapshot)


@dataclass
class SingleCell:
    """A per-cell dispatch unit; executes through ``registry.run``."""

    request: RunRequest
    #: Index into the pending list this unit's one result fills.
    positions: List[int]


@dataclass
class BatchGroup:
    """A tensor-batchable dispatch unit: one structure pass, many cells.

    All cells share ``kernel``/``machine`` and ``base_kwargs`` (the
    mapping kwargs minus ``calibration``); they differ only in the float
    calibration constants carried by ``calibrations``.  ``keys`` and
    ``cell_kwargs`` preserve each cell's *original* content key and
    kwargs so results round-trip into exactly the cache entries and
    validation calls the scalar path would have produced.
    """

    kernel: str
    machine: str
    base_kwargs: Dict[str, Any]
    calibrations: List[Calibration] = field(default_factory=list)
    keys: List[Optional[str]] = field(default_factory=list)
    cell_kwargs: List[Dict[str, Any]] = field(default_factory=list)
    positions: List[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.positions)


DispatchUnit = Union[SingleCell, BatchGroup]


def plan_units(
    pairs: Sequence[Tuple[RunRequest, Optional[str]]],
) -> List[DispatchUnit]:
    """Partition pending ``(request, content_key)`` pairs into dispatch
    units, preserving first-appearance order.

    Cells group when they share a *batch signature* — kernel, machine,
    the content key of the non-calibration kwargs, and the structural
    calibration fields (:data:`repro.mappings.batch.STRUCTURAL_CAL_FIELDS`)
    — and the pair has a batch entry point.  Groups of one demote back to
    :class:`SingleCell` (a batch of one would be correct, but the scalar
    path skips the grouping bookkeeping).  An active tracer forces every
    cell per-cell: traced runs must execute individually so their spans
    attach to the right run.  Engine counters are updated here, in the
    planning process, so pool workers need not report back.
    """
    from repro.mappings import batch, registry
    from repro.mappings.base import resolve_calibration

    tracing = active_tracer() is not None
    units: List[DispatchUnit] = []
    groups: Dict[Tuple, BatchGroup] = {}

    for position, (request, key) in enumerate(pairs):
        kernel, machine, kwargs = request
        single = SingleCell(request=request, positions=[position])
        if tracing:
            TENSOR_STATS.note("fallback_cells")
            TENSOR_STATS.note("tracer_fallbacks")
            units.append(single)
            continue
        if (
            registry.batch_runner(kernel, machine) is None
            or "cache" in kwargs
            or "calibration" in kwargs
            and kwargs["calibration"] is not None
            and not isinstance(kwargs["calibration"], Calibration)
        ):
            TENSOR_STATS.note("fallback_cells")
            units.append(single)
            continue
        base_kwargs = {
            k: v for k, v in kwargs.items() if k != "calibration"
        }
        base_key = cache_key(kernel, machine, base_kwargs)
        if base_key is None:
            # Some kwarg has no canonical content encoding; without a
            # signature the cell cannot prove it shares a structure.
            TENSOR_STATS.note("fallback_cells")
            units.append(single)
            continue
        cal = resolve_calibration(kwargs.get("calibration"))
        signature = (
            kernel,
            machine,
            base_key,
            batch.structural_signature(batch.CAL_GROUP[machine], cal),
        )
        group = groups.get(signature)
        if group is None:
            group = BatchGroup(
                kernel=kernel, machine=machine, base_kwargs=base_kwargs
            )
            groups[signature] = group
            units.append(group)
        group.calibrations.append(cal)
        group.keys.append(key)
        group.cell_kwargs.append(kwargs)
        group.positions.append(position)

    planned: List[DispatchUnit] = []
    for unit in units:
        if isinstance(unit, BatchGroup) and len(unit) == 1:
            TENSOR_STATS.note("fallback_cells")
            planned.append(
                SingleCell(
                    request=(unit.kernel, unit.machine, unit.cell_kwargs[0]),
                    positions=unit.positions,
                )
            )
            continue
        if isinstance(unit, BatchGroup):
            TENSOR_STATS.note("batches")
            TENSOR_STATS.note("batched_cells", len(unit))
        planned.append(unit)
    return planned


def run_group(group: BatchGroup) -> List[Any]:
    """Execute one batch group; returns cached-form results in cell
    order.

    The batch runner shares one structure pass across the cells; each
    result is then treated exactly as a fresh scalar run — post-run
    validated against its original kwargs, reduced to its
    :func:`~repro.perf.cache.cached_form` and inserted into both cache
    tiers under its original content key — so downstream consumers
    cannot tell the paths apart.  The cells share one output array,
    which is hashed once, and the group reaches the disk tier in one
    ``put_many``.
    """
    from repro.mappings import registry

    runner = registry.batch_runner(group.kernel, group.machine)
    if runner is None:  # pragma: no cover - plan_units guarantees it
        raise RuntimeError(
            f"no batch runner for {group.kernel}/{group.machine}"
        )
    with timers.timer(f"batch:{group.kernel}/{group.machine}"):
        results = runner(group.calibrations, **group.base_kwargs)
    digests: Dict[int, Optional[str]] = {}
    forms: List[Any] = []
    for result, kwargs in zip(results, group.cell_kwargs):
        registry.post_run_validate(result, kwargs)
        form = cached_form(result, digests.get(id(result.output)))
        digests[id(result.output)] = form.output_digest
        forms.append(form)
    items = [(key, form) for key, form in zip(group.keys, forms) if key]
    if RUN_CACHE.enabled:
        for key, form in items:
            RUN_CACHE.insert(key, form)
    DISK_CACHE.put_many(items)
    return forms


def execute_unit(unit: DispatchUnit) -> List[Any]:
    """Run one dispatch unit; returns one result per position (order
    matching ``unit.positions``)."""
    if isinstance(unit, BatchGroup):
        return run_group(unit)
    from repro.perf import executor

    return [executor._execute(unit.request)]
