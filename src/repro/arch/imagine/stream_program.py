"""Stream-program representation and execution for Imagine.

§2.4: "the programming model is based on streams ... a program is
described in two languages, one for the host (or control) thread ... and
one for the stream processing unit".  The host-level program is a
sequence of *stream operations* — memory loads/stores between DRAM and
the SRF, and kernel invocations on the cluster array — issued in order
by the stream controller, with double buffering emerging from the
dependency structure rather than being assumed.

:class:`StreamProgram` captures that host program; :func:`execute`
schedules it with the in-order earliest-start scheduler over the
machine's two memory controllers (least-loaded assignment per stream)
and the single cluster array.  The Imagine kernel mappings build their
host programs explicitly, so memory/compute overlap — §4.2's "87% of the
cycles ... are due to memory transfers" and §4.3's fully-hidden CSLC
streams — is an *outcome* of the schedule.

A calibration sweep re-times one program many times.  Costing and
scheduling are separate steps.  :func:`cost_program` runs the program's
memory ops once through the DRAM model and records each op's
calibration-independent :class:`OpCost`; :func:`replay` then compiles
those costs into an op table — dependencies resolved to indices — and
re-runs the in-order schedule over plain floats once per calibration
cell.  The Imagine mappings call those two.  :func:`execute_measured`
costs the program and also schedules it with the
:class:`~repro.sim.schedule.DependencyScheduler`, the reference schedule
that :func:`replay` is held to.  The scheduler is also what emits the
memory and cluster trace spans, so :func:`cost_program` runs it too,
but only while a tracer is active.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.imagine.machine import ImagineMachine
from repro.errors import ScheduleError
from repro.memory.dram import PIECE_WORDS, DRAMCost
from repro.memory.streams import AccessPattern
from repro.sim.resources import TimelineResource
from repro.sim.schedule import DependencyScheduler, Task
from repro.trace.tracer import active_tracer


@dataclass(frozen=True)
class StreamOp:
    """One host-program operation.

    ``kind`` is ``"load"``/``"store"`` (with ``pattern`` set and
    optionally ``gather``) or ``"kernel"`` (with ``cycles`` set —
    inner-loop time including the software-pipeline prologue).
    ``deps`` name earlier ops whose completion this op requires (data in
    the SRF, buffers freed).
    """

    name: str
    kind: str
    pattern: Optional[AccessPattern] = None
    gather: bool = False
    cycles: float = 0.0
    deps: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("load", "store", "kernel"):
            raise ScheduleError(
                f"op {self.name!r}: kind must be load/store/kernel"
            )
        if self.kind == "kernel":
            if self.pattern is not None:
                raise ScheduleError(
                    f"kernel op {self.name!r} must not carry a pattern"
                )
            if self.cycles < 0:
                raise ScheduleError(
                    f"kernel op {self.name!r}: negative cycles"
                )
        elif self.pattern is None:
            raise ScheduleError(
                f"memory op {self.name!r} needs an access pattern"
            )


@dataclass
class StreamSchedule:
    """Outcome of executing a stream program."""

    makespan: float
    memory_busy: float
    cluster_busy: float
    op_intervals: Dict[str, Tuple[float, float]] = field(default_factory=dict)

    @property
    def memory_wall(self) -> float:
        """Total memory-system busy time (the §4.2 memory bound)."""
        return self.memory_busy

    @property
    def exposed_over_memory(self) -> float:
        """Cycles the schedule runs past the memory wall — the
        unoverlapped kernel time of §4.2's 13%."""
        return max(0.0, self.makespan - self.memory_wall)


class StreamProgram:
    """An ordered host program of :class:`StreamOp`."""

    def __init__(self) -> None:
        self._ops: List[StreamOp] = []
        self._names: set = set()

    def add(self, op: StreamOp) -> None:
        if op.name in self._names:
            raise ScheduleError(f"duplicate stream op {op.name!r}")
        for dep in op.deps:
            if dep not in self._names:
                raise ScheduleError(
                    f"op {op.name!r} depends on unknown op {dep!r} "
                    "(host program is issued in order)"
                )
        self._ops.append(op)
        self._names.add(op.name)

    def load(
        self,
        name: str,
        pattern: AccessPattern,
        deps: Sequence[str] = (),
        gather: bool = False,
    ) -> None:
        self.add(StreamOp(name, "load", pattern=pattern, gather=gather,
                          deps=tuple(deps)))

    def store(
        self, name: str, pattern: AccessPattern, deps: Sequence[str] = ()
    ) -> None:
        self.add(StreamOp(name, "store", pattern=pattern, deps=tuple(deps)))

    def kernel(
        self, name: str, cycles: float, deps: Sequence[str] = ()
    ) -> None:
        self.add(StreamOp(name, "kernel", cycles=cycles, deps=tuple(deps)))

    @property
    def ops(self) -> Tuple[StreamOp, ...]:
        return tuple(self._ops)

    def __len__(self) -> int:
        return len(self._ops)


@dataclass(frozen=True)
class OpCost:
    """Structural cost coefficients of one stream op.

    :func:`cost_program` records these while it runs the DRAM model
    in program order; :func:`replay` turns them back into op durations
    under other calibrations without touching DRAM state.
    ``issue_cycles`` (data transfer at the controller rate),
    ``activations`` (row switches, a pure function of the address stream
    and bank geometry) and ``n_words`` are calibration-independent; the
    row-cycle time, gather derate, and kernel durations re-enter at
    replay.
    """

    name: str
    kind: str
    deps: Tuple[str, ...]
    issue_cycles: float = 0.0
    activations: int = 0
    n_words: int = 0
    gather: bool = False
    cycles: float = 0.0  # kernel duration under the measuring calibration


def cost_program(
    program: StreamProgram, machine: ImagineMachine
) -> Tuple[OpCost, ...]:
    """Each op's :class:`OpCost`, in program order, for :func:`replay`.

    The memory ops go through the DRAM model in program order, in
    consecutive groups of about :data:`~repro.memory.dram.PIECE_WORDS`
    words (an op longer than that alone); open rows carry from group to
    group, so each op's cost is what a per-op ``access`` call gives.
    While a tracer is active the program is also scheduled, as
    :func:`execute_measured` does, for the memory and cluster spans the
    schedule emits; the schedule itself is dropped.
    """
    dram_costs = _dram_costs(program, machine)
    if active_tracer() is not None:
        _schedule(program, machine, dram_costs)
    return _op_costs(program, dram_costs)


def execute_measured(
    program: StreamProgram, machine: ImagineMachine
) -> Tuple[StreamSchedule, Tuple[OpCost, ...]]:
    """Schedule ``program`` on ``machine`` and record per-op cost
    coefficients for later replay.

    Each memory stream stripes across the machine's controllers (the
    memory controllers "reorder accesses ... to increase data access
    locality", §2.2, and interleave banks between them), so the memory
    system appears as one resource moving ``memory_controllers`` words
    per cycle; kernels serialise on the single SIMD cluster array.
    Issue is in program order, so a later op can never displace an
    earlier one.  The memory ops are costed as in :func:`cost_program`.
    """
    dram_costs = _dram_costs(program, machine)
    return (
        _schedule(program, machine, dram_costs),
        _op_costs(program, dram_costs),
    )


def _dram_costs(
    program: StreamProgram, machine: ImagineMachine
) -> Dict[str, DRAMCost]:
    """Each memory op's :class:`DRAMCost`, by op name, costed in groups
    as :func:`cost_program` describes."""
    # Each group's address streams, concatenated, are one ``access_run``
    # whose open-row state threads through exactly as per-op ``access``
    # calls would (the access_run contract, held to by the DRAM oracle).
    # A corner-turn program issues hundreds of short streams: a few
    # vectorised passes replace per-op bank walks, and a group's passes
    # stay in cache.
    dram_costs: Dict[str, DRAMCost] = {}
    rate = machine.config.controller_words_per_cycle

    def cost_group(group: List[StreamOp]) -> None:
        address_runs = [op.pattern.addresses() for op in group]
        batch = machine.dram.access_run(
            np.concatenate(address_runs),
            np.asarray([a.size for a in address_runs], dtype=np.int64),
            np.full(len(group), rate, dtype=np.float64),
        )
        for i, op in enumerate(group):
            dram_costs[op.name] = batch.segment(i)

    group: List[StreamOp] = []
    group_words = 0
    for op in program.ops:
        if op.kind == "kernel":
            continue
        if group and group_words + op.pattern.n_words > PIECE_WORDS:
            cost_group(group)
            group, group_words = [], 0
        group.append(op)
        group_words += op.pattern.n_words
    if group:
        cost_group(group)
    return dram_costs


def _op_costs(
    program: StreamProgram, dram_costs: Dict[str, DRAMCost]
) -> Tuple[OpCost, ...]:
    """The :class:`OpCost` of every op, in program order."""
    costs: List[OpCost] = []
    for op in program.ops:
        if op.kind == "kernel":
            costs.append(
                OpCost(name=op.name, kind=op.kind, deps=op.deps,
                       cycles=op.cycles)
            )
        else:
            cost = dram_costs[op.name]
            costs.append(
                OpCost(
                    name=op.name,
                    kind=op.kind,
                    deps=op.deps,
                    issue_cycles=cost.issue_cycles,
                    activations=cost.activations,
                    n_words=op.pattern.n_words,
                    gather=op.gather,
                )
            )
    return tuple(costs)


def _schedule(
    program: StreamProgram,
    machine: ImagineMachine,
    dram_costs: Dict[str, DRAMCost],
) -> StreamSchedule:
    """Run ``program`` through the in-order dependency scheduler, with
    each memory op's duration from its DRAM cost (see
    :func:`execute_measured` for the resource model)."""
    memory = TimelineResource("memory-system")
    clusters = TimelineResource("cluster-array")
    scheduler = DependencyScheduler()
    for op in program.ops:
        if op.kind == "kernel":
            resource = clusters
            duration = op.cycles
        else:
            resource = memory
            controller_cycles = (
                machine.gather_cycles(op.pattern)
                if op.gather
                else dram_costs[op.name].stream_cycles
            )
            duration = machine.memory_time(controller_cycles)
        scheduler.add(Task(op.name, resource, duration, deps=op.deps))

    intervals = {
        t.name: (t.start, t.end) for t in scheduler.tasks
    }
    return StreamSchedule(
        makespan=scheduler.makespan,
        memory_busy=memory.busy_cycles,
        cluster_busy=clusters.busy_cycles,
        op_intervals=intervals,
    )


def execute(program: StreamProgram, machine: ImagineMachine) -> StreamSchedule:
    """Schedule ``program`` on ``machine``; returns the timeline summary
    (see :func:`execute_measured` for the resource model)."""
    schedule, _ = execute_measured(program, machine)
    return schedule


#: Op kinds of a compiled replay table.
_STREAM, _GATHER, _KERNEL = 0, 1, 2


def replay(
    costs: Sequence[OpCost],
    machine: ImagineMachine,
    *,
    row_cycle: Sequence[float],
    gather_derate: Sequence[float],
    kernel_cycles: Sequence[Sequence[float]],
) -> List[Tuple[float, float, float]]:
    """Replay a costed program once per calibration cell.

    Cell ``i`` rebuilds every op duration from the structural
    coefficients — ``(issue + activations * row_cycle[i]) /
    memory_controllers`` for record streams, the derated word rate for
    gathers, ``kernel_cycles[i]`` (one duration per kernel op, in
    program order) for kernels — and re-runs :func:`execute_measured`'s
    in-order earliest-start schedule: an op starts at the later of its
    dependencies' ends and its resource's free time.  Under the
    measuring calibration's constants this reproduces that schedule bit
    for bit.

    The op names are resolved to indices once, so each cell is a loop
    over plain floats: no DRAM state, scheduler objects or trace spans.
    Returns ``(makespan, memory_busy, cluster_busy)`` per cell.
    """
    n_cells = len(kernel_cycles)
    if len(row_cycle) != n_cells or len(gather_derate) != n_cells:
        raise ScheduleError(
            "replay needs one row cycle, gather derate and kernel-cycle "
            "row per cell"
        )
    index: Dict[str, int] = {}
    dep_index = index.__getitem__
    table = []
    n_kernels = 0
    for i, op in enumerate(costs):
        deps = tuple(map(dep_index, op.deps))
        if op.kind == "kernel":
            table.append((_KERNEL, deps, 0.0, 0))
            n_kernels += 1
        elif op.gather:
            table.append((_GATHER, deps, op.n_words, 0))
        else:
            table.append((_STREAM, deps, op.issue_cycles, op.activations))
        index[op.name] = i
    controllers = machine.config.memory_controllers
    words_per_cycle = machine.config.controller_words_per_cycle

    cells: List[Tuple[float, float, float]] = []
    for rc, derate, kernels in zip(row_cycle, gather_derate, kernel_cycles):
        if len(kernels) != n_kernels:
            raise ScheduleError(
                f"replay needs {n_kernels} kernel durations per cell, "
                f"got {len(kernels)}"
            )
        next_kernel = iter(kernels).__next__
        ends: List[float] = []
        append = ends.append
        memory_free = memory_busy = 0.0
        cluster_free = cluster_busy = 0.0
        for kind, deps, a, b in table:
            # Start at the later of the deps' ends and the resource's
            # free time, as DependencyScheduler and TimelineResource do.
            ready = 0.0
            for d in deps:
                end = ends[d]
                if end > ready:
                    ready = end
            if kind == _KERNEL:
                duration = next_kernel()
                if duration < 0:
                    raise ScheduleError(f"negative kernel duration {duration}")
                if cluster_free > ready:
                    ready = cluster_free
                cluster_free = ready + duration
                cluster_busy += duration
                append(cluster_free)
            else:
                if kind == _GATHER:
                    duration = a * derate / words_per_cycle / controllers
                else:
                    duration = (a + b * rc) / controllers
                if duration < 0:
                    raise ScheduleError(f"negative stream duration {duration}")
                if memory_free > ready:
                    ready = memory_free
                memory_free = ready + duration
                memory_busy += duration
                append(memory_free)
        cells.append(
            (max(ends) if ends else 0.0, memory_busy, cluster_busy)
        )
    return cells
