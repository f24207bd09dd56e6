"""Scaling study: §4.6's capacity-crossover claim.

"VIRAM is especially suitable for vectorizable applications ... that are
small enough to fit in the on-chip memory. ... If the application size
is larger than the on-chip DRAM, the data needs to come from off-chip
memory and VIRAM would lose much of its advantage."

:func:`corner_turn_scaling` sweeps the corner-turn matrix size across
the 13 MB boundary and reports per-machine cycles-per-word, making the
crossover visible: on-chip, VIRAM moves a word every ~0.27 cycles of
bandwidth; off-chip it falls to the 2-word/cycle DMA interface and loses
roughly a factor of four, while Raw and Imagine scale linearly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ExperimentError
from repro.kernels.corner_turn import CornerTurnWorkload
from repro.mappings.registry import run

#: Machines whose corner turn scales cleanly with matrix size.
SCALING_MACHINES = ("viram", "imagine", "raw")

#: Default sweep: 512 (1 MB) to 2048 (16 MB) square matrices, crossing
#: VIRAM's 13 MB on-chip capacity between 1024 and 2048.  Pass larger
#: sizes (4096, ...) for a longer sweep; the models scale linearly.
DEFAULT_SIZES = (512, 1024, 2048)


@dataclass(frozen=True)
class ScalingPoint:
    """One (size, machine) measurement of the sweep."""

    size: int
    machine: str
    cycles: float
    cycles_per_word: float
    fits_onchip: bool


def corner_turn_scaling(
    sizes: Sequence[int] = DEFAULT_SIZES,
    machines: Sequence[str] = SCALING_MACHINES,
    jobs: Optional[int] = None,
) -> Tuple[ScalingPoint, ...]:
    """Run the corner turn at each square ``size`` on each machine.

    The cells go through the run cache with :func:`scaling_requests`'
    kwargs, so a repeat sweep answers from the cache and the canonical
    size answers from Table 3's entries.  ``jobs > 1`` evaluates the
    grid on a process pool — the points are independent, so the tuple
    is identical to serial execution.
    """
    if not sizes:
        raise ExperimentError("empty size sweep")
    from repro.perf.executor import run_cells

    grid = [(size, machine) for size in sizes for machine in machines]
    outcomes = run_cells(scaling_requests(sizes, machines), jobs=jobs)
    return tuple(
        ScalingPoint(
            size=size,
            machine=machine,
            cycles=result.cycles,
            cycles_per_word=result.cycles / (size * size),
            fits_onchip=bool(result.metrics.get("fits_onchip", True)),
        )
        for (size, machine), result in zip(grid, outcomes)
    )


def scaling_requests(
    sizes: Sequence[int] = DEFAULT_SIZES,
    machines: Sequence[str] = SCALING_MACHINES,
) -> List[Tuple[str, str, Dict[str, object]]]:
    """The sweep's ``run_cells`` requests, size-major.

    The canonical matrix size omits ``workload`` — the kwargs Table 3
    runs it with, as :meth:`Scenario.stage_kwargs` does — so those cells
    share Table 3's cache keys instead of simulating again.
    """
    requests = []
    for size in sizes:
        workload = CornerTurnWorkload(rows=size, cols=size)
        canonical = workload == CornerTurnWorkload()
        for machine in machines:
            kwargs = {} if canonical else {"workload": workload}
            requests.append(("corner_turn", machine, kwargs))
    return requests


def crossover_summary(points: Sequence[ScalingPoint]) -> Dict[str, float]:
    """Quantify §4.6: VIRAM's per-word cost on- vs off-chip, and its
    standing relative to Raw in each regime."""
    viram = {p.size: p for p in points if p.machine == "viram"}
    raw = {p.size: p for p in points if p.machine == "raw"}
    onchip = [p for p in viram.values() if p.fits_onchip]
    offchip = [p for p in viram.values() if not p.fits_onchip]
    if not onchip or not offchip:
        raise ExperimentError(
            "sweep does not cross VIRAM's on-chip capacity; widen the sizes"
        )
    onchip_cpw = max(p.cycles_per_word for p in onchip)
    offchip_cpw = min(p.cycles_per_word for p in offchip)
    biggest_on = max(p.size for p in onchip)
    smallest_off = min(p.size for p in offchip)
    return {
        "viram_onchip_cycles_per_word": onchip_cpw,
        "viram_offchip_cycles_per_word": offchip_cpw,
        "offchip_penalty": offchip_cpw / onchip_cpw,
        "viram_over_raw_onchip": (
            viram[biggest_on].cycles / raw[biggest_on].cycles
        ),
        "viram_over_raw_offchip": (
            viram[smallest_off].cycles / raw[smallest_off].cycles
        ),
    }


def render_scaling(points: Sequence[ScalingPoint]) -> str:
    """Text table of the sweep."""
    sizes = sorted({p.size for p in points})
    machines = sorted({p.machine for p in points})
    lines = [
        "Corner-turn scaling (cycles per word moved; * = exceeds VIRAM "
        "on-chip DRAM)"
    ]
    header = f"{'size':>8s}" + "".join(f"{m:>12s}" for m in machines)
    lines.append(header)
    by_key = {(p.size, p.machine): p for p in points}
    for size in sizes:
        cells = []
        for machine in machines:
            p = by_key[(size, machine)]
            mark = "*" if (machine == "viram" and not p.fits_onchip) else " "
            cells.append(f"{p.cycles_per_word:>11.3f}{mark}")
        lines.append(f"{size:>8d}" + "".join(cells))
    return "\n".join(lines)
