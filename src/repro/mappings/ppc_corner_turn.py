"""Corner turn on the PowerPC G4, scalar and AltiVec (§4.1, §4.5).

§4.5: AltiVec "does not significantly improve performance for the corner
turn, which is limited by main memory bandwidth."

Scalar model — a row-major read / transposed-write loop over a
destination whose row pitch is padded by one cache line (the standard
fix for power-of-two set aliasing, the G4 analogue of §3.1's "padding
added to the matrix rows to avoid DRAM bank conflicts" on VIRAM; an
unpadded 1024-word pitch would alias every destination line into a
single L1 set and thrash both cache levels):

* every source line is touched once (streaming reads: one compulsory
  DRAM miss per 8-word line);
* the write stream revisits each destination line after touching ``cols``
  other lines; whether revisits hit L1, L2, or DRAM depends on that
  reuse distance versus the cache capacities (closed form, validated
  against the trace-driven cache simulator at small sizes in the tests).
  At the canonical 1024x1024 the reuse distance exceeds the 1024-line L1
  (with streaming interference) but fits the 8192-line L2 — so seven of
  eight writes stall on L2 and one of eight on DRAM.

AltiVec model — a 16x16 blocked transpose with vector loads, merge-based
in-register transposition, and vector stores: the same compulsory DRAM
traffic (which is why the gain is small) but no L2 revisit storm and a
quarter the instructions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.arch.base import KernelRun
from repro.arch.ppc.machine import PpcMachine
from repro.calibration import Calibration
from repro.kernels.corner_turn import (
    CornerTurnWorkload,
    blocked_corner_turn,
    corner_turn_reference,
    is_transpose,
)
from repro.kernels.workloads import canonical_corner_turn
from repro.mappings import batch
from repro.mappings.base import resolve_calibration
from repro.sim.accounting import CycleBreakdown

#: Scalar loop body per element: load, store, two address updates, and
#: amortised loop control.
SCALAR_INSTR_PER_ELEMENT = 5.0

ALTIVEC_BLOCK = 16

#: Effective L1 share available to the write stream under read-stream
#: interference (half the capacity).
L1_EFFECTIVE_SHARE = 0.5


def classify_write_revisits(cols: int, machine: PpcMachine) -> str:
    """Which level serves destination-line revisits: 'l1', 'l2', 'dram'."""
    reuse_lines = cols
    if reuse_lines <= machine.config.l1_lines * L1_EFFECTIVE_SHARE:
        return "l1"
    if reuse_lines <= machine.config.l2_lines * L1_EFFECTIVE_SHARE:
        return "l2"
    return "dram"


def scalar_miss_cycles(
    workload: CornerTurnWorkload, machine: PpcMachine
) -> dict:
    """Closed-form stall components of the scalar transpose."""
    line_words = machine.config.l1_line_words
    read_lines = workload.words / line_words
    write_lines = workload.words / line_words
    write_revisits = workload.words - write_lines

    level = classify_write_revisits(workload.cols, machine)
    read_stall = machine.memory_miss_stall(read_lines)
    write_first_stall = machine.memory_miss_stall(write_lines)
    if level == "l1":
        revisit_stall = 0.0
    elif level == "l2":
        revisit_stall = machine.l2_hit_stall(write_revisits)
    else:
        revisit_stall = machine.memory_miss_stall(write_revisits)
    return {
        "read_stall": read_stall,
        "write_first_stall": write_first_stall,
        "write_revisit_stall": revisit_stall,
        "revisit_level": level,
    }


def run_scalar(
    workload: Optional[CornerTurnWorkload] = None,
    calibration: Optional[Calibration] = None,
    seed: int = 0,
) -> KernelRun:
    """Scalar PPC corner turn; returns a :class:`KernelRun`."""
    cal = resolve_calibration(calibration)
    return _evaluate_scalar(_structure_scalar(workload, cal, seed), [cal])[0]


def run_scalar_batch(
    calibrations: Sequence[Calibration],
    workload: Optional[CornerTurnWorkload] = None,
    seed: int = 0,
) -> List[KernelRun]:
    """One scalar-PPC :class:`KernelRun` per calibration, sharing one
    structure pass (miss census, revisit classification, output)."""
    cals = list(calibrations)
    batch.require_uniform_structure("ppc", cals)
    return _evaluate_scalar(_structure_scalar(workload, cals[0], seed), cals)


def _structure_scalar(
    workload: Optional[CornerTurnWorkload],
    cal: Calibration,
    seed: int,
) -> Dict:
    """The calibration-independent pass: line counts, the revisit-level
    classification (cache geometry, not latency constants), issue time,
    and the transposed output."""
    workload = workload or canonical_corner_turn()
    machine = PpcMachine(calibration=cal.ppc)

    issue = machine.issue_cycles(workload.words * SCALAR_INSTR_PER_ELEMENT)

    line_words = machine.config.l1_line_words
    read_lines = workload.words / line_words
    write_lines = workload.words / line_words
    write_revisits = workload.words - write_lines
    level = classify_write_revisits(workload.cols, machine)

    matrix = workload.make_matrix(seed)
    output = corner_turn_reference(matrix)

    return {
        "workload": workload,
        "machine": machine,
        "issue": issue,
        "read_lines": read_lines,
        "write_lines": write_lines,
        "write_revisits": write_revisits,
        "level": level,
        "output": output,
    }


def _evaluate_scalar(
    s: Dict, cals: Sequence[Calibration]
) -> List[KernelRun]:
    """Assemble one cycle ledger per calibration: the miss counts are
    fixed by the structure, only the per-miss latencies vary."""
    workload = s["workload"]
    machine = s["machine"]
    issue = s["issue"]

    l2_hit = batch.cal_vector(cals, "ppc", "l2_hit_cycles")
    dram = batch.cal_vector(cals, "ppc", "dram_latency_cycles")
    miss_cost = l2_hit + dram

    read_stall = s["read_lines"] * miss_cost
    write_first_stall = s["write_lines"] * miss_cost
    if s["level"] == "l1":
        revisit_stall = np.zeros(len(cals), dtype=np.float64)
    elif s["level"] == "l2":
        revisit_stall = s["write_revisits"] * l2_hit
    else:
        revisit_stall = s["write_revisits"] * miss_cost

    runs: List[KernelRun] = []
    for i in range(len(cals)):
        breakdown = CycleBreakdown(
            {
                "issue": issue,
                "read misses": float(read_stall[i]),
                "write first-touch misses": float(write_first_stall[i]),
                "write revisit stalls": float(revisit_stall[i]),
            }
        )
        total = breakdown.total
        runs.append(
            KernelRun(
                kernel="corner_turn",
                machine="ppc",
                spec=machine.spec,
                breakdown=breakdown,
                ops=workload.op_counts(),
                output=s["output"],
                functional_ok=True,
                metrics={
                    "write_revisit_level": s["level"],
                    "memory_bound_fraction": (
                        (total - issue) / total if total else 0.0
                    ),
                },
            )
        )
    return runs


def run_altivec(
    workload: Optional[CornerTurnWorkload] = None,
    calibration: Optional[Calibration] = None,
    seed: int = 0,
) -> KernelRun:
    """AltiVec (blocked) PPC corner turn; returns a :class:`KernelRun`."""
    workload = workload or canonical_corner_turn()
    block = ALTIVEC_BLOCK
    if workload.rows % block or workload.cols % block:
        # Fall back to scalar traversal for odd shapes.
        return run_scalar(workload, calibration, seed)
    cal = resolve_calibration(calibration)
    return _evaluate_altivec(
        _structure_altivec(workload, cal, seed), [cal]
    )[0]


def run_altivec_batch(
    calibrations: Sequence[Calibration],
    workload: Optional[CornerTurnWorkload] = None,
    seed: int = 0,
) -> List[KernelRun]:
    """One AltiVec :class:`KernelRun` per calibration, sharing one
    structure pass (issue census, compulsory miss counts, output)."""
    workload = workload or canonical_corner_turn()
    cals = list(calibrations)
    batch.require_uniform_structure("ppc", cals)
    block = ALTIVEC_BLOCK
    if workload.rows % block or workload.cols % block:
        # Same odd-shape fallback as the per-cell entry point.
        return _evaluate_scalar(
            _structure_scalar(workload, cals[0], seed), cals
        )
    return _evaluate_altivec(
        _structure_altivec(workload, cals[0], seed), cals
    )


def _structure_altivec(
    workload: CornerTurnWorkload,
    cal: Calibration,
    seed: int,
) -> Dict:
    """The calibration-independent pass for the blocked AltiVec
    traversal: issue time, compulsory line counts, functional output."""
    machine = PpcMachine(calibration=cal.ppc)
    block = ALTIVEC_BLOCK

    n_blocks = (workload.rows // block) * (workload.cols // block)
    width = machine.config.altivec_width
    # Per block: vector loads, merge-network transpose, vector stores.
    vec_loads = block * (block // width)
    sub_transposes = (block // width) ** 2
    vec_perms = sub_transposes * 2 * width  # 8 merges per 4x4 transpose
    vec_stores = block * (block // width)
    vec_ops = vec_loads + vec_perms + vec_stores
    scalar_addr = block * 4.0

    issue = n_blocks * (
        machine.vector_issue_cycles(vec_ops)
        + machine.issue_cycles(scalar_addr)
    )

    # Blocked traversal: every line is touched within one block only —
    # compulsory DRAM misses on both streams, no revisit storm.
    line_words = machine.config.l1_line_words

    matrix = workload.make_matrix(seed)
    output = blocked_corner_turn(matrix, block)
    ok = is_transpose(output, matrix)

    return {
        "workload": workload,
        "machine": machine,
        "block": block,
        "issue": issue,
        "miss_lines": workload.words / line_words,
        "output": output,
        "ok": ok,
    }


def _evaluate_altivec(
    s: Dict, cals: Sequence[Calibration]
) -> List[KernelRun]:
    """Assemble one AltiVec cycle ledger per calibration."""
    workload = s["workload"]
    machine = s["machine"]
    issue = s["issue"]

    l2_hit = batch.cal_vector(cals, "ppc", "l2_hit_cycles")
    dram = batch.cal_vector(cals, "ppc", "dram_latency_cycles")
    miss_stall = s["miss_lines"] * (l2_hit + dram)

    runs: List[KernelRun] = []
    for i in range(len(cals)):
        breakdown = CycleBreakdown(
            {
                "issue": issue,
                "read misses": float(miss_stall[i]),
                "write first-touch misses": float(miss_stall[i]),
            }
        )
        total = breakdown.total
        runs.append(
            KernelRun(
                kernel="corner_turn",
                machine="altivec",
                spec=machine.altivec_spec,
                breakdown=breakdown,
                ops=workload.op_counts(),
                output=s["output"],
                functional_ok=s["ok"],
                metrics={
                    "block": s["block"],
                    "memory_bound_fraction": (
                        (total - issue) / total if total else 0.0
                    ),
                },
            )
        )
    return runs
