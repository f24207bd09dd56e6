"""Beam steering on Imagine (§3.3, §4.4).

"a manually optimized kernel was written to maximize cluster ALU
utilization.  The input data streams are loaded into the stream register
file and supplied to the clusters.  The results are written back to
memory through the register file."  §4.4: "The performance is limited by
memory bandwidth due to the relatively low number of computation[s] per
memory access.  The load and store operations take 89% of the simulation
time.  The remaining 11% of execution time is due to the software
pipeline prologue."

Model (per dwell x direction invocation over all elements), as an
explicit host stream program: two calibration-table gathers (at the
calibrated gather derate), one element-parameter input stream, the
kernel (six adder ops per output across eight clusters, preceded by its
software-pipeline prologue), and one output stream.  The short
per-invocation streams defeat cross-invocation software pipelining
(§4.3's "the small size ... reduces the amount of software pipelining"),
so each invocation's prologue-plus-kernel sits between its stream
batches on the schedule — which is exactly how §4.4's 89% loads/stores
plus 11% prologue accounting decomposes.

The ``tables_in_srf`` option reproduces §4.4's what-if: "If table values
were read from the stream register file rather than memory ...
performance would be increased by a factor of about two."
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.arch.base import KernelRun
from repro.arch.imagine.cluster import ClusterOpMix, cluster_schedule_cycles
from repro.arch.imagine.machine import ImagineMachine
from repro.arch.imagine.stream_program import (
    StreamProgram,
    cost_program,
    replay,
)
from repro.calibration import Calibration
from repro.kernels.beam_steering import (
    BeamSteeringWorkload,
    beam_steering_reference,
    make_tables,
)
from repro.kernels.workloads import canonical_beam_steering
from repro.mappings import batch
from repro.mappings.base import resolve_calibration
from repro.memory.streams import Gather, Sequential
from repro.perf.cache import timing_pass
from repro.sim.accounting import CycleBreakdown
from repro.units import WORD_BYTES


def run(
    workload: Optional[BeamSteeringWorkload] = None,
    calibration: Optional[Calibration] = None,
    seed: int = 0,
    tables_in_srf: bool = False,
) -> KernelRun:
    """Run the Imagine beam steering; returns a :class:`KernelRun`."""
    cal = resolve_calibration(calibration)
    return _evaluate(
        _structure(workload, cal, seed, tables_in_srf), [cal]
    )[0]


def run_batch(
    calibrations: Sequence[Calibration],
    workload: Optional[BeamSteeringWorkload] = None,
    seed: int = 0,
    tables_in_srf: bool = False,
) -> List[KernelRun]:
    """One :class:`KernelRun` per calibration, sharing one structure pass
    (stream program, gather address streams, reference output); each cell
    replays the schedule with its own timing constants."""
    cals = list(calibrations)
    batch.require_uniform_structure("imagine", cals)
    return _evaluate(
        _structure(workload, cals[0], seed, tables_in_srf), cals
    )


def _structure(
    workload: Optional[BeamSteeringWorkload],
    cal: Calibration,
    seed: int,
    tables_in_srf: bool,
) -> Dict:
    """The calibration-independent pass: the seed-independent timing
    pass (shared through the timing memo) and the reference output."""
    workload = workload or canonical_beam_steering()
    signature = batch.structural_signature("imagine", cal)
    timing = timing_pass(
        ("imagine_beam_steering", workload, signature, tables_in_srf),
        lambda: _timing(workload, cal, tables_in_srf),
    )
    tables = make_tables(workload, seed)
    return dict(timing, output=beam_steering_reference(workload, tables))


def _timing(
    workload: BeamSteeringWorkload, cal: Calibration, tables_in_srf: bool
) -> Dict:
    """SRF allocation, the per-invocation host stream program and its
    op costs (address streams through the DRAM model): a function of
    the workload's geometry and the option, not of the data."""
    machine = ImagineMachine(calibration=cal.imagine)

    elements = workload.elements
    invocations = workload.dwells * workload.directions
    machine.srf.allocate(
        "beam-streams", 2 * 5 * elements * WORD_BYTES
    )  # 4 in + 1 out, double-buffered
    if tables_in_srf:
        machine.srf.allocate("beam-tables", workload.table_bytes)

    coarse_base = 0
    fine_base = workload.coarse_table_words
    pos_base = fine_base + workload.fine_table_words
    out_base = pos_base + elements

    element_idx = np.arange(elements, dtype=np.int64)
    # Per-output compute: 5 adds + 1 shift on the adders, SIMD over the
    # clusters, plus the per-invocation software-pipeline prologue.
    mix = ClusterOpMix(adds=machine.spread_over_clusters(6.0 * elements))
    kernel_per_invocation = (
        machine.kernel_cycles(mix) + machine.kernel_startups(1)
    )

    program = StreamProgram()
    for dwell in range(workload.dwells):
        for d in range(workload.directions):
            inv = dwell * workload.directions + d
            load_names = []
            if not tables_in_srf:
                program.load(
                    f"coarse{inv}",
                    Gather(coarse_base, element_idx),
                    gather=True,
                )
                program.load(
                    f"fine{inv}",
                    Gather(fine_base, element_idx * workload.directions + d),
                    gather=True,
                )
                load_names += [f"coarse{inv}", f"fine{inv}"]
            program.load(f"pos{inv}", Sequential(pos_base, elements))
            load_names.append(f"pos{inv}")
            program.kernel(
                f"k{inv}", kernel_per_invocation, deps=load_names
            )
            program.store(
                f"out{inv}",
                Sequential(out_base + inv * elements, elements),
                deps=(f"k{inv}",),
            )
    op_costs = cost_program(program, machine)

    return {
        "workload": workload,
        "machine": machine,
        "tables_in_srf": tables_in_srf,
        "op_costs": op_costs,
        "mix_arith": ClusterOpMix(adds=mix.adds, muls=mix.muls, divs=mix.divs),
        "mix_comms": mix.comms,
        "invocations": invocations,
    }


def _evaluate(s: Dict, cals: Sequence[Calibration]) -> List[KernelRun]:
    """Assemble one cycle ledger per calibration: each cell's kernel and
    prologue duration is rebuilt from its constants, one replay re-times
    the stream schedule (gathers included) for every cell, and the
    ledgers follow."""
    workload = s["workload"]
    machine = s["machine"]
    invocations = s["invocations"]

    inefficiency = batch.cal_floats(
        cals, "imagine", "cluster_schedule_inefficiency"
    )
    comm_exposure = batch.cal_floats(cals, "imagine", "comm_exposure")
    kernel_startup = batch.cal_floats(cals, "imagine", "kernel_startup")
    kernel_per_invocation = [
        (
            cluster_schedule_cycles(
                s["mix_arith"], machine.config, inefficiency=ineff
            )
            + s["mix_comms"] * ce
        )
        + 1 * ks
        for ineff, ce, ks in zip(inefficiency, comm_exposure, kernel_startup)
    ]
    schedules = replay(
        s["op_costs"],
        machine,
        row_cycle=batch.cal_floats(cals, "imagine", "dram_row_cycle"),
        gather_derate=batch.cal_floats(cals, "imagine", "gather_derate"),
        kernel_cycles=[[k] * invocations for k in kernel_per_invocation],
    )

    runs: List[KernelRun] = []
    for (makespan, memory, _), per_invocation in zip(
        schedules, kernel_per_invocation
    ):
        exposed_kernel = max(0.0, makespan - memory)
        breakdown = CycleBreakdown(
            {"memory": memory, "kernel+prologue (exposed)": exposed_kernel}
        )
        total = breakdown.total
        runs.append(
            KernelRun(
                kernel="beam_steering",
                machine="imagine",
                spec=machine.spec,
                breakdown=breakdown,
                ops=workload.op_counts(),
                output=s["output"],
                # reference is the definition; oracle in tests
                functional_ok=True,
                metrics={
                    "outputs": workload.outputs,
                    "tables_in_srf": s["tables_in_srf"],
                    # §4.4: "load and store operations take 89% of the
                    # simulation time"; "the remaining 11% ... software
                    # pipeline prologue".
                    "loadstore_fraction": memory / total if total else 0.0,
                    "prologue_fraction": (
                        exposed_kernel / total if total else 0.0
                    ),
                    "kernel_hidden_cycles": max(
                        0.0,
                        invocations * per_invocation - exposed_kernel,
                    ),
                },
            )
        )
    return runs
