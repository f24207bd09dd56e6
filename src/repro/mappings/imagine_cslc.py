"""CSLC on Imagine (§3.2, §4.3).

"Imagine has the best performance of the three architectures on CSLC ...
it is a computation-intensive kernel for which the working sets fit in
the stream register files. ... Performance is reduced by 30% because
inter-cluster communication is used to perform parallel FFTs. ... the
small size of the FFT reduces the amount of software pipelining and
increases start-up overheads."

Model:

* ``kernel`` — each 128-point transform is parallelised across the eight
  clusters (16 points per cluster); per stage, the exact arithmetic
  census is resource-bound VLIW-scheduled on the 3 adders / 2 multipliers
  per cluster, and stages whose butterfly span reaches across the
  16-point cluster partitions pay inter-cluster word transfers at the
  calibrated exposure (the ~30% parallel-FFT penalty).  The weight
  application is scheduled the same way and fused with the first IFFT
  kernel.
* ``startup`` — one software-pipeline prologue per kernel invocation
  (one invocation per transform): with 128-point streams this dominates
  utilization, which is why achieved FFT ALU utilization lands far below
  media-kernel levels (§4.3's 25.5% / 30.6% discussion).
* ``memory (exposed)`` — the sub-band loads, weight loads, and result
  stores run as an explicit double-buffered host stream program
  (:mod:`repro.arch.imagine.stream_program`); hiding them under kernel
  execution is an outcome of the schedule, and only the pipeline ramp
  remains exposed.

The ``independent_ffts`` option reproduces §4.3's "alternative
implementation ... would execute independent FFTs in parallel to
eliminate inter-cluster communication overhead".
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.arch.base import KernelRun
from repro.arch.imagine.cluster import ClusterOpMix, cluster_schedule_cycles
from repro.arch.imagine.machine import ImagineMachine
from repro.arch.imagine.stream_program import (
    StreamProgram,
    execute_measured,
    replay,
)
from repro.calibration import Calibration
from repro.kernels.cslc import CSLCWorkload, cslc_oracle, cslc_reference
from repro.kernels.fft import FFTPlan
from repro.kernels.opcount import COMPLEX_ADD_FLOPS, COMPLEX_MUL_ADDS, COMPLEX_MUL_MULS
from repro.kernels.signal import make_jammed_channels
from repro.kernels.workloads import canonical_cslc
from repro.mappings import batch
from repro.mappings.base import functional_match, resolve_calibration
from repro.memory.streams import Sequential
from repro.sim.accounting import CycleBreakdown
from repro.units import WORD_BYTES


def _transform_mix(
    plan: FFTPlan, machine: ImagineMachine, parallel: bool
) -> ClusterOpMix:
    """Per-cluster op mix of one transform parallelised over the clusters.

    With ``parallel`` the 128 points are block-distributed 16 per cluster
    and stages whose butterfly span crosses the partition move their
    remote operands through the communication units; without it (the
    §4.3 alternative), independent transforms run on each cluster and no
    communication is needed (the arithmetic per cluster is unchanged in
    steady state because eight transforms then finish in the time one
    parallel transform's eight-fold work would).
    """
    points_per_cluster = plan.n // machine.config.clusters
    adds = 0.0
    muls = 0.0
    comms = 0.0
    for stage in plan.stages:
        adds += stage.core_adds * COMPLEX_ADD_FLOPS
        adds += stage.nontrivial_twiddles * COMPLEX_MUL_ADDS
        muls += stage.nontrivial_twiddles * COMPLEX_MUL_MULS
        if parallel and stage.span >= points_per_cluster:
            # Each butterfly pulls (radix - 1) remote complex operands.
            comms += stage.butterflies * (stage.radix - 1) * 2
    clusters = machine.config.clusters
    return ClusterOpMix(
        adds=adds / clusters, muls=muls / clusters, comms=comms / clusters
    )


def _weight_mix(workload: CSLCWorkload, machine: ImagineMachine) -> ClusterOpMix:
    """Per-cluster op mix of one sub-band's weight application."""
    per_bin_muls = workload.n_aux * 4
    per_bin_adds = workload.n_aux * 2 + workload.n_aux * 2  # cmul adds + csub
    bins = workload.subband_len
    clusters = machine.config.clusters
    return ClusterOpMix(
        adds=workload.n_mains * bins * per_bin_adds / clusters,
        muls=workload.n_mains * bins * per_bin_muls / clusters,
    )


def _arith(mix: ClusterOpMix) -> ClusterOpMix:
    """The arithmetic-only part of ``mix`` (what the VLIW bound sees)."""
    return ClusterOpMix(adds=mix.adds, muls=mix.muls, divs=mix.divs)


def run(
    workload: Optional[CSLCWorkload] = None,
    calibration: Optional[Calibration] = None,
    seed: int = 0,
    independent_ffts: bool = False,
) -> KernelRun:
    """Run the Imagine CSLC; returns a :class:`KernelRun`."""
    cal = resolve_calibration(calibration)
    return _evaluate(
        _structure(workload, cal, seed, independent_ffts), [cal]
    )[0]


def run_batch(
    calibrations: Sequence[Calibration],
    workload: Optional[CSLCWorkload] = None,
    seed: int = 0,
    independent_ffts: bool = False,
) -> List[KernelRun]:
    """One :class:`KernelRun` per calibration, sharing one structure pass
    (op mixes, stream program, functional transforms); each cell replays
    the schedule with its own timing constants."""
    cals = list(calibrations)
    batch.require_uniform_structure("imagine", cals)
    return _evaluate(
        _structure(workload, cals[0], seed, independent_ffts), cals
    )


def _structure(
    workload: Optional[CSLCWorkload],
    cal: Calibration,
    seed: int,
    independent_ffts: bool,
) -> Dict:
    """The calibration-independent pass: cluster op mixes, the
    software-pipelined host stream program, one measured execution, and
    the functional result."""
    workload = workload or canonical_cslc()
    machine = ImagineMachine(calibration=cal.imagine)
    plan = FFTPlan(workload.subband_len)  # radix-4 stages + one radix-2

    # Working set per sub-band must fit the SRF (double-buffered).
    subband_words = (
        (workload.n_channels + workload.n_mains) * 2 * workload.subband_len
    )
    weight_words = workload.n_mains * workload.n_aux * 2 * workload.subband_len
    machine.srf.allocate(
        "cslc-subband", 2 * (subband_words + weight_words) * WORD_BYTES
    )

    mix = _transform_mix(plan, machine, parallel=not independent_ffts)
    kernel_per_transform = machine.kernel_cycles(mix)
    weight_mix = _weight_mix(workload, machine)
    weight_per_subband = machine.kernel_cycles(weight_mix)

    invocations = workload.transforms
    machine.kernel_startups(invocations)  # emits the prologue span
    startup_per_kernel = machine.kernel_startups(1)

    # Host stream program, emitted in software-pipelined order: the next
    # sub-band's loads are issued before the current sub-band's kernels
    # (the stream scoreboard lets them start while kernels run), one
    # kernel per transform (the weight application fused into the first
    # IFFT kernel), stores after the kernels.  Double buffering in the
    # SRF lets sub-band s+1's loads run two kernels back (its buffer
    # pair frees when sub-band s-1 completes).
    transforms_per_subband = workload.n_channels + workload.n_mains
    subband_words = 2 * workload.subband_len
    program = StreamProgram()
    in_base = 0
    out_base = 10 * workload.n_subbands * subband_words  # outputs follow

    def emit_loads(s: int) -> None:
        nonlocal in_base
        buffer_free = (
            (f"k{s - 2}.{transforms_per_subband - 1}",) if s >= 2 else ()
        )
        for c in range(workload.n_channels):
            program.load(
                f"load{s}.{c}",
                Sequential(in_base, subband_words),
                deps=buffer_free,
            )
            in_base += subband_words

    kernel_weighted = []  # per kernel op, in program order
    emit_loads(0)
    for s in range(workload.n_subbands):
        if s + 1 < workload.n_subbands:
            emit_loads(s + 1)  # prefetch under this sub-band's kernels
        prev = tuple(
            f"load{s}.{c}" for c in range(workload.n_channels)
        )
        for t in range(transforms_per_subband):
            cycles = kernel_per_transform + startup_per_kernel
            name = f"k{s}.{t}"
            weighted = t == workload.n_channels  # first IFFT: the weights
            if weighted:
                cycles += weight_per_subband
            kernel_weighted.append(weighted)
            program.kernel(name, cycles, deps=prev)
            prev = (name,)
        for m in range(workload.n_mains):
            program.store(
                f"store{s}.{m}",
                Sequential(out_base, subband_words),
                deps=prev,
            )
            out_base += subband_words
    _, op_costs = execute_measured(program, machine)

    channels = make_jammed_channels(
        workload.samples, workload.n_mains, workload.n_aux, seed=seed
    )
    result = cslc_reference(channels, workload, plan=plan)
    oracle = cslc_oracle(channels, workload, result.weights)
    ok = functional_match(result.outputs, oracle)

    free_mix = _transform_mix(plan, machine, parallel=False)
    machine.kernel_cycles(free_mix)  # emits the comm-free what-if span

    return {
        "workload": workload,
        "machine": machine,
        "independent_ffts": independent_ffts,
        "op_costs": op_costs,
        "mix": mix,
        "weight_mix": weight_mix,
        "free_mix": free_mix,
        "invocations": invocations,
        "kernel_weighted": kernel_weighted,
        "fft_flops": plan.flops() * workload.transforms,
        "ops": workload.op_counts(plan),
        "output": result.outputs,
        "ok": ok,
        "cancellation_db": result.cancellation_db,
    }


def _evaluate(s: Dict, cals: Sequence[Calibration]) -> List[KernelRun]:
    """Assemble one cycle ledger per calibration: each cell's kernel and
    startup durations are rebuilt from its constants, one replay
    re-times the stream schedule for every cell, and the ledgers
    follow."""
    workload = s["workload"]
    machine = s["machine"]
    mix = s["mix"]
    weight_mix = s["weight_mix"]
    free_mix = s["free_mix"]
    invocations = s["invocations"]

    inefficiency = batch.cal_floats(
        cals, "imagine", "cluster_schedule_inefficiency"
    )
    comm_exposure = batch.cal_floats(cals, "imagine", "comm_exposure")
    kernel_startup = batch.cal_floats(cals, "imagine", "kernel_startup")

    alus = machine.config.total_alus
    alus_no_div = alus - machine.config.clusters  # exclude the dividers

    # Everything but the schedule, per cell; the kernel rows give the
    # replay each kernel op's duration in program order.
    per_cell = []
    kernel_rows = []
    for ineff, ce, ks in zip(inefficiency, comm_exposure, kernel_startup):
        kernel_per_transform = (
            cluster_schedule_cycles(
                _arith(mix), machine.config, inefficiency=ineff
            )
            + mix.comms * ce
        )
        weight_per_subband = (
            cluster_schedule_cycles(
                _arith(weight_mix), machine.config, inefficiency=ineff
            )
            + weight_mix.comms * ce
        )
        fft_kernel = workload.transforms * kernel_per_transform
        weight_kernel = workload.n_subbands * weight_per_subband
        comm_free = workload.transforms * (
            cluster_schedule_cycles(
                _arith(free_mix), machine.config, inefficiency=ineff
            )
            + free_mix.comms * ce
        )
        per_cell.append(
            (fft_kernel, fft_kernel + weight_kernel, invocations * ks,
             comm_free)
        )
        plain = kernel_per_transform + 1 * ks
        weighted = plain + weight_per_subband
        kernel_rows.append(
            [weighted if w else plain for w in s["kernel_weighted"]]
        )
    schedules = replay(
        s["op_costs"],
        machine,
        row_cycle=batch.cal_floats(cals, "imagine", "dram_row_cycle"),
        gather_derate=batch.cal_floats(cals, "imagine", "gather_derate"),
        kernel_cycles=kernel_rows,
    )

    runs: List[KernelRun] = []
    for (makespan, memory_wall, _), (
        fft_kernel, kernel, startup, comm_free
    ) in zip(schedules, per_cell):
        exposed_memory = max(0.0, makespan - (kernel + startup))
        breakdown = CycleBreakdown(
            {
                "kernel": kernel,
                "startup": startup,
                "memory (exposed)": exposed_memory,
            }
        )

        ops = s["ops"]
        total = breakdown.total
        fft_flops = s["fft_flops"]
        fft_time = fft_kernel + startup
        runs.append(
            KernelRun(
                kernel="cslc",
                machine="imagine",
                spec=machine.spec,
                breakdown=breakdown,
                ops=ops,
                output=s["output"],
                functional_ok=s["ok"],
                metrics={
                    "cancellation_db": s["cancellation_db"],
                    "independent_ffts": s["independent_ffts"],
                    # §4.3: "about 10 useful operations per cycle".
                    "ops_per_cycle": ops.flops / total if total else 0.0,
                    # §4.3: FFT ALU utilization 25.5% (30.6% excluding
                    # dividers).
                    "fft_alu_utilization": (
                        fft_flops / (alus * fft_time) if fft_time else 0.0
                    ),
                    "fft_alu_utilization_no_div": (
                        fft_flops / (alus_no_div * fft_time)
                        if fft_time
                        else 0.0
                    ),
                    # §4.3: ~30% reduction from inter-cluster communication.
                    "comm_penalty_fraction": (
                        (fft_kernel - comm_free) / fft_kernel
                        if fft_kernel
                        else 0.0
                    ),
                    "memory_hidden_cycles": memory_wall - exposed_memory,
                },
            )
        )
    return runs
