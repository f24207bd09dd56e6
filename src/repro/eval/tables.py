"""Text renderings of the paper's tables with paper-vs-model columns."""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.arch.base import KernelRun
from repro.mappings.registry import KERNELS, MACHINES, run
from repro.models.bounds import kernel_bound
from repro.models.throughput import (
    PAPER_TABLE1,
    PAPER_TABLE2,
    peak_throughput_table,
    processor_parameter_table,
)

#: Table 3 as published (cycles in 10^3).
PAPER_TABLE3: Dict[Tuple[str, str], float] = {
    ("corner_turn", "ppc"): 34_250,
    ("corner_turn", "altivec"): 29_288,
    ("corner_turn", "viram"): 554,
    ("corner_turn", "imagine"): 1_439,
    ("corner_turn", "raw"): 146,
    ("cslc", "ppc"): 29_013,
    ("cslc", "altivec"): 4_931,
    ("cslc", "viram"): 424,
    ("cslc", "imagine"): 196,
    ("cslc", "raw"): 357,
    ("beam_steering", "ppc"): 730,
    ("beam_steering", "altivec"): 364,
    ("beam_steering", "viram"): 35,
    ("beam_steering", "imagine"): 87,
    ("beam_steering", "raw"): 19,
}

KERNEL_TITLES = {
    "corner_turn": "Corner Turn",
    "cslc": "CSLC",
    "beam_steering": "Beam Steering",
}

MACHINE_TITLES = {
    "ppc": "PPC",
    "altivec": "Altivec",
    "viram": "VIRAM",
    "imagine": "Imagine",
    "raw": "Raw",
}


def run_table3(
    workloads: Optional[Mapping[str, object]] = None,
    runner: Callable[..., KernelRun] = run,
    jobs: Optional[int] = None,
) -> Dict[Tuple[str, str], KernelRun]:
    """Run all fifteen Table 3 cells; returns (kernel, machine) -> run.

    ``workloads`` optionally overrides the canonical workload per kernel
    (used by the tests to exercise the full pipeline at small sizes).
    ``jobs > 1`` evaluates the cells on a process pool (results are
    identical to serial execution; the cells are independent).  A custom
    ``runner`` forces serial execution — only the registry runner is
    safe to dispatch to workers.
    """
    cells = []
    for kernel in KERNELS:
        kwargs = {}
        if workloads and kernel in workloads:
            kwargs["workload"] = workloads[kernel]
        for machine in MACHINES:
            cells.append((kernel, machine, kwargs))
    if runner is run:
        from repro.perf.planner import execute_requests

        outcomes = execute_requests(cells, jobs=jobs)
    else:
        outcomes = [
            runner(kernel, machine, **kwargs)
            for kernel, machine, kwargs in cells
        ]
    return {
        (kernel, machine): outcome
        for (kernel, machine, _), outcome in zip(cells, outcomes)
    }


def render_table1() -> str:
    """Table 1 with model-derived and published values side by side."""
    lines = ["Table 1. Peak throughput (32-bit words per cycle)"]
    header = f"{'':24s}" + "".join(f"{m.upper():>12s}" for m in ("viram", "imagine", "raw"))
    lines.append(header)
    rows = {r.machine: r for r in peak_throughput_table()}
    for label, attr, key in (
        ("On-chip R/W", "onchip_words_per_cycle", "onchip"),
        ("Off-chip DRAM R/W", "offchip_words_per_cycle", "offchip"),
        ("Computation", "computation_words_per_cycle", "computation"),
    ):
        model = "".join(
            f"{getattr(rows[m], attr):>12.0f}" for m in ("viram", "imagine", "raw")
        )
        paper = "".join(
            f"{PAPER_TABLE1[m][key]:>12.0f}" for m in ("viram", "imagine", "raw")
        )
        lines.append(f"{label + ' (model)':24s}{model}")
        lines.append(f"{label + ' (paper)':24s}{paper}")
    return "\n".join(lines)


def render_table2() -> str:
    """Table 2 with model-configured and published values side by side."""
    lines = ["Table 2. Processor parameters"]
    machines = ("ppc", "viram", "imagine", "raw")
    rows = {r.machine: r for r in processor_parameter_table()}
    lines.append(f"{'':24s}" + "".join(f"{m.upper():>10s}" for m in machines))
    for label, attr, idx in (
        ("Clock (MHz)", "clock_mhz", 0),
        ("# of ALUs", "n_alus", 1),
        ("Peak GFLOPS", "peak_gflops", 2),
    ):
        model = "".join(f"{getattr(rows[m], attr):>10g}" for m in machines)
        paper = "".join(f"{PAPER_TABLE2[m][idx]:>10g}" for m in machines)
        lines.append(f"{label + ' (model)':24s}{model}")
        lines.append(f"{label + ' (paper)':24s}{paper}")
    return "\n".join(lines)


def render_table3(results: Mapping[Tuple[str, str], KernelRun]) -> str:
    """Table 3 with modelled kilocycles, published values, and ratios."""
    lines = ["Table 3. Experimental results (cycles in 10^3)"]
    header = f"{'':10s}" + "".join(
        f"{KERNEL_TITLES[k]:>28s}" for k in KERNELS
    )
    lines.append(header)
    lines.append(
        f"{'':10s}"
        + "".join(f"{'model':>12s}{'paper':>10s}{'x':>6s}" for _ in KERNELS)
    )
    for machine in MACHINES:
        cells = []
        for kernel in KERNELS:
            run_ = results[(kernel, machine)]
            paper = PAPER_TABLE3[(kernel, machine)]
            ratio = run_.kilocycles / paper if paper else float("nan")
            cells.append(f"{run_.kilocycles:>12,.0f}{paper:>10,.0f}{ratio:>6.2f}")
        lines.append(f"{MACHINE_TITLES[machine]:10s}" + "".join(cells))
    return "\n".join(lines)


def render_table4(
    results: Optional[Mapping[Tuple[str, str], KernelRun]] = None,
) -> str:
    """Table 4: §2.5-model expected corner-turn cycles versus achieved."""
    lines = [
        "Table 4. Corner turn: performance-model expectation vs achieved "
        "(kilocycles)"
    ]
    lines.append(
        f"{'machine':10s}{'bound':>12s}{'binding':>10s}{'achieved':>12s}"
        f"{'paper':>10s}{'ach/bound':>11s}"
    )
    for machine in MACHINES:
        bound = kernel_bound("corner_turn", machine)
        if results is not None:
            achieved = results[("corner_turn", machine)].kilocycles
        else:
            achieved = run("corner_turn", machine).kilocycles
        paper = PAPER_TABLE3[("corner_turn", machine)]
        lines.append(
            f"{MACHINE_TITLES[machine]:10s}"
            f"{bound.bound_cycles / 1e3:>12,.0f}{bound.binding:>10s}"
            f"{achieved:>12,.0f}{paper:>10,.0f}"
            f"{achieved / (bound.bound_cycles / 1e3):>11.2f}"
        )
    return "\n".join(lines)
