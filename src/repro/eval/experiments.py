"""The experiment registry: one entry per table, figure, §4 breakdown,
and what-if ablation of the paper (see DESIGN.md §3 for the index).

Every experiment returns an :class:`ExperimentResult` carrying structured
``data`` (for the tests and benchmarks), a human-readable ``rendered``
block, and ``checks`` — named (model, paper) pairs for each quantitative
claim the paper makes, which the benchmark suite asserts against with
shape tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.arch.base import KernelRun
from repro.errors import ExperimentError
from repro.eval.figures import speedup_figure
from repro.eval.speedup import speedup_cycles, speedup_time
from repro.eval.tables import (
    KERNELS,
    MACHINES,
    PAPER_TABLE3,
    render_table1,
    render_table2,
    render_table3,
    render_table4,
    run_table3,
)
from repro.mappings.registry import run
from repro.models.throughput import (
    PAPER_TABLE1,
    PAPER_TABLE2,
    peak_throughput_table,
    processor_parameter_table,
)

Results = Mapping[Tuple[str, str], KernelRun]


@dataclass
class ExperimentResult:
    """Outcome of one registered experiment."""

    id: str
    title: str
    data: Dict = field(default_factory=dict)
    rendered: str = ""
    checks: Dict[str, Tuple[float, float]] = field(default_factory=dict)

    def check_ratios(self) -> Dict[str, float]:
        """model/paper ratio per check (nan-free; paper==0 is skipped)."""
        return {
            name: model / paper
            for name, (model, paper) in self.checks.items()
            if paper
        }


def _need_results(results: Optional[Results], workloads=None) -> Results:
    return results if results is not None else run_table3(workloads)


def exp_table1(results: Optional[Results] = None, workloads=None) -> ExperimentResult:
    rows = {r.machine: r for r in peak_throughput_table()}
    checks = {}
    for m, row in rows.items():
        checks[f"{m}_onchip"] = (row.onchip_words_per_cycle, PAPER_TABLE1[m]["onchip"])
        checks[f"{m}_offchip"] = (
            row.offchip_words_per_cycle,
            PAPER_TABLE1[m]["offchip"],
        )
        checks[f"{m}_computation"] = (
            row.computation_words_per_cycle,
            PAPER_TABLE1[m]["computation"],
        )
    return ExperimentResult(
        id="table1",
        title="Table 1: peak throughput (32-bit words/cycle)",
        data={m: vars(r) for m, r in rows.items()},
        rendered=render_table1(),
        checks=checks,
    )


def exp_table2(results: Optional[Results] = None, workloads=None) -> ExperimentResult:
    rows = {r.machine: r for r in processor_parameter_table()}
    checks = {}
    for m, row in rows.items():
        clock, alus, gflops = PAPER_TABLE2[m]
        checks[f"{m}_clock_mhz"] = (row.clock_mhz, clock)
        checks[f"{m}_alus"] = (float(row.n_alus), float(alus))
        checks[f"{m}_gflops"] = (row.peak_gflops, gflops)
    return ExperimentResult(
        id="table2",
        title="Table 2: processor parameters",
        data={m: vars(r) for m, r in rows.items()},
        rendered=render_table2(),
        checks=checks,
    )


def exp_table3(results: Optional[Results] = None, workloads=None) -> ExperimentResult:
    results = _need_results(results, workloads)
    checks = {
        f"{kernel}_{machine}": (
            results[(kernel, machine)].kilocycles,
            PAPER_TABLE3[(kernel, machine)],
        )
        for kernel in KERNELS
        for machine in MACHINES
    }
    return ExperimentResult(
        id="table3",
        title="Table 3: kernel cycle counts (10^3 cycles)",
        data={k: r.kilocycles for k, r in results.items()},
        rendered=render_table3(results),
        checks=checks,
    )


def exp_table4(results: Optional[Results] = None, workloads=None) -> ExperimentResult:
    from repro.models.bounds import kernel_bound

    results = _need_results(results, workloads)
    data = {}
    checks = {}
    for machine in MACHINES:
        bound = kernel_bound("corner_turn", machine)
        achieved = results[("corner_turn", machine)].cycles
        data[machine] = {
            "bound_cycles": bound.bound_cycles,
            "binding": bound.binding,
            "achieved_cycles": achieved,
        }
        # The bound must lower-bound the achieved cycles (ratio >= 1).
        checks[f"{machine}_achieved_over_bound"] = (
            achieved / bound.bound_cycles,
            1.0,
        )
    return ExperimentResult(
        id="table4",
        title="Table 4: corner-turn performance-model expectation",
        data=data,
        rendered=render_table4(results),
        checks=checks,
    )


def _paper_speedups_cycles() -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = {}
    for kernel in KERNELS:
        base = PAPER_TABLE3[(kernel, "altivec")]
        out[kernel] = {
            m: base / PAPER_TABLE3[(kernel, m)] for m in MACHINES
        }
    return out


def _paper_speedups_time(results: Results) -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = {}
    for kernel in KERNELS:
        base = PAPER_TABLE3[(kernel, "altivec")] / results[
            (kernel, "altivec")
        ].spec.clock_hz
        out[kernel] = {}
        for m in MACHINES:
            t = PAPER_TABLE3[(kernel, m)] / results[(kernel, m)].spec.clock_hz
            out[kernel][m] = base / t
    return out


def exp_figure8(results: Optional[Results] = None, workloads=None) -> ExperimentResult:
    results = _need_results(results, workloads)
    model = {
        kernel: speedup_cycles(
            {m: results[(kernel, m)] for m in MACHINES}
        )
        for kernel in KERNELS
    }
    paper = _paper_speedups_cycles()
    checks = {
        f"{kernel}_{m}": (model[kernel][m], paper[kernel][m])
        for kernel in KERNELS
        for m in MACHINES
    }
    return ExperimentResult(
        id="figure8",
        title="Figure 8: speedup vs PPC+AltiVec (cycles, log scale)",
        data=model,
        rendered=speedup_figure(
            "Figure 8. Speedup compared with PPC with AltiVec (cycles)",
            model,
            paper,
        ),
        checks=checks,
    )


def exp_figure9(results: Optional[Results] = None, workloads=None) -> ExperimentResult:
    results = _need_results(results, workloads)
    model = {
        kernel: speedup_time({m: results[(kernel, m)] for m in MACHINES})
        for kernel in KERNELS
    }
    paper = _paper_speedups_time(results)
    checks = {
        f"{kernel}_{m}": (model[kernel][m], paper[kernel][m])
        for kernel in KERNELS
        for m in MACHINES
    }
    return ExperimentResult(
        id="figure9",
        title="Figure 9: speedup vs PPC+AltiVec (execution time, log scale)",
        data=model,
        rendered=speedup_figure(
            "Figure 9. Speedup compared with PPC with AltiVec (execution "
            "time at 1 GHz / 200 MHz / 300 MHz / 300 MHz)",
            model,
            paper,
        ),
        checks=checks,
    )


def exp_sec42(results: Optional[Results] = None, workloads=None) -> ExperimentResult:
    """§4.2's corner-turn analysis statements."""
    results = _need_results(results, workloads)
    viram = results[("corner_turn", "viram")]
    imagine = results[("corner_turn", "imagine")]
    raw = results[("corner_turn", "raw")]
    checks = {
        "viram_precharge_tlb_fraction": (
            viram.metrics["precharge_tlb_fraction"],
            0.21,
        ),
        "viram_strided_penalty_fraction": (
            viram.metrics["strided_penalty_fraction"],
            0.24,
        ),
        "imagine_memory_fraction": (imagine.metrics["memory_fraction"], 0.87),
        "imagine_kernel_fraction": (
            imagine.metrics["unoverlapped_kernel_fraction"],
            0.13,
        ),
        "raw_instructions_per_cycle": (
            raw.metrics["instructions_per_cycle"],
            16.0,
        ),
    }
    rendered = "\n\n".join(
        f"--- {m} ---\n{results[('corner_turn', m)].breakdown.format()}"
        for m in ("viram", "imagine", "raw")
    )
    return ExperimentResult(
        id="sec4.2",
        title="§4.2: corner-turn cycle breakdowns",
        data={m: results[("corner_turn", m)].breakdown.as_dict() for m in MACHINES},
        rendered=rendered,
        checks=checks,
    )


def exp_sec43(results: Optional[Results] = None, workloads=None) -> ExperimentResult:
    """§4.3's CSLC analysis statements."""
    results = _need_results(results, workloads)
    viram = results[("cslc", "viram")]
    imagine = results[("cslc", "imagine")]
    raw = results[("cslc", "raw")]
    checks = {
        "viram_slowdown_vs_peak": (viram.metrics["slowdown_vs_peak"], 3.6),
        "imagine_ops_per_cycle": (imagine.metrics["ops_per_cycle"], 10.0),
        "imagine_fft_alu_utilization": (
            imagine.metrics["fft_alu_utilization"],
            0.255,
        ),
        "imagine_comm_penalty": (
            imagine.metrics["comm_penalty_fraction"],
            0.30,
        ),
        "raw_percent_of_peak": (
            raw.metrics["percent_of_peak_radix4_basis"],
            0.314,
        ),
        "raw_loadstore_fraction": (raw.metrics["loadstore_fraction"], 0.26),
        "raw_cache_stall_fraction_max": (
            raw.metrics["cache_stall_fraction"],
            0.10,
        ),
        "raw_imbalance_idle": (raw.metrics["imbalance_idle_fraction"], 0.08),
    }
    rendered = "\n\n".join(
        f"--- {m} ---\n{results[('cslc', m)].breakdown.format()}"
        for m in ("viram", "imagine", "raw")
    )
    return ExperimentResult(
        id="sec4.3",
        title="§4.3: CSLC cycle breakdowns",
        data={m: results[("cslc", m)].breakdown.as_dict() for m in MACHINES},
        rendered=rendered,
        checks=checks,
    )


def exp_sec44(results: Optional[Results] = None, workloads=None) -> ExperimentResult:
    """§4.4's beam-steering analysis statements."""
    results = _need_results(results, workloads)
    viram = results[("beam_steering", "viram")]
    imagine = results[("beam_steering", "imagine")]
    raw = results[("beam_steering", "raw")]
    checks = {
        "viram_compute_lower_bound": (
            viram.metrics["compute_lower_bound_fraction"],
            0.56,
        ),
        "imagine_loadstore_fraction": (
            imagine.metrics["loadstore_fraction"],
            0.89,
        ),
        "imagine_prologue_fraction": (
            imagine.metrics["prologue_fraction"],
            0.11,
        ),
        "raw_loads_stores": (float(raw.metrics["loads_stores_issued"]), 0.0),
    }
    rendered = "\n\n".join(
        f"--- {m} ---\n{results[('beam_steering', m)].breakdown.format()}"
        for m in ("viram", "imagine", "raw")
    )
    return ExperimentResult(
        id="sec4.4",
        title="§4.4: beam-steering cycle breakdowns",
        data={
            m: results[("beam_steering", m)].breakdown.as_dict()
            for m in MACHINES
        },
        rendered=rendered,
        checks=checks,
    )


def exp_sec45(results: Optional[Results] = None, workloads=None) -> ExperimentResult:
    """§4.5: the AltiVec gain over scalar PPC per kernel."""
    results = _need_results(results, workloads)
    gains = {
        kernel: results[(kernel, "ppc")].cycles
        / results[(kernel, "altivec")].cycles
        for kernel in KERNELS
    }
    checks = {
        "cslc_gain": (gains["cslc"], 6.0),
        "beam_steering_gain": (gains["beam_steering"], 2.0),
        "corner_turn_gain": (gains["corner_turn"], 1.17),
    }
    rendered = "\n".join(
        f"AltiVec gain on {k}: model {v:.2f}x" for k, v in gains.items()
    )
    return ExperimentResult(
        id="sec4.5",
        title="§4.5: AltiVec gain over scalar PPC",
        data=gains,
        rendered=rendered,
        checks=checks,
    )


def exp_sec46(results: Optional[Results] = None, workloads=None) -> ExperimentResult:
    """§4.6's architecture-comparison claims.

    "VIRAM outperformed the G4 Altivec by more than a factor of 10 on
    all three of our kernels and showed especially good performance on
    the kernels that emphasize memory bandwidth"; Imagine "has the best
    performance of the three architectures on CSLC" (§4.3); "The Raw
    beam steering implementation has the best performance of the three
    architectures" (§4.4) and Raw leads the corner turn (Table 3).  The
    geometric-mean speedups (the aggregation §2.1 quotes for EEMBC) are
    reported per machine.
    """
    from repro.sim.stats import geometric_mean

    results = _need_results(results, workloads)
    speedups = {
        kernel: speedup_cycles({m: results[(kernel, m)] for m in MACHINES})
        for kernel in KERNELS
    }
    geomeans = {
        machine: geometric_mean(
            [speedups[kernel][machine] for kernel in KERNELS]
        )
        for machine in ("viram", "imagine", "raw")
    }
    winners = {
        kernel: min(
            ("viram", "imagine", "raw"),
            key=lambda m: results[(kernel, m)].cycles,
        )
        for kernel in KERNELS
    }
    checks = {
        "viram_min_speedup_over_altivec": (
            min(speedups[kernel]["viram"] for kernel in KERNELS),
            10.0,
        ),
        "imagine_wins_cslc": (
            1.0 if winners["cslc"] == "imagine" else 0.0,
            1.0,
        ),
        "raw_wins_corner_turn": (
            1.0 if winners["corner_turn"] == "raw" else 0.0,
            1.0,
        ),
        "raw_wins_beam_steering": (
            1.0 if winners["beam_steering"] == "raw" else 0.0,
            1.0,
        ),
    }
    rendered = "\n".join(
        [
            "per-kernel winner among the research machines:",
            *(f"  {k}: {w}" for k, w in winners.items()),
            "geometric-mean speedup over AltiVec (cycles):",
            *(f"  {m}: {g:6.1f}x" for m, g in geomeans.items()),
        ]
    )
    return ExperimentResult(
        id="sec4.6",
        title="§4.6: architecture comparison "
        "(each architecture has its own strengths)",
        data={"speedups": speedups, "geomeans": geomeans, "winners": winners},
        rendered=rendered,
        checks=checks,
    )


def exp_ablation_imagine_network_port(
    results: Optional[Results] = None, workloads=None
) -> ExperimentResult:
    """§4.2 what-if: corner turn through Imagine's network port."""
    kwargs = {"workload": workloads.get("corner_turn")} if workloads else {}
    base = (
        results[("corner_turn", "imagine")]
        if results is not None
        else run("corner_turn", "imagine", **kwargs)
    )
    ported = run("corner_turn", "imagine", via_network_port=True, **kwargs)
    checks = {"port_over_base": (ported.cycles / base.cycles, 1.0)}
    return ExperimentResult(
        id="ablation_imagine_network_port",
        title="§4.2 what-if: corner turn via the network port "
        "(paper: 'the performance would be the same')",
        data={"base_cycles": base.cycles, "port_cycles": ported.cycles},
        rendered=(
            f"memory-controller route: {base.kilocycles:,.0f} kcycles\n"
            f"network-port route:      {ported.kilocycles:,.0f} kcycles"
        ),
        checks=checks,
    )


def exp_ablation_raw_streamed_fft(
    results: Optional[Results] = None, workloads=None
) -> ExperimentResult:
    """§4.3 what-if: Raw FFT streamed over the static network."""
    kwargs = {"workload": workloads.get("cslc")} if workloads else {}
    base = (
        results[("cslc", "raw")]
        if results is not None
        else run("cslc", "raw", **kwargs)
    )
    streamed = run("cslc", "raw", streamed_fft=True, **kwargs)
    improvement = base.cycles / streamed.cycles - 1.0
    checks = {"fft_improvement": (improvement, 0.70)}
    return ExperimentResult(
        id="ablation_raw_streamed_fft",
        title="§4.3 what-if: Raw CSLC with network-streamed FFT "
        "(paper: 'about 70% of FFT performance improvement')",
        data={"base_cycles": base.cycles, "streamed_cycles": streamed.cycles},
        rendered=(
            f"load/store FFT: {base.kilocycles:,.0f} kcycles\n"
            f"streamed FFT:   {streamed.kilocycles:,.0f} kcycles\n"
            f"improvement:    {100 * improvement:.0f}%"
        ),
        checks=checks,
    )


def exp_ablation_raw_load_balance(
    results: Optional[Results] = None, workloads=None
) -> ExperimentResult:
    """§4.3 what-if: real 73-sets-on-16-tiles imbalance vs extrapolation."""
    kwargs = {"workload": workloads.get("cslc")} if workloads else {}
    balanced = (
        results[("cslc", "raw")]
        if results is not None
        else run("cslc", "raw", **kwargs)
    )
    imbalanced = run("cslc", "raw", balanced=False, **kwargs)
    idle = 1.0 - balanced.cycles / imbalanced.cycles
    checks = {"idle_fraction": (idle, 0.08)}
    return ExperimentResult(
        id="ablation_raw_load_balance",
        title="§4.3 what-if: Raw CSLC load imbalance "
        "(paper: 'about 8% of CPU cycles are idle')",
        data={
            "balanced_cycles": balanced.cycles,
            "imbalanced_cycles": imbalanced.cycles,
        },
        rendered=(
            f"perfect balance (reported): {balanced.kilocycles:,.0f} kcycles\n"
            f"static 73-on-16 schedule:   {imbalanced.kilocycles:,.0f} "
            f"kcycles\nidle fraction:              {100 * idle:.1f}%"
        ),
        checks=checks,
    )


def exp_ablation_imagine_srf_tables(
    results: Optional[Results] = None, workloads=None
) -> ExperimentResult:
    """§4.4 what-if: beam-steering tables read from the SRF."""
    kwargs = {"workload": workloads.get("beam_steering")} if workloads else {}
    base = (
        results[("beam_steering", "imagine")]
        if results is not None
        else run("beam_steering", "imagine", **kwargs)
    )
    srf = run("beam_steering", "imagine", tables_in_srf=True, **kwargs)
    speedup = base.cycles / srf.cycles
    checks = {"srf_speedup": (speedup, 2.0)}
    return ExperimentResult(
        id="ablation_imagine_srf_tables",
        title="§4.4 what-if: Imagine beam steering with tables in the SRF "
        "(paper: 'increased by a factor of about two')",
        data={"base_cycles": base.cycles, "srf_cycles": srf.cycles},
        rendered=(
            f"tables in DRAM: {base.kilocycles:,.0f} kcycles\n"
            f"tables in SRF:  {srf.kilocycles:,.0f} kcycles\n"
            f"speedup:        {speedup:.2f}x"
        ),
        checks=checks,
    )


def exp_ablation_imagine_independent_ffts(
    results: Optional[Results] = None, workloads=None
) -> ExperimentResult:
    """§4.3 what-if: Imagine CSLC with independent per-cluster FFTs.

    "An alternative implementation, which was not completed for this
    study, would execute independent FFTs in parallel to eliminate
    inter-cluster communication overhead."  The paper quantifies the
    parallel version's penalty at ~30% of kernel time; the check anchors
    the kernel-time reduction of the independent variant against it.
    """
    kwargs = {"workload": workloads.get("cslc")} if workloads else {}
    base = (
        results[("cslc", "imagine")]
        if results is not None
        else run("cslc", "imagine", **kwargs)
    )
    independent = run("cslc", "imagine", independent_ffts=True, **kwargs)
    kernel_reduction = (
        (base.breakdown.get("kernel") - independent.breakdown.get("kernel"))
        / base.breakdown.get("kernel")
        if base.breakdown.get("kernel")
        else 0.0
    )
    checks = {
        # The penalty the independent version removes, as a fraction of
        # the parallel version's kernel time (paper: "reduced by 30%").
        "kernel_comm_share_removed": (kernel_reduction, 0.30),
        "total_speedup": (base.cycles / independent.cycles, 1.0),
    }
    return ExperimentResult(
        id="ablation_imagine_independent_ffts",
        title="§4.3 what-if: Imagine CSLC with independent FFTs "
        "(paper: would 'eliminate inter-cluster communication overhead')",
        data={
            "parallel_cycles": base.cycles,
            "independent_cycles": independent.cycles,
        },
        rendered=(
            f"cluster-parallel FFTs: {base.kilocycles:,.0f} kcycles\n"
            f"independent FFTs:      {independent.kilocycles:,.0f} kcycles\n"
            f"kernel time removed:   {100 * kernel_reduction:.0f}% "
            "(the inter-cluster communication share)"
        ),
        checks=checks,
    )


def exp_ablation_imagine_fft_size(
    results: Optional[Results] = None, workloads=None
) -> ExperimentResult:
    """§4.3 what-if: Imagine FFT ALU utilization versus transform size.

    "Note that the utilization for the 128-point FFT is a little lower
    than the more than 40% obtained in other processing intensive
    applications ...  The reason for the relatively low utilization is
    that the small size of the FFT reduces the amount of software
    pipelining and increases start-up overheads."  Sweeping the FFT size
    with the same kernel model shows utilization rising monotonically as
    the per-invocation prologue amortises, crossing 40% at the
    kilopoint sizes of the media kernels the paper compares against.
    """
    from repro.arch.imagine.machine import ImagineMachine
    from repro.kernels.fft import FFTPlan
    from repro.mappings.imagine_cslc import _transform_mix

    machine = ImagineMachine()
    utilization = {}
    for n in (128, 256, 512, 1024, 4096):
        plan = FFTPlan(n)
        mix = _transform_mix(plan, machine, parallel=True)
        kernel = machine.kernel_cycles(mix) + machine.kernel_startups(1)
        utilization[n] = plan.flops() / (
            machine.config.total_alus * kernel
        )
    checks = {
        "util_128": (utilization[128], 0.255),
        "util_large_exceeds_40pct": (
            max(utilization[1024], utilization[4096]),
            0.40,
        ),
    }
    rendered = "\n".join(
        f"  {n:>5}-point FFT: {100 * u:5.1f}% of the 48 ALUs"
        for n, u in utilization.items()
    )
    return ExperimentResult(
        id="ablation_imagine_fft_size",
        title="§4.3 what-if: Imagine FFT ALU utilization vs size "
        "(paper: 128-pt is below the >40% of larger kernels because of "
        "start-up overheads)",
        data=utilization,
        rendered=rendered,
        checks=checks,
    )


def exp_ablation_raw_placement(
    results: Optional[Results] = None, workloads=None
) -> ExperimentResult:
    """§3.1's negative space: why the Raw corner turn needed designing.

    "The algorithm ... was developed to ensure that all 16 Raw tiles are
    doing a load or store during as many cycles as possible and to avoid
    bottlenecks in the static networks and data ports."  With the
    designed placement (each tile streams through its adjacent
    peripheral port) the worst static-network link carries a tile's own
    traffic and the issue rate limits; with a naive placement that
    funnels every tile's blocks through one corner port, the shared
    links and the single port saturate and the network becomes the
    limiter — the bottleneck the algorithm was built to avoid.
    """
    from repro.arch.raw.machine import RawMachine
    from repro.arch.raw.network import StaticNetwork

    machine = RawMachine()
    config = machine.config
    words_per_tile = 2.0 * 1024 * 1024 / config.tiles  # canonical matrix

    # Designed placement: each tile streams through its own dedicated
    # edge link to an adjacent peripheral port — no mesh links shared,
    # so the worst link carries exactly one tile's traffic.
    designed_min = words_per_tile / config.static_link_words_per_cycle

    # Naive placement: every tile's blocks funnel through one corner
    # port; the corner tile's outgoing mesh links carry the rest of the
    # chip's traffic.
    naive = StaticNetwork(config)
    corner = (0, 0)
    for r in range(config.mesh_rows):
        for c in range(config.mesh_cols):
            naive.add_flow(corner, (r, c), words_per_tile)
    naive_min = naive.min_cycles()

    issue_bound = 2.0 * 1024 * 1024 / config.tiles  # 1 load/store per cycle
    checks = {
        "designed_network_feasible": (
            1.0 if designed_min <= issue_bound else 0.0,
            1.0,
        ),
        "naive_network_bottlenecks": (
            1.0 if naive_min > issue_bound else 0.0,
            1.0,
        ),
        "naive_over_designed_link_load": (
            naive.max_link_words / words_per_tile,
            1.0,  # anchor: strictly worse; magnitude reported
        ),
    }
    rendered = (
        f"issue-rate bound:            {issue_bound:,.0f} cycles\n"
        f"designed placement min time: {designed_min:,.0f} cycles "
        "(network exactly keeps pace — not the limiter)\n"
        f"naive single-port placement: {naive_min:,.0f} cycles "
        "(network-bound, 12x worse — the bottleneck §3.1's algorithm "
        "avoids)"
    )
    return ExperimentResult(
        id="ablation_raw_placement",
        title="§3.1 what-if: Raw corner-turn placement "
        "(paper: designed 'to avoid bottlenecks in the static networks "
        "and data ports')",
        data={
            "issue_bound": issue_bound,
            "designed_min_cycles": designed_min,
            "naive_min_cycles": naive_min,
        },
        rendered=rendered,
        checks=checks,
    )


def exp_ablation_viram_offchip(
    results: Optional[Results] = None, workloads=None
) -> ExperimentResult:
    """§4.6 what-if: the corner turn beyond VIRAM's on-chip DRAM.

    "If the application size is larger than the on-chip DRAM, the data
    needs to come from off-chip memory and VIRAM would lose much of its
    advantage."  Sweeps the matrix size across the 13 MB boundary; the
    paper's claim is qualitative, so the check anchors the off-chip
    penalty at ~2x per word (the 2-word/cycle DMA interface against the
    ~0.54-cycle/word on-chip figure).
    """
    from repro.eval.scaling import (
        corner_turn_scaling,
        crossover_summary,
        render_scaling,
    )

    points = corner_turn_scaling()
    summary = crossover_summary(points)
    checks = {
        "offchip_penalty": (summary["offchip_penalty"], 2.0),
        # VIRAM's standing vs Raw must worsen once off-chip.
        "advantage_lost": (
            summary["viram_over_raw_offchip"]
            / summary["viram_over_raw_onchip"],
            1.0,
        ),
    }
    return ExperimentResult(
        id="ablation_viram_offchip",
        title="§4.6 what-if: corner turn beyond VIRAM's on-chip DRAM "
        "(paper: 'VIRAM would lose much of its advantage')",
        data={"points": [vars(p) for p in points], **summary},
        rendered=render_scaling(points)
        + "\n"
        + "\n".join(f"{k} = {v:.2f}" for k, v in summary.items()),
        checks=checks,
    )


EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "table1": exp_table1,
    "table2": exp_table2,
    "table3": exp_table3,
    "table4": exp_table4,
    "figure8": exp_figure8,
    "figure9": exp_figure9,
    "sec4.2": exp_sec42,
    "sec4.3": exp_sec43,
    "sec4.4": exp_sec44,
    "sec4.5": exp_sec45,
    "sec4.6": exp_sec46,
    "ablation_imagine_network_port": exp_ablation_imagine_network_port,
    "ablation_raw_streamed_fft": exp_ablation_raw_streamed_fft,
    "ablation_raw_load_balance": exp_ablation_raw_load_balance,
    "ablation_imagine_srf_tables": exp_ablation_imagine_srf_tables,
    "ablation_imagine_independent_ffts": exp_ablation_imagine_independent_ffts,
    "ablation_imagine_fft_size": exp_ablation_imagine_fft_size,
    "ablation_raw_placement": exp_ablation_raw_placement,
    "ablation_viram_offchip": exp_ablation_viram_offchip,
}


def prewarm_requests(workloads=None):
    """Every run request the full experiment suite will issue.

    Covers the fifteen Table 3 cells, each ablation's variant runs, and
    the §4.6 scaling sweep (which always uses the canonical sizes).
    Evaluating these through the sweep executor seeds the run cache, so
    the experiments themselves — which call :func:`run` serially while
    rendering — become pure cache hits.
    """
    requests = []

    def kw(kernel: str, **extra):
        kwargs = dict(extra)
        if workloads and kernel in workloads:
            kwargs["workload"] = workloads[kernel]
        return kwargs

    for kernel in KERNELS:
        for machine in MACHINES:
            requests.append((kernel, machine, kw(kernel)))
    # Ablation variants (see the exp_ablation_* experiments above).
    requests.append(
        ("corner_turn", "imagine", kw("corner_turn", via_network_port=True))
    )
    requests.append(("cslc", "raw", kw("cslc", streamed_fft=True)))
    requests.append(("cslc", "raw", kw("cslc", balanced=False)))
    requests.append(
        ("beam_steering", "imagine", kw("beam_steering", tables_in_srf=True))
    )
    requests.append(("cslc", "imagine", kw("cslc", independent_ffts=True)))
    # The §4.6 scaling sweep ignores workload overrides by design.
    from repro.eval.scaling import scaling_requests

    requests.extend(scaling_requests())
    return requests


def prewarm(workloads=None, jobs=None) -> int:
    """Seed the run cache with the full suite's runs (``jobs > 1``:
    evaluate them on a process pool).  Returns the number of requests."""
    from repro.perf.executor import run_cells

    requests = prewarm_requests(workloads)
    run_cells(requests, jobs=jobs)
    return len(requests)


def run_experiment(
    experiment_id: str,
    results: Optional[Results] = None,
    workloads=None,
) -> ExperimentResult:
    """Run one registered experiment by id."""
    try:
        fn = EXPERIMENTS[experiment_id]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: "
            f"{sorted(EXPERIMENTS)}"
        ) from None
    return fn(results=results, workloads=workloads)
