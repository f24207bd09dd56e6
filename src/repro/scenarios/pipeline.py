"""Pipeline execution: compose stage runs + handoffs into one record.

A scenario's stages become ordinary planner requests — ``(kernel,
machine, kwargs)`` cells with content-addressed keys identical to
standalone runs — so one :func:`run_scenarios` call over a fuzz
population flows through the dedup-aware planner exactly like a
sensitivity sweep: duplicate cells collapse, cache tiers answer warm
cells, and cells differing only in float calibration constants fuse
into tensor batches (:mod:`repro.perf.tensorsweep`).  The pipeline
layer then reassembles per-scenario records, pricing each inter-stage
handoff from :mod:`repro.scenarios.handoff`.

The composition law is deliberately simple and *checkable*::

    total_cycles == sum(stage cycles) + sum(handoff cycles)

in stage order, left to right — ``invariant.pipeline.additivity``
recomputes both sides independently and requires exact equality, and
the fuzz CLI applies it (plus the per-run §2.5 invariants) to every
generated scenario.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.arch.base import KernelRun
from repro.scenarios.handoff import Handoff, plan_handoff
from repro.scenarios.model import Scenario, StageSpec
from repro.scenarios.stats import SCENARIO_STATS


@dataclass
class StageResult:
    """One executed stage and its handoff to the next stage (``None``
    for the last stage — pipeline output delivery is out of scope)."""

    spec: StageSpec
    run: KernelRun
    handoff: Optional[Handoff] = None


@dataclass
class PipelineRun:
    """One executed scenario: stage results in dataflow order."""

    scenario: Scenario
    stages: List[StageResult]

    @property
    def scenario_id(self) -> str:
        return self.scenario.scenario_id

    @property
    def stage_cycles(self) -> float:
        return sum(result.run.cycles for result in self.stages)

    @property
    def handoff_cycles(self) -> float:
        return sum(
            result.handoff.cycles
            for result in self.stages
            if result.handoff is not None
        )

    @property
    def total_cycles(self) -> float:
        """The composed pipeline cost (the additivity invariant's LHS)."""
        total = 0.0
        for result in self.stages:
            total += result.run.cycles
            if result.handoff is not None:
                total += result.handoff.cycles
        return total

    @property
    def clock_hz(self) -> float:
        return self.stages[0].run.spec.clock_hz

    @property
    def seconds(self) -> float:
        return self.total_cycles / self.clock_hz


def stage_requests(scenario: Scenario) -> List[Any]:
    """The scenario's stages as planner run requests, in stage order."""
    return [
        (spec.kernel, scenario.machine, scenario.stage_kwargs(spec))
        for spec in scenario.stages
    ]


def assemble_pipeline(
    scenario: Scenario, runs: Sequence[KernelRun]
) -> PipelineRun:
    """Pair stage runs with priced handoffs into a :class:`PipelineRun`."""
    note = SCENARIO_STATS.note
    note("pipelines")
    stages: List[StageResult] = []
    for i, (spec, run) in enumerate(zip(scenario.stages, runs)):
        note("stages")
        note("stage_cycles", run.cycles)
        note(f"stage.{spec.kernel}")
        handoff = None
        if i + 1 < len(scenario.stages):
            handoff = plan_handoff(scenario.machine, spec.output_words())
            note("handoffs")
            note("handoff_words", handoff.words)
            note("handoff_cycles", handoff.cycles)
            note(f"handoff.{handoff.level}")
        stages.append(StageResult(spec=spec, run=run, handoff=handoff))
    return PipelineRun(scenario=scenario, stages=stages)


def run_pipeline(
    scenario: Scenario, jobs: Optional[int] = None
) -> PipelineRun:
    """Execute one scenario through the planner."""
    return run_scenarios([scenario], jobs=jobs)[0]


def run_scenarios(
    scenarios: Sequence[Scenario], jobs: Optional[int] = None
) -> List[PipelineRun]:
    """Execute a scenario population as *one* planner invocation.

    All stages of all scenarios are flattened into a single request
    list, so deduplication and tensor batching operate across the whole
    population (two scenarios sharing a shape but differing in a float
    calibration constant land in one batch group), then per-scenario
    records are reassembled in order.
    """
    from repro.obs.ledger import record
    from repro.perf.planner import execute_requests

    requests: List[Any] = []
    for scenario in scenarios:
        requests.extend(stage_requests(scenario))
    record(
        "pipeline.run",
        scenarios=len(scenarios),
        stages=len(requests),
    )
    results = execute_requests(requests, jobs=jobs)
    pruns: List[PipelineRun] = []
    cursor = 0
    for scenario in scenarios:
        n = len(scenario.stages)
        pruns.append(
            assemble_pipeline(scenario, results[cursor:cursor + n])
        )
        cursor += n
    record(
        "pipeline.done",
        scenarios=len(pruns),
        total_cycles=sum(p.total_cycles for p in pruns),
    )
    return pruns


def describe_workload(kernel: str, workload: Any) -> str:
    """Compact fixed-format shape tag for the rendered report."""
    if kernel == "corner_turn":
        return f"{workload.rows}x{workload.cols}"
    if kernel == "cslc":
        return (
            f"{workload.n_mains}+{workload.n_aux}ch "
            f"{workload.samples}s {workload.n_subbands}x"
            f"{workload.subband_len}"
        )
    return (
        f"{workload.elements}el x {workload.directions}dir "
        f"x {workload.dwells}dw"
    )


def render_pipeline(prun: PipelineRun) -> str:
    """Deterministic human-readable pipeline report (golden-pinned)."""
    run0 = prun.stages[0].run
    lines = [
        f"== radar pipeline on {run0.spec.display_name} ==",
        f"scenario {prun.scenario_id} (seed {prun.scenario.seed})",
    ]
    for i, result in enumerate(prun.stages, start=1):
        spec, run = result.spec, result.run
        shape = describe_workload(spec.kernel, spec.resolved_workload())
        tags = "".join(
            f" [{name}={str(value).lower()}]" for name, value in spec.options
        )
        lines.append(
            f"stage {i}: {spec.kernel:<14s} {shape:<24s} "
            f"{run.kilocycles:>12,.1f} kcycles{tags}"
        )
        if result.handoff is not None:
            h = result.handoff
            lines.append(
                f"  handoff: {h.words:>10,d} words via {h.level:<12s} "
                f"{h.cycles / 1e3:>12,.1f} kcycles"
            )
    lines.append(
        f"pipeline total: {prun.total_cycles / 1e3:,.1f} kcycles "
        f"({prun.seconds * 1e3:.2f} ms at {run0.spec.clock_mhz:.0f} MHz)"
    )
    movement = (
        100.0 * prun.handoff_cycles / prun.total_cycles
        if prun.total_cycles
        else 0.0
    )
    lines.append(
        f"  stages {prun.stage_cycles / 1e3:,.1f} k + "
        f"handoffs {prun.handoff_cycles / 1e3:,.1f} k "
        f"({movement:.1f}% movement)"
    )
    return "\n".join(lines)


def pipeline_record(prun: PipelineRun) -> Dict[str, Any]:
    """JSON-safe record of one pipeline run (the ``--json`` shape and
    the fuzz manifest's per-scenario entry)."""
    stages = []
    for result in prun.stages:
        spec, run = result.spec, result.run
        entry: Dict[str, Any] = {
            "kernel": spec.kernel,
            "workload": dataclasses.asdict(spec.resolved_workload()),
            "options": dict(spec.options),
            "calibrated": (
                spec.calibration is not None
                or prun.scenario.calibration is not None
            ),
            "cycles": run.cycles,
            "functional_ok": bool(run.functional_ok),
            "output_words": spec.output_words(),
        }
        if result.handoff is not None:
            h = result.handoff
            entry["handoff"] = {
                "level": h.level,
                "words": h.words,
                "passes": h.passes,
                "words_per_cycle": h.words_per_cycle,
                "cycles": h.cycles,
            }
        stages.append(entry)
    return {
        "scenario_id": prun.scenario_id,
        "machine": prun.scenario.machine,
        "seed": prun.scenario.seed,
        "stages": stages,
        "stage_cycles": prun.stage_cycles,
        "handoff_cycles": prun.handoff_cycles,
        "total_cycles": prun.total_cycles,
        "seconds": prun.seconds,
    }
