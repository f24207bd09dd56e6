"""Pipeline composition invariants (``invariant.pipeline.*``).

Three claims the scenario layer makes, each re-proved on every fast
check tier run and on every fuzzed scenario:

* **additivity** — a composed pipeline's total is exactly the
  left-to-right interleaved sum of its stage cycles and handoff
  cycles, with every handoff independently re-priced from the
  machine's handoff table (:mod:`repro.scenarios.handoff`).  No cost
  appears in the total that is not attributable to a stage or a
  handoff, and none is dropped.
* **footprint conservation** — each handoff moves exactly the
  producer's declared output words, and its price never beats the
  machine's best port (one pass at the fastest level's rate): data
  cannot shrink, teleport, or be double-counted between stages.
* **batch-vs-serial bit-identity** — a scenario population executed
  through the planner (where stages of different scenarios fuse into
  tensor batches) yields runs bit-identical to cold per-stage
  ``registry.run`` calls, extending the ``invariant.tensor.*``
  guarantee from isolated cells to composed pipelines.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional

from repro.check.oracles import diff_runs
from repro.check.report import FAIL, PASS, CheckResult

#: Grouped-sum reassociation tolerance: stage-sum + handoff-sum may
#: differ from the interleaved total only by float reassociation.
_GROUP_RTOL = 1e-12

#: Calibration factors for the batch-vs-serial differential — off-grid
#: values (never 1.0) so neither leg can be answered from a warm cache,
#: and three cells so the planner genuinely forms a tensor batch.
_BATCH_FACTORS = (0.93, 1.07, 1.21)


def validate_pipeline_run(prun) -> List[CheckResult]:
    """Additivity + footprint conservation for one executed scenario."""
    from repro.scenarios.handoff import floor_cycles, plan_handoff

    machine = prun.scenario.machine
    failures: List[str] = []

    # Additivity: recompute the interleaved total from scratch, with
    # every handoff re-priced independently of the stored one.
    recomputed = 0.0
    for result in prun.stages[:-1]:
        recomputed += result.run.cycles
        fresh = plan_handoff(machine, result.spec.output_words())
        stored = result.handoff
        if stored is None:
            failures.append(
                f"stage {result.spec.kernel} is missing its handoff"
            )
            continue
        if (fresh.level, fresh.words, fresh.cycles) != (
            stored.level,
            stored.words,
            stored.cycles,
        ):
            failures.append(
                f"stage {result.spec.kernel} handoff drifted: stored "
                f"{stored.words} words via {stored.level} "
                f"({stored.cycles} cycles), recomputed {fresh.words} via "
                f"{fresh.level} ({fresh.cycles})"
            )
        recomputed += stored.cycles
    recomputed += prun.stages[-1].run.cycles
    if prun.stages[-1].handoff is not None:
        failures.append("last stage must not carry a handoff")
    if recomputed != prun.total_cycles:
        failures.append(
            f"composed total {prun.total_cycles!r} != interleaved "
            f"stage+handoff sum {recomputed!r}"
        )
    grouped = prun.stage_cycles + prun.handoff_cycles
    if abs(grouped - prun.total_cycles) > _GROUP_RTOL * abs(grouped):
        failures.append(
            f"grouped sums {grouped!r} diverge from total "
            f"{prun.total_cycles!r} beyond reassociation"
        )
    results = [
        CheckResult(
            f"invariant.pipeline.additivity.{machine}",
            PASS if not failures else FAIL,
            "" if not failures else (
                f"scenario {prun.scenario_id}: " + "; ".join(failures[:4])
            ),
        )
    ]

    # Footprint conservation across every handoff.
    failures = []
    for result in prun.stages[:-1]:
        stored = result.handoff
        if stored is None:
            continue  # already reported by additivity
        declared = result.spec.output_words()
        if stored.words != declared:
            failures.append(
                f"{result.spec.kernel} hands off {stored.words} words "
                f"but declares {declared} output words"
            )
        if stored.words <= 0:
            failures.append(
                f"{result.spec.kernel} handoff moved {stored.words} words"
            )
        floor = floor_cycles(machine, stored.words)
        if stored.cycles < floor:
            failures.append(
                f"{result.spec.kernel} handoff priced {stored.cycles} "
                f"cycles, below the {floor}-cycle best-port floor"
            )
    results.append(
        CheckResult(
            f"invariant.pipeline.footprint.{machine}",
            PASS if not failures else FAIL,
            "" if not failures else (
                f"scenario {prun.scenario_id}: " + "; ".join(failures[:4])
            ),
        )
    )
    return results


def _batch_vs_serial(workloads: Optional[Mapping[str, Any]]) -> CheckResult:
    """Planner-batched scenario execution vs cold per-stage runs."""
    from repro.eval.sensitivity import perturbed_calibration
    from repro.mappings import registry
    from repro.scenarios.model import scenario_for_workloads
    from repro.scenarios.pipeline import run_scenarios

    name = "invariant.pipeline.batch-vs-serial"
    if workloads is None:
        # Like the tensor oracle: both legs cold-simulate every cell on
        # every fast-tier run, so default to the small workload set.
        from repro.kernels.workloads import (
            small_beam_steering,
            small_corner_turn,
            small_cslc,
        )

        workloads = {
            "corner_turn": small_corner_turn(),
            "cslc": small_cslc(),
            "beam_steering": small_beam_steering(),
        }
    scenarios = [
        scenario_for_workloads(
            "viram",
            workloads,
            calibration=perturbed_calibration(
                "viram", "dram_row_cycle", factor
            ),
        )
        for factor in _BATCH_FACTORS
    ]
    serial = [
        [
            registry.run(
                spec.kernel,
                scenario.machine,
                cache=False,
                **scenario.stage_kwargs(spec),
            )
            for spec in scenario.stages
        ]
        for scenario in scenarios
    ]
    batched = run_scenarios(scenarios)
    diffs: List[str] = []
    for factor, runs, prun in zip(_BATCH_FACTORS, serial, batched):
        for run, result in zip(runs, prun.stages):
            for diff in diff_runs(run, result.run, rtol=0.0):
                diffs.append(
                    f"factor {factor} {result.spec.kernel}: {diff}"
                )
    return CheckResult(
        name,
        PASS if not diffs else FAIL,
        "" if not diffs else (
            "batched pipeline vs serial runs disagree: "
            + "; ".join(diffs[:5])
        ),
    )


def pipeline_checks(
    workloads: Optional[Mapping[str, Any]] = None,
) -> List[CheckResult]:
    """The fast-tier pipeline invariants.

    One three-stage scenario per machine (canonical workloads unless
    overridden — by the time the fast tier runs these, every cell is
    already in the memoization cache, so composition is nearly free),
    plus the batch-vs-serial differential, which cold-simulates a small
    VIRAM scenario population both ways on every run.  The pipelines
    are a staged experiment (:func:`~repro.obs.ledger.recording`):
    their events, pipelines, planned sweeps and tensor batches are the
    check's own, not the process's.
    """
    from repro.mappings import registry
    from repro.obs.ledger import recording
    from repro.perf.planner import PLANNER_STATS
    from repro.perf.tensorsweep import TENSOR_STATS
    from repro.scenarios.model import scenario_for_workloads
    from repro.scenarios.pipeline import run_pipeline
    from repro.scenarios.stats import SCENARIO_STATS

    results: List[CheckResult] = []
    with recording(SCENARIO_STATS, PLANNER_STATS, TENSOR_STATS):
        for machine in registry.MACHINES:
            prun = run_pipeline(scenario_for_workloads(machine, workloads))
            results.extend(validate_pipeline_run(prun))
        results.append(_batch_vs_serial(workloads))
    return results
