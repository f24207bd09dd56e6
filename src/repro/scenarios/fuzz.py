"""Seeded deterministic scenario fuzzer.

Generates radar-chain scenarios — shapes, channel counts, precisions,
mapping options, calibration perturbations — as a **pure function of
the seed**.  The seeding contract (docs/scenarios.md):

* scenario ``i`` of seed ``s`` is drawn from its own
  ``numpy.random.default_rng([s, i])`` stream (PCG64 seeded through
  ``SeedSequence``, stable across processes and platforms), so
* same ``(seed, count)`` → byte-identical scenario list and manifest in
  any two processes, and
* ``generate_scenarios(s, k)`` is a prefix of
  ``generate_scenarios(s, n)`` for ``k <= n`` — growing a fuzz run
  never reshuffles the scenarios CI already archived.

Every generated scenario satisfies the mappings' structural
preconditions by construction: corner-turn dimensions are multiples of
64 (VIRAM's 16-block, Raw's 64-block, Imagine's 8-row strips all
divide), CSLC sub-bands exactly tile the interval with power-of-two
FFT sizes, and beam-steering precisions respect ``0 < phase_bits <=
accumulator_bits``.  Calibration constants are only ever perturbed
*upward* (factor in [1, 1.3] above their floors), so fuzzed runs can
slow down but never dip below the §2.5 analytic lower bounds the
invariant checker enforces.

A small fraction of scenarios carry a per-stage *structural*
calibration override (VIRAM TLB geometry) — deliberately non-uniform
across the population so the tensor planner's singleton/per-cell
fallback path stays under fuzz (see
``tests/scenarios/test_fuzz_fallback_regression.py``).
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.calibration import DEFAULT_CALIBRATION, Calibration
from repro.errors import ConfigError
from repro.kernels.beam_steering import BeamSteeringWorkload
from repro.kernels.corner_turn import CornerTurnWorkload
from repro.kernels.cslc import CSLCWorkload
from repro.mappings.batch import CAL_GROUP
from repro.scenarios.model import STAGE_ORDER, Scenario, StageSpec
from repro.scenarios.pipeline import PipelineRun, pipeline_record

#: Corner-turn dimensions: multiples of 64 so every mapping's blocking
#: precondition (VIRAM 16, Raw 64, Imagine 8-row strips) is satisfied.
CT_DIMS = (64, 128, 192, 256)

#: CSLC sub-band lengths: powers of two (the FFT planner's radices).
SUBBAND_LENS = (16, 32, 64, 128)

#: Beam-steering accumulator precisions (phase_bits is drawn <= this).
ACCUMULATOR_BITS = (16, 20, 24, 28)

#: Mapping options per (kernel, machine) the fuzzer may toggle — the
#: same surface `repro list` documents.
OPTION_SPACE: Dict[tuple, tuple] = {
    ("cslc", "raw"): ("balanced", "streamed_fft"),
    ("cslc", "imagine"): ("independent_ffts",),
    ("corner_turn", "imagine"): ("via_network_port",),
    ("beam_steering", "imagine"): ("tables_in_srf",),
}

#: Float calibration constants the fuzzer may scale up, per group.
#: Cost-increasing only: every constant here prices overhead, so a
#: factor >= 1 moves simulated cycles away from the analytic bounds.
#: (raw.streamed_fft_speedup is deliberately absent — scaling a
#: *speedup* up would cut cycles toward the bound.)
FUZZ_CONSTANTS: Dict[str, tuple] = {
    "viram": (
        "dram_row_cycle",
        "tlb_miss_cycles",
        "exposed_load_latency",
        "vector_dead_time",
    ),
    "imagine": (
        "dram_row_cycle",
        "kernel_startup",
        "gather_derate",
        "cluster_schedule_inefficiency",
        "comm_exposure",
    ),
    "raw": (
        "block_loop_overhead_per_row",
        "cache_stall_fraction",
        "fft_addr_ops_per_butterfly",
        "fft_loop_ops_per_butterfly",
        "stream_ops_per_output",
    ),
    "ppc": (
        "l2_hit_cycles",
        "dram_latency_cycles",
        "trig_call_cycles",
        "fp_dependency_stall",
        "vector_dependency_stall_per_butterfly",
    ),
}

#: VIRAM TLB reach choices for the rare structural override (default is
#: 48 entries; both alternatives only redistribute TLB-miss overhead).
TLB_ENTRY_CHOICES = (32, 64)

#: Probability knobs (documented parts of the seeding contract — they
#: change what a seed generates, so changing them re-pins manifests).
P_CALIBRATION = 0.5
P_OPTION = 0.5
P_STRUCTURAL = 0.15


def _sample_corner_turn(rng: np.random.Generator) -> CornerTurnWorkload:
    return CornerTurnWorkload(
        rows=int(rng.choice(CT_DIMS)), cols=int(rng.choice(CT_DIMS))
    )


def _sample_cslc(rng: np.random.Generator) -> CSLCWorkload:
    n_mains = int(rng.integers(1, 4))
    n_aux = int(rng.integers(1, 4))
    subband_len = int(rng.choice(SUBBAND_LENS))
    n_subbands = int(rng.integers(1, 17))
    if n_subbands == 1:
        samples = subband_len
    else:
        hop = int(rng.integers(subband_len // 2, subband_len + 1))
        samples = hop * (n_subbands - 1) + subband_len
    return CSLCWorkload(
        n_mains=n_mains,
        n_aux=n_aux,
        samples=samples,
        n_subbands=n_subbands,
        subband_len=subband_len,
    )


def _sample_beam_steering(rng: np.random.Generator) -> BeamSteeringWorkload:
    accumulator_bits = int(rng.choice(ACCUMULATOR_BITS))
    phase_bits = int(rng.integers(8, min(16, accumulator_bits) + 1))
    return BeamSteeringWorkload(
        elements=int(rng.integers(16, 257)),
        directions=int(rng.integers(1, 7)),
        dwells=int(rng.integers(1, 5)),
        accumulator_bits=accumulator_bits,
        phase_bits=phase_bits,
    )


_SAMPLERS: Dict[str, Callable[[np.random.Generator], Any]] = {
    "corner_turn": _sample_corner_turn,
    "cslc": _sample_cslc,
    "beam_steering": _sample_beam_steering,
}


def _sample_calibration(
    rng: np.random.Generator, group: str
) -> Optional[Calibration]:
    """Maybe an upward-perturbed calibration for ``group`` (else None)."""
    from repro.eval.sensitivity import perturbed_calibration

    if rng.random() >= P_CALIBRATION:
        return None
    names = FUZZ_CONSTANTS[group]
    n_fields = 1 + int(rng.integers(0, 2))
    picked = sorted(
        int(i) for i in rng.choice(len(names), size=n_fields, replace=False)
    )
    cal = DEFAULT_CALIBRATION
    for index in picked:
        factor = 1.0 + float(rng.uniform(0.0, 0.3))
        cal = perturbed_calibration(group, names[index], factor, base=cal)
    return cal


def _sample_scenario(
    rng: np.random.Generator, machines: Sequence[str]
) -> Scenario:
    machine = machines[int(rng.integers(0, len(machines)))]
    group = CAL_GROUP[machine]
    # Functional seeds come from a small set on purpose: shape
    # collisions across the population then share content keys, so a
    # fuzz run exercises the planner's dedup and tensor-batch grouping,
    # not just its per-cell path.
    seed = int(rng.integers(0, 4))
    calibration = _sample_calibration(rng, group)

    stages: List[StageSpec] = []
    for kernel in STAGE_ORDER:
        workload = _SAMPLERS[kernel](rng)
        options: Dict[str, Any] = {}
        for name in OPTION_SPACE.get((kernel, machine), ()):
            if rng.random() < P_OPTION:
                options[name] = bool(rng.integers(0, 2))
        stages.append(
            StageSpec(
                kernel=kernel,
                workload=workload,
                options=tuple(sorted(options.items())),
            )
        )

    # Rare per-stage structural override: one VIRAM stage gets a
    # different TLB geometry, making the population's structural
    # signatures non-uniform (the planner must demote those cells to
    # per-cell fallback and still match batched execution bit for bit).
    if group == "viram" and rng.random() < P_STRUCTURAL:
        index = int(rng.integers(0, len(stages)))
        entries = int(
            TLB_ENTRY_CHOICES[int(rng.integers(0, len(TLB_ENTRY_CHOICES)))]
        )
        base = calibration or DEFAULT_CALIBRATION
        stage_cal = replace(
            base, viram=replace(base.viram, tlb_entries=entries)
        )
        stages[index] = replace(stages[index], calibration=stage_cal)

    return Scenario(
        machine=machine,
        stages=tuple(stages),
        seed=seed,
        calibration=calibration,
    )


def generate_scenarios(
    seed: int, count: int, machines: Optional[Sequence[str]] = None
) -> List[Scenario]:
    """``count`` scenarios for ``seed`` — deterministic, prefix-stable."""
    from repro.mappings import registry
    from repro.scenarios.stats import SCENARIO_STATS

    if seed < 0:
        raise ConfigError(f"fuzz seed must be >= 0, got {seed}")
    if count < 0:
        raise ConfigError(f"fuzz count must be >= 0, got {count}")
    machines = tuple(machines) if machines else tuple(registry.MACHINES)
    for machine in machines:
        if machine not in registry.MACHINES:
            raise ConfigError(
                f"unknown machine {machine!r}; "
                f"expected one of {registry.MACHINES}"
            )
    scenarios = [
        _sample_scenario(np.random.default_rng([seed, i]), machines)
        for i in range(count)
    ]
    SCENARIO_STATS.note("fuzz.generated", len(scenarios))
    return scenarios


def validate_pipelines(
    pruns: Sequence[PipelineRun],
) -> Dict[str, List[str]]:
    """Apply the pipeline and per-run invariants to executed scenarios.

    Returns ``{scenario_id: [failure descriptions]}`` for the scenarios
    that violated anything; empty dict means the population is clean.
    """
    from repro.check.invariants import validate_run
    from repro.check.pipeline import validate_pipeline_run
    from repro.check.report import FAIL
    from repro.scenarios.stats import SCENARIO_STATS

    violations: Dict[str, List[str]] = {}
    for prun in pruns:
        failures = [
            r.format()
            for r in validate_pipeline_run(prun)
            if r.status == FAIL
        ]
        for result in prun.stages:
            workload = result.spec.resolved_workload()
            failures.extend(
                r.format()
                for r in validate_run(result.run, workload)
                if r.status == FAIL
            )
        if failures:
            violations[prun.scenario_id] = failures
    SCENARIO_STATS.note("fuzz.validated", len(pruns))
    SCENARIO_STATS.note(
        "fuzz.violations", sum(len(v) for v in violations.values())
    )
    return violations


def fuzz_manifest(
    seed: int,
    count: int,
    machines: Sequence[str],
    pruns: Sequence[PipelineRun],
    violations: Dict[str, List[str]],
) -> Dict[str, Any]:
    """The deterministic fuzz-run manifest (no timestamps, no paths —
    two fresh processes with the same inputs emit identical bytes)."""
    return {
        "schema": 1,
        "seed": seed,
        "count": count,
        "machines": list(machines),
        "scenarios": [
            dict(
                pipeline_record(prun),
                violations=violations.get(prun.scenario_id, []),
            )
            for prun in pruns
        ],
        "violation_count": sum(len(v) for v in violations.values()),
    }


def manifest_json(manifest: Dict[str, Any]) -> str:
    """Canonical manifest bytes (sorted keys, fixed indent, newline)."""
    return json.dumps(manifest, indent=1, sort_keys=True) + "\n"


def _shrink_candidates(scenario: Scenario) -> Iterator[Scenario]:
    """Single-step reductions of ``scenario``, most drastic first."""
    if scenario.calibration is not None:
        yield replace(scenario, calibration=None)
    for i, spec in enumerate(scenario.stages):
        if spec.calibration is not None:
            yield _with_stage(scenario, i, replace(spec, calibration=None))
        for j in range(len(spec.options)):
            options = spec.options[:j] + spec.options[j + 1:]
            yield _with_stage(scenario, i, replace(spec, options=options))
    if scenario.seed:
        yield replace(scenario, seed=0)
    for i, spec in enumerate(scenario.stages):
        for workload in _shrink_workload(spec.kernel, spec.workload):
            yield _with_stage(scenario, i, replace(spec, workload=workload))


def _with_stage(scenario: Scenario, index: int, spec: StageSpec) -> Scenario:
    stages = list(scenario.stages)
    stages[index] = spec
    return replace(scenario, stages=tuple(stages))


def _lower(value: int, choices: Sequence[int]) -> Optional[int]:
    below = [c for c in choices if c < value]
    return max(below) if below else None


def _shrink_workload(kernel: str, workload: Any) -> Iterator[Any]:
    if workload is None:
        return
    if kernel == "corner_turn":
        for name in ("rows", "cols"):
            lower = _lower(getattr(workload, name), CT_DIMS)
            if lower is not None:
                yield replace(workload, **{name: lower})
    elif kernel == "cslc":
        def rebuild(**fields: int) -> CSLCWorkload:
            merged = dict(
                n_mains=workload.n_mains,
                n_aux=workload.n_aux,
                n_subbands=workload.n_subbands,
                subband_len=workload.subband_len,
            )
            merged.update(fields)
            # Re-tile disjointly: shrunk sub-bands always cover exactly
            # n_subbands * subband_len samples, the minimal valid span.
            if merged["n_subbands"] == 1:
                samples = merged["subband_len"]
            else:
                samples = merged["n_subbands"] * merged["subband_len"]
            return CSLCWorkload(samples=samples, **merged)

        for name in ("n_mains", "n_aux", "n_subbands"):
            value = getattr(workload, name)
            if value > 1:
                yield rebuild(**{name: value - 1})
        lower = _lower(workload.subband_len, SUBBAND_LENS)
        if lower is not None:
            yield rebuild(subband_len=lower)
        if (
            workload.n_subbands > 1
            and workload.samples
            != workload.n_subbands * workload.subband_len
        ):
            yield rebuild()  # drop the overlap, keep the counts
    else:
        if workload.elements > 16:
            yield replace(
                workload, elements=max(16, workload.elements // 2)
            )
        for name in ("directions", "dwells"):
            value = getattr(workload, name)
            if value > 1:
                yield replace(workload, **{name: value - 1})
        if workload.phase_bits > 8:
            yield replace(workload, phase_bits=8)
        lower = _lower(workload.accumulator_bits, ACCUMULATOR_BITS)
        if lower is not None and lower >= workload.phase_bits:
            yield replace(workload, accumulator_bits=lower)


def shrink(
    scenario: Scenario,
    predicate: Callable[[Scenario], bool],
    max_steps: int = 2000,
) -> Scenario:
    """Greedy minimisation of a failing scenario.

    ``predicate`` must hold for ``scenario`` (True = "still fails") and
    is assumed cheap; the result still satisfies it, and no single
    shrink step (drop a calibration or option, zero the seed, reduce
    one workload dimension) can reduce it further — for monotone
    predicates that is the global per-dimension minimum.
    """
    if not predicate(scenario):
        raise ConfigError(
            "shrink needs a failing scenario (predicate(scenario) is False)"
        )
    current = scenario
    steps = 0
    progressed = True
    while progressed and steps < max_steps:
        progressed = False
        for candidate in _shrink_candidates(current):
            steps += 1
            if predicate(candidate):
                current = candidate
                progressed = True
                break
            if steps >= max_steps:
                break
    return current
