"""Regression: fuzzed structural overrides hit the planner's per-cell
fallback, and fallback results stay bit-identical to batched execution.

The fuzzer occasionally gives one VIRAM stage a different TLB geometry
(``P_STRUCTURAL``).  TLB entries are a *structural* calibration field —
cells that disagree on it cannot share a tensor batch, so the planner
must demote them to singletons.  This pins three things:

* seed 0 really does generate such scenarios (indices 3 and 4), so the
  fallback path stays under fuzz — if the fuzzer's sampling changes,
  this fails loudly and the indices get re-pinned;
* ``plan_units`` demotes the structurally odd cell while still batching
  its structurally uniform siblings;
* the demoted path produces results bit-identical to both the batched
  population run and a plain serial ``registry.run``.
"""

import dataclasses

from repro.calibration import DEFAULT_CALIBRATION
from repro.check.oracles import diff_runs
from repro.eval.sensitivity import perturbed_calibration
from repro.mappings import registry
from repro.perf.cache import RUN_CACHE, cache_key
from repro.perf.tensorsweep import (
    TENSOR_STATS,
    BatchGroup,
    SingleCell,
    plan_units,
)
from repro.scenarios import generate_scenarios, run_scenarios, stage_requests

#: Pinned fuzz coordinates: seed-0 scenarios carrying a structural
#: per-stage calibration override.  Re-pin if the sampling contract
#: (P_STRUCTURAL, draw order) deliberately changes.
PINNED_SEED = 0
PINNED_INDICES = (3, 4)


def _structural_stage_index(scenario):
    for i, spec in enumerate(scenario.stages):
        if spec.calibration is not None:
            return i
    return None


def _pinned_scenario(index):
    return generate_scenarios(PINNED_SEED, index + 1)[index]


class TestPinnedCoordinates:
    def test_seed0_indices_carry_structural_overrides(self):
        for index in PINNED_INDICES:
            scenario = _pinned_scenario(index)
            assert scenario.machine == "viram", index
            stage_index = _structural_stage_index(scenario)
            assert stage_index is not None, (
                f"seed {PINNED_SEED} index {index} lost its structural "
                "override — the fuzzer's sampling changed; re-pin "
                "PINNED_INDICES"
            )
            spec = scenario.stages[stage_index]
            assert (
                spec.calibration.viram.tlb_entries
                != DEFAULT_CALIBRATION.viram.tlb_entries
            )


class TestPlannerDemotion:
    def _variants(self):
        """The pinned scenario plus structurally uniform siblings.

        The siblings strip the structural override from the odd stage
        and instead perturb a *non-structural* constant, so their cells
        share a batch signature while the pinned cell stands alone.
        """
        pinned = _pinned_scenario(PINNED_INDICES[0])
        stage_index = _structural_stage_index(pinned)
        assert stage_index is not None
        siblings = []
        for factor in (None, 1.1, 1.2):
            cal = (
                None
                if factor is None
                else perturbed_calibration("viram", "dram_row_cycle", factor)
            )
            stages = list(pinned.stages)
            stages[stage_index] = dataclasses.replace(
                stages[stage_index], calibration=cal
            )
            siblings.append(
                dataclasses.replace(pinned, stages=tuple(stages))
            )
        return pinned, siblings, stage_index

    def _pairs(self, scenarios):
        pairs = []
        for scenario in scenarios:
            for request in stage_requests(scenario):
                kernel, machine, kwargs = request
                pairs.append(
                    (request, cache_key(kernel, machine, kwargs))
                )
        return pairs

    def test_structural_odd_one_out_demotes_to_single_cell(self):
        pinned, siblings, stage_index = self._variants()
        odd_kernel = pinned.stages[stage_index].kernel
        pairs = self._pairs([pinned] + siblings)

        TENSOR_STATS.reset()
        units = plan_units(pairs)
        stats = TENSOR_STATS.snapshot()

        odd_units = [
            u
            for u in units
            if isinstance(u, SingleCell) and u.request[0] == odd_kernel
        ]
        assert len(odd_units) == 1
        assert (
            odd_units[0].request[2]["calibration"].viram.tlb_entries
            != DEFAULT_CALIBRATION.viram.tlb_entries
        )
        # The three structurally uniform siblings still batch together.
        sibling_groups = [
            u
            for u in units
            if isinstance(u, BatchGroup) and u.kernel == odd_kernel
        ]
        assert len(sibling_groups) == 1
        assert len(sibling_groups[0]) == 3
        assert stats["fallback_cells"] == 1
        assert stats["batched_cells"] >= 3

    def test_fallback_results_bit_identical_to_batched_and_serial(self):
        pinned, siblings, _ = self._variants()
        population = [pinned] + siblings

        RUN_CACHE.clear()
        TENSOR_STATS.reset()
        pruns = run_scenarios(population)
        stats = TENSOR_STATS.snapshot()
        # The population actually exercised both engine paths.
        assert stats["fallback_cells"] >= 1
        assert stats["batched_cells"] >= 3

        for scenario, prun in zip(population, pruns):
            for spec, result in zip(scenario.stages, prun.stages):
                serial = registry.run(
                    spec.kernel,
                    scenario.machine,
                    cache=False,
                    **scenario.stage_kwargs(spec),
                )
                assert diff_runs(result.run, serial, rtol=0.0) == [], (
                    scenario.scenario_id,
                    spec.kernel,
                )

    def test_population_rerun_is_bit_stable(self):
        # Second pass is served from the memo cache; serving must not
        # perturb a single bit relative to the executed pass.
        pinned, siblings, _ = self._variants()
        population = [pinned] + siblings
        RUN_CACHE.clear()
        first = run_scenarios(population)
        second = run_scenarios(population)
        for a, b in zip(first, second):
            assert a.total_cycles == b.total_cycles
            for ra, rb in zip(a.stages, b.stages):
                assert diff_runs(ra.run, rb.run, rtol=0.0) == []
