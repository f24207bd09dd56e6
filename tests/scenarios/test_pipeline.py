"""Pipeline execution: composition law, cache transparency, telemetry."""

import json

import pytest

from repro.mappings import registry
from repro.perf.cache import RUN_CACHE
from repro.scenarios import (
    SCENARIO_STATS,
    pipeline_record,
    render_pipeline,
    run_pipeline,
    run_scenarios,
    small_scenario,
    stage_requests,
)

MACHINES = ("ppc", "altivec", "viram", "imagine", "raw")


@pytest.fixture(autouse=True)
def _fresh_scenario_stats():
    SCENARIO_STATS.reset()
    yield
    SCENARIO_STATS.reset()


class TestComposition:
    @pytest.mark.parametrize("machine", MACHINES)
    def test_total_is_stages_plus_handoffs(self, machine):
        prun = run_pipeline(small_scenario(machine))
        interleaved = 0.0
        for result in prun.stages:
            interleaved += result.run.cycles
            if result.handoff is not None:
                interleaved += result.handoff.cycles
        assert prun.total_cycles == interleaved
        assert prun.total_cycles > prun.stage_cycles > 0

    def test_last_stage_has_no_handoff(self):
        prun = run_pipeline(small_scenario("viram"))
        assert prun.stages[-1].handoff is None
        assert all(r.handoff is not None for r in prun.stages[:-1])

    def test_handoff_words_match_producer_output(self):
        prun = run_pipeline(small_scenario("imagine"))
        for result in prun.stages[:-1]:
            assert result.handoff.words == result.spec.output_words()

    def test_stage_runs_are_ordinary_registry_runs(self):
        scenario = small_scenario("raw")
        prun = run_pipeline(scenario)
        for spec, result in zip(scenario.stages, prun.stages):
            direct = registry.run(
                spec.kernel,
                scenario.machine,
                cache=False,
                **scenario.stage_kwargs(spec),
            )
            assert result.run.cycles == direct.cycles
            assert result.run.breakdown.total == direct.breakdown.total


class TestCacheTransparency:
    def test_second_run_is_served_from_the_memo_cache(self):
        scenario = small_scenario("ppc")
        run_pipeline(scenario)
        hits_before = RUN_CACHE.hits
        run_pipeline(scenario)
        assert RUN_CACHE.hits >= hits_before + len(scenario.stages)

    def test_population_level_dedup(self):
        from repro.perf.planner import PLANNER_STATS

        scenario = small_scenario("altivec")
        before = PLANNER_STATS.get("duplicates")
        run_scenarios([scenario, scenario])
        after = PLANNER_STATS.get("duplicates")
        # The twin scenario's three stages all dedup against the first.
        assert after - before >= len(scenario.stages)

    def test_stage_requests_shape(self):
        scenario = small_scenario("viram")
        requests = stage_requests(scenario)
        assert [r[0] for r in requests] == [
            s.kernel for s in scenario.stages
        ]
        assert all(r[1] == "viram" for r in requests)


class TestRecordsAndRendering:
    def test_record_is_json_safe_and_complete(self):
        prun = run_pipeline(small_scenario("viram"))
        record = pipeline_record(prun)
        text = json.dumps(record, sort_keys=True)
        assert json.loads(text) == record
        assert record["scenario_id"] == prun.scenario_id
        assert record["total_cycles"] == prun.total_cycles
        assert len(record["stages"]) == 3
        assert record["stages"][0]["handoff"]["words"] == 128 * 128
        assert "handoff" not in record["stages"][-1]

    def test_render_is_deterministic(self):
        scenario = small_scenario("imagine")
        assert render_pipeline(run_pipeline(scenario)) == render_pipeline(
            run_pipeline(scenario)
        )

    def test_render_names_machine_and_scenario(self):
        prun = run_pipeline(small_scenario("raw"))
        text = render_pipeline(prun)
        assert "== radar pipeline on Raw ==" in text
        assert prun.scenario_id in text


class TestTelemetry:
    def test_pipeline_feeds_scenario_stats(self):
        run_pipeline(small_scenario("viram"))
        snap = SCENARIO_STATS.snapshot()
        assert snap["pipelines"] == 1
        assert snap["stages"] == 3
        assert snap["handoffs"] == 2
        assert snap["stage.corner_turn"] == 1
        assert snap["handoff.onchip-dram"] == 2
        assert snap["handoff_cycles"] > 0

    def test_registered_in_telemetry_namespace(self):
        from repro.trace.telemetry import TELEMETRY

        assert "scenario" in TELEMETRY.namespaces()
        run_pipeline(small_scenario("ppc"))
        snapshot = TELEMETRY.snapshot()
        assert snapshot["scenario.pipelines"] == 1
