"""Tests for :mod:`repro.check.faults`.

Each injected corruption must be caught by its oracle (the whole point
of the injection matrix), the injectors must restore all patched state
on exit, and the rendered report must say what happened.
"""

import pytest

from repro.check import faults, oracles
from repro.check.report import FAIL
from repro.mappings import registry
from repro.perf import planner
from repro.perf.cache import RUN_CACHE


@pytest.fixture(autouse=True)
def fresh_cache():
    RUN_CACHE.clear()
    RUN_CACHE.enable()
    yield
    RUN_CACHE.clear()


class TestScenarios:
    def test_matrix_covers_all_redundant_paths(self):
        assert {oracle for _, oracle, _ in faults.SCENARIOS.values()} == {
            "cache",
            "diskcache",
            "executor",
            "dram",
        }

    def test_every_fault_detected(self):
        outcomes = faults.run_injection()
        assert len(outcomes) == len(faults.SCENARIOS)
        undetected = [o for o in outcomes if not o.detected]
        assert not undetected, "\n".join(
            f"{o.fault}: {o.evidence}" for o in undetected
        )

    def test_live_store_left_as_found(self):
        """The disk scenarios tear, flip and rewrite entries of a
        scratch store: the live one has no incident and verifies clean
        afterwards."""
        from repro.perf.diskcache import DISK_CACHE

        root = DISK_CACHE.root()
        outcomes = faults.run_injection()
        assert all(o.detected for o in outcomes)
        assert DISK_CACHE.root() == root
        assert DISK_CACHE.incidents() == []
        assert DISK_CACHE.verify() == []
        assert not (root / "quarantine").exists()

    def test_blind_oracle_reported_undetected(self):
        # A scenario whose "oracle" never looks at anything must come
        # back UNDETECTED — run_injection itself must not paper over it.
        blind = {
            "no-op-fault": (
                faults.perturbed_dram_timing,
                "dram",
                lambda: [],  # an oracle that checks nothing
            )
        }
        outcomes = faults.run_injection(blind)
        assert [o.detected for o in outcomes] == [False]


class TestInjectorHygiene:
    def test_cache_injector_restores_clean_state(self, small_workloads):
        with faults.corrupted_cache_entry():
            pass
        # After exit the cache holds no tampered entries: a fresh
        # cache-oracle pass must be green.
        results = oracles.cache_oracle(
            pairs=[("corner_turn", "viram")], workloads=small_workloads
        )
        assert all(r.status != FAIL for r in results)

    def test_cache_injector_corrupts_while_active(self):
        with faults.corrupted_cache_entry() as key:
            assert key  # cache enabled in this fixture
            cached = registry.run("corner_turn", "viram")
            cold = registry.run("corner_turn", "viram", cache=False)
            assert cached.cycles == pytest.approx(2.0 * cold.cycles)

    def test_timing_injector_corrupts_while_active(self):
        from repro.perf.cache import TIMING_PASSES

        with faults.tampered_timing_pass() as key:
            assert key in TIMING_PASSES.keys()
            served = registry.run("corner_turn", "viram")
            cold = registry.run("corner_turn", "viram", cache=False)
            assert served.breakdown.get("strided loads") == (
                2.0 * cold.breakdown.get("strided loads")
            )
        assert len(TIMING_PASSES) == 0
        assert len(RUN_CACHE) == 0

    def test_timing_injector_restores_clean_state(self):
        with faults.tampered_timing_pass():
            pass
        results = oracles.cache_oracle(pairs=[("corner_turn", "viram")])
        assert all(r.status != FAIL for r in results)

    def test_executor_injector_unpatches(self):
        original = planner._run_unit_pool
        with faults.misdelivered_worker_results():
            assert planner._run_unit_pool is not original
        assert planner._run_unit_pool is original

    def test_dram_injector_unpatches(self):
        from repro.memory.dram import DRAM

        original = DRAM.access_run
        with faults.perturbed_dram_timing():
            assert DRAM.access_run is not original
        assert DRAM.access_run is original
        assert all(r.status != FAIL for r in oracles.dram_oracle())


class TestRenderInjection:
    def test_render_names_every_scenario(self):
        outcomes = [
            faults.InjectionOutcome("f1", "cache", True, "ok"),
            faults.InjectionOutcome("f2", "dram", False, "stayed green"),
        ]
        text = faults.render_injection(outcomes)
        assert "DETECTED" in text and "UNDETECTED" in text
        assert "f1" in text and "f2" in text
        assert "1/2 injected corruptions detected" in text
