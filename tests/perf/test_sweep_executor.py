"""Tests for the planner's sweep execution (:mod:`repro.perf.planner`).

The contract under test: ``execute_requests`` returns results in
request order that are value-identical to serial execution, regardless
of ``jobs``, cache state, or duplicate requests.
"""

import pytest

from repro.errors import MappingError, ReproError
from repro.eval.scaling import corner_turn_scaling
from repro.eval.sensitivity import sweep
from repro.eval.tables import run_table3
from repro.perf.cache import RUN_CACHE
from repro.perf.diskcache import DISK_CACHE
from repro.perf.planner import execute_requests, resolve_jobs


@pytest.fixture(autouse=True)
def fresh_cache():
    RUN_CACHE.clear()
    RUN_CACHE.enable()
    yield
    RUN_CACHE.clear()


class TestResolveJobs:
    def test_serial_spellings(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(0) == 1
        assert resolve_jobs(1) == 1

    def test_parallel(self):
        assert resolve_jobs(4) == 4

    def test_negative_rejected(self):
        with pytest.raises(ReproError):
            resolve_jobs(-2)


class TestRunCells:
    def test_order_preserved(self, small_ct, small_bs):
        requests = [
            ("beam_steering", "raw", {"workload": small_bs}),
            ("corner_turn", "viram", {"workload": small_ct}),
            ("beam_steering", "viram", {"workload": small_bs}),
        ]
        results = execute_requests(requests)
        assert [(r.kernel, r.machine) for r in results] == [
            ("beam_steering", "raw"),
            ("corner_turn", "viram"),
            ("beam_steering", "viram"),
        ]

    def test_parallel_identical_to_serial(self, small_ct, small_bs):
        requests = [
            ("corner_turn", "viram", {"workload": small_ct}),
            ("corner_turn", "raw", {"workload": small_ct}),
            ("beam_steering", "imagine", {"workload": small_bs}),
        ]
        serial = execute_requests(requests)
        RUN_CACHE.clear()
        DISK_CACHE.clear()
        parallel = execute_requests(requests, jobs=2)
        assert [repr(r) for r in serial] == [repr(r) for r in parallel]

    def test_duplicates_evaluated_once(self, small_ct):
        request = ("corner_turn", "viram", {"workload": small_ct})
        results = execute_requests([request, request, request])
        assert RUN_CACHE.stats()["entries"] == 1
        assert len({repr(r) for r in results}) == 1
        # Deduped copies are independent objects, not aliases.
        assert results[0] is not results[1]

    def test_cache_seeded_for_later_calls(self, small_ct):
        request = ("corner_turn", "viram", {"workload": small_ct})
        execute_requests([request], jobs=1)
        hits_before = RUN_CACHE.hits
        execute_requests([request])
        assert RUN_CACHE.hits == hits_before + 1

    def test_mapping_errors_propagate(self):
        with pytest.raises(MappingError):
            execute_requests([("no_such_kernel", "viram", {})])

    def test_empty_sweep(self):
        assert execute_requests([]) == []


class TestPoolFallbackTelemetry:
    """A broken pool must degrade to serial — counted under
    ``resilience.degradations`` with the original exception's type and
    text in the recorded reason, and with results unchanged."""

    def _break_pool(self, monkeypatch, exc):
        import concurrent.futures

        class ExplodingPool:
            def __init__(self, *args, **kwargs):
                raise exc

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", ExplodingPool
        )

    def test_broken_pool_degrades_and_stays_correct(
        self, small_bs, monkeypatch
    ):
        from repro.resilience.stats import RESILIENCE

        requests = [
            ("beam_steering", "raw", {"workload": small_bs}),
            ("beam_steering", "viram", {"workload": small_bs}),
        ]
        serial = execute_requests(requests)
        RUN_CACHE.clear()
        DISK_CACHE.clear()  # force the planner back onto the pool path
        self._break_pool(
            monkeypatch, OSError("no process spawning in this sandbox")
        )
        before = RESILIENCE.get("degradations")
        results = execute_requests(requests, jobs=2)
        assert RESILIENCE.get("degradations") == before + 1
        # The original exception's type and text must be surfaced.
        reason = RESILIENCE.snapshot()["last_degradation_reason"]
        assert "OSError" in reason and "no process spawning" in reason
        assert [repr(r) for r in results] == [repr(r) for r in serial]

    def test_serial_path_does_not_degrade(self, small_bs, monkeypatch):
        from repro.resilience.stats import RESILIENCE

        self._break_pool(monkeypatch, OSError("unused"))
        before = RESILIENCE.get("degradations")
        execute_requests(
            [("beam_steering", "raw", {"workload": small_bs})], jobs=1
        )
        assert RESILIENCE.get("degradations") == before


class TestSweepEquivalence:
    """jobs= must not change any eval-layer result."""

    def test_table3_parallel_identical(self, small_workloads):
        serial = run_table3(small_workloads)
        RUN_CACHE.clear()
        DISK_CACHE.clear()
        parallel = run_table3(small_workloads, jobs=2)
        assert serial.keys() == parallel.keys()
        for key in serial:
            assert repr(serial[key]) == repr(parallel[key])

    def test_sensitivity_parallel_identical(self, small_workloads):
        constants = [
            ("viram", "dram_row_cycle"),
            ("raw", "cache_stall_fraction"),
        ]
        serial = sweep(constants=constants, workloads=small_workloads)
        RUN_CACHE.clear()
        DISK_CACHE.clear()
        parallel = sweep(
            constants=constants, workloads=small_workloads, jobs=2
        )
        assert serial == parallel

    def test_scaling_accepts_jobs(self):
        sizes = (64, 128)
        serial = corner_turn_scaling(sizes=sizes)
        parallel = corner_turn_scaling(sizes=sizes, jobs=2)
        assert parallel == serial
