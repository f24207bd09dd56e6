"""Tests for the sweep planner (:mod:`repro.perf.planner`).

The contract under test: a plan's slots are stable and dedup-aware,
execution serves each unique cell exactly once (from whichever tier can
answer it), chunked pool dispatch changes nothing but wall-clock, and
the sensitivity sweep — the planner's motivating client — issues
strictly fewer cold executions than its request count.
"""

import pytest

from repro.eval import sensitivity
from repro.mappings import registry
from repro.perf import planner, tensorsweep
from repro.perf.cache import RUN_CACHE, cache_key
from repro.perf.diskcache import DISK_CACHE
from repro.perf.planner import SweepPlan, execute_requests


@pytest.fixture(autouse=True)
def fresh_caches():
    RUN_CACHE.clear()
    RUN_CACHE.enable()
    yield
    RUN_CACHE.clear()


@pytest.fixture
def count_executions(monkeypatch):
    """Count actual mapping executions (cold runs) under the planner —
    per-cell runs and tensor-batched cells alike."""
    calls = []
    original = registry.simulate
    original_group = tensorsweep.run_group

    def counting(kernel, machine, kwargs, key=None):
        calls.append((kernel, machine, kwargs))
        return original(kernel, machine, kwargs, key)

    def counting_group(group):
        for kwargs in group.cell_kwargs:
            calls.append((group.kernel, group.machine, kwargs))
        return original_group(group)

    monkeypatch.setattr(registry, "simulate", counting)
    monkeypatch.setattr(tensorsweep, "run_group", counting_group)
    return calls


class TestSweepPlan:
    def test_slots_in_collection_order(self, small_ct, small_bs):
        plan = SweepPlan()
        a = plan.add("corner_turn", "viram", workload=small_ct)
        b = plan.add("beam_steering", "raw", workload=small_bs)
        assert (a, b) == (0, 1)
        assert len(plan) == 2

    def test_duplicate_cells_share_a_slot(self, small_ct):
        plan = SweepPlan()
        a = plan.add("corner_turn", "viram", workload=small_ct)
        b = plan.add("corner_turn", "viram", workload=small_ct)
        assert a == b
        assert len(plan) == 1

    def test_dedup_is_structural_not_cache_dependent(self, small_ct):
        RUN_CACHE.disable()
        DISK_CACHE.disable()
        try:
            plan = SweepPlan()
            a = plan.add("corner_turn", "viram", workload=small_ct)
            b = plan.add("corner_turn", "viram", workload=small_ct)
            assert a == b and len(plan) == 1
        finally:
            DISK_CACHE.enable()
            RUN_CACHE.enable()

    def test_execute_returns_one_result_per_slot(self, small_ct, small_bs):
        plan = SweepPlan()
        ct = plan.add("corner_turn", "viram", workload=small_ct)
        bs = plan.add("beam_steering", "raw", workload=small_bs)
        runs = plan.execute()
        assert runs[ct].kernel == "corner_turn"
        assert runs[bs].kernel == "beam_steering"

    def test_requests_copies_are_independent(self, small_ct):
        plan = SweepPlan()
        plan.add("corner_turn", "viram", workload=small_ct)
        reqs = plan.requests
        reqs[0][2]["workload"] = None
        assert plan.requests[0][2]["workload"] is small_ct


class TestExecuteRequests:
    def test_duplicates_served_as_independent_copies(self, small_ct):
        request = ("corner_turn", "viram", {"workload": small_ct})
        results = execute_requests([request, request])
        assert repr(results[0]) == repr(results[1])
        assert results[0] is not results[1]

    def test_unique_cells_executed_once(self, small_ct, count_executions):
        request = ("corner_turn", "viram", {"workload": small_ct})
        execute_requests([request, request, request])
        assert len(count_executions) == 1

    def test_memory_hits_skip_execution(self, small_ct, count_executions):
        request = ("corner_turn", "viram", {"workload": small_ct})
        execute_requests([request])
        execute_requests([request])
        assert len(count_executions) == 1

    def test_disk_hits_promoted_to_memory(self, small_ct, count_executions):
        request = ("corner_turn", "viram", {"workload": small_ct})
        execute_requests([request])
        key = cache_key("corner_turn", "viram", {"workload": small_ct})
        RUN_CACHE.evict(key)
        disk_hits = DISK_CACHE.counters.get("hits")
        execute_requests([request])
        assert len(count_executions) == 1
        assert DISK_CACHE.counters.get("hits") == disk_hits + 1
        assert RUN_CACHE.lookup(key) is not None

    def test_pool_and_serial_agree(self, small_ct, small_bs):
        requests = [
            ("corner_turn", "viram", {"workload": small_ct}),
            ("corner_turn", "raw", {"workload": small_ct}),
            ("beam_steering", "imagine", {"workload": small_bs}),
            ("beam_steering", "viram", {"workload": small_bs}),
        ]
        serial = execute_requests(requests)
        RUN_CACHE.clear()
        DISK_CACHE.clear()
        parallel = execute_requests(requests, jobs=2)
        assert [repr(r) for r in serial] == [repr(r) for r in parallel]

    def test_empty_plan(self):
        assert execute_requests([]) == []


class TestOneTierRule:
    """Every run path reads and writes the tiers by one rule
    (:mod:`repro.perf.cache`): an executed cell is read once, each tier
    is used exactly when it is enabled, and a traced sweep reads
    neither."""

    def test_executed_cell_is_read_once(self, small_ct):
        execute_requests([("corner_turn", "viram", {"workload": small_ct})])
        assert DISK_CACHE.counters.get("misses") == 1
        assert RUN_CACHE.stats()["misses"] == 1

    def test_disk_tier_alone_persists_every_path(self, small_ct):
        from repro.perf.index import PackedDiskCache

        single = ("corner_turn", "raw", {"workload": small_ct})
        batch = [
            (
                "corner_turn",
                "viram",
                {
                    "workload": small_ct,
                    "calibration": sensitivity.perturbed_calibration(
                        "viram", "dram_row_cycle", factor
                    ),
                },
            )
            for factor in (1.05, 1.1)
        ]
        batched = tensorsweep.TENSOR_STATS.get("batched_cells")
        RUN_CACHE.disable()
        try:
            registry.run("corner_turn", "viram", workload=small_ct)
            execute_requests([single])
            execute_requests(batch)
        finally:
            RUN_CACHE.enable()
        assert tensorsweep.TENSOR_STATS.get("batched_cells") == batched + 2
        assert len(RUN_CACHE) == 0
        requests = [("corner_turn", "viram", {"workload": small_ct})]
        requests += [single] + batch
        fresh = PackedDiskCache(DISK_CACHE.root(), respect_env=False)
        served = fresh.get_many([cache_key(*request) for request in requests])
        assert len(served) == 4

    def test_traced_sweep_executes_stored_cells(
        self, small_ct, count_executions
    ):
        from repro.trace.tracer import tracing

        request = ("corner_turn", "viram", {"workload": small_ct})
        (stored,) = execute_requests([request])
        with tracing() as tracer:
            (traced,) = execute_requests([request])
        assert len(count_executions) == 2
        assert len(tracer.runs) == 1
        assert traced.cycles == stored.cycles


class TestChunking:
    def test_chunks_cover_all_requests_in_order(self):
        requests = [("k", "m", {"i": i}) for i in range(10)]
        chunks = planner.chunked(requests, n_jobs=3)
        flattened = [r for chunk in chunks for r in chunk]
        assert flattened == requests
        assert all(chunk for chunk in chunks)

    def test_explicit_chunk_size(self):
        requests = [("k", "m", {"i": i}) for i in range(7)]
        chunks = planner.chunked(requests, n_jobs=2, chunk_size=3)
        # chunk_size caps the batch; the 7 cells spread 3/2/2, not
        # 3/3/1 — no runt tail chunk idling a worker.
        assert [len(c) for c in chunks] == [3, 2, 2]

    def test_default_targets_chunks_per_worker(self):
        requests = [("k", "m", {"i": i}) for i in range(64)]
        chunks = planner.chunked(requests, n_jobs=4)
        # ~4 chunks per worker: 16 chunks of 4.
        assert len(chunks) == 16

    def test_chunk_sizes_balanced(self):
        # The load-balance pin: across any sweep shape, the largest and
        # smallest chunk differ by at most one cell.  The old uniform
        # slicing failed this whenever len % chunk_size was small but
        # non-zero (e.g. 17 at cap 8 -> 8/8/1).
        for n in (1, 2, 7, 16, 17, 63, 100):
            for n_jobs in (1, 2, 3, 4, 8):
                sizes = [
                    len(c)
                    for c in planner.chunked(
                        [("k", "m", {"i": i}) for i in range(n)], n_jobs
                    )
                ]
                assert sum(sizes) == n
                assert max(sizes) - min(sizes) <= 1, (n, n_jobs, sizes)
        explicit = planner.chunked(
            [("k", "m", {"i": i}) for i in range(17)], 2, chunk_size=8
        )
        sizes = [len(c) for c in explicit]
        assert sizes == [6, 6, 5]
        assert max(sizes) - min(sizes) <= 1

    def test_chunked_empty(self):
        assert planner.chunked([], n_jobs=4) == []

    def test_chunked_pool_identical_to_serial(self, small_ct, small_bs):
        requests = [
            ("corner_turn", "viram", {"workload": small_ct}),
            ("corner_turn", "raw", {"workload": small_ct}),
            ("beam_steering", "raw", {"workload": small_bs}),
        ]
        serial = execute_requests(requests)
        RUN_CACHE.clear()
        DISK_CACHE.clear()
        chunked = execute_requests(requests, jobs=2, chunk_size=1)
        assert [repr(r) for r in serial] == [repr(r) for r in chunked]


class TestSensitivityHoisting:
    """The satellite fix: the sweep must not re-run shared baselines."""

    CONSTANTS = [
        ("viram", "dram_row_cycle"),
        ("viram", "tlb_miss_cycles"),
        ("viram", "exposed_load_latency"),
    ]

    def test_shared_baseline_collected_once(self, small_workloads):
        # Three constants, all perturbing the same corner_turn/viram
        # cell: 3 x (baseline, up, down) = 9 requests, but the baseline
        # is identical across constants -> 7 unique measurements.
        plan = SweepPlan()
        from repro.calibration import DEFAULT_CALIBRATION

        for machine, constant in self.CONSTANTS:
            up = sensitivity.perturbed_calibration(machine, constant, 1.25)
            down = sensitivity.perturbed_calibration(machine, constant, 0.75)
            for cal in (DEFAULT_CALIBRATION, up, down):
                plan.add(
                    "corner_turn",
                    "viram",
                    calibration=cal,
                    workload=small_workloads["corner_turn"],
                )
        assert len(plan) == 7

    def test_sweep_issues_fewer_cold_runs_than_requests(
        self, small_workloads, count_executions
    ):
        # With both tiers off, only the planner's structural dedup can
        # save executions: 9 requested measurements, 7 cold runs.
        RUN_CACHE.disable()
        DISK_CACHE.disable()
        try:
            rows = sensitivity.sweep(
                constants=self.CONSTANTS, workloads=small_workloads
            )
        finally:
            DISK_CACHE.enable()
            RUN_CACHE.enable()
        assert len(rows) == 3
        assert len(count_executions) == 7
        assert len(count_executions) < 3 * len(rows)

    def test_hoisting_changes_no_numbers(self, small_workloads):
        rows = sensitivity.sweep(
            constants=self.CONSTANTS, workloads=small_workloads
        )
        baselines = {row.baseline_cycles for row in rows}
        assert len(baselines) == 1  # same cell -> same baseline
        assert any(row.up_cycles != row.baseline_cycles for row in rows)
