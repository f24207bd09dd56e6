"""Tests for the timing memo (:data:`repro.perf.cache.TIMING_PASSES`).

The kernels are data-oblivious: a mapping's timing pass depends on the
workload geometry, the structural calibration fields and the options
that shape its address streams, never on the seed.  The memo shares
that pass between stored runs, so a run it serves must equal a fresh
``cache=False`` run field by field; and it must stay out of every run
that is not stored, or the differential oracles' cold legs would read
it too.
"""

import dataclasses

import pytest

from repro.calibration import DEFAULT_CALIBRATION
from repro.check.oracles import diff_runs
from repro.mappings import registry
from repro.perf.cache import (
    RUN_CACHE,
    TIMING_PASSES,
    TimingPasses,
    timing_pass,
    timing_scope,
)
from repro.trace.run import trace_run

#: The mappings that compute their timing pass through the memo.
SPLIT = (
    ("corner_turn", "viram"),
    ("corner_turn", "imagine"),
    ("cslc", "imagine"),
    ("cslc", "raw"),
    ("beam_steering", "ppc"),
    ("beam_steering", "altivec"),
    ("beam_steering", "imagine"),
)


@pytest.fixture(autouse=True)
def fresh_memo():
    RUN_CACHE.enable()
    RUN_CACHE.clear()
    yield
    RUN_CACHE.enable()
    RUN_CACHE.clear()


def _counts():
    stats = TIMING_PASSES.stats()
    return stats["hits"], stats["misses"]


class TestServedRunsEqualFreshRuns:
    @pytest.mark.parametrize("kernel,machine", SPLIT)
    def test_memo_served_run_equals_cache_false(
        self, kernel, machine, small_workloads
    ):
        workload = small_workloads[kernel]
        registry.run(kernel, machine, workload=workload, seed=1)
        assert _counts() == (0, 1)
        for n, seed in enumerate((2, 9), start=1):
            served = registry.run(kernel, machine, workload=workload, seed=seed)
            assert _counts() == (n, 1)
            fresh = registry.run(
                kernel, machine, workload=workload, seed=seed, cache=False
            )
            assert diff_runs(served, fresh, rtol=0.0) == []
        assert _counts() == (2, 1)

    def test_ppc_and_altivec_share_one_tally(self, small_bs):
        registry.run("beam_steering", "ppc", workload=small_bs, seed=1)
        registry.run("beam_steering", "altivec", workload=small_bs, seed=1)
        assert _counts() == (1, 1)

    def test_options_read_only_by_evaluate_share_the_pass(self, small_ct):
        registry.run("corner_turn", "imagine", workload=small_ct)
        registry.run(
            "corner_turn", "imagine", workload=small_ct, via_network_port=True
        )
        assert _counts() == (1, 1)

    def test_options_that_shape_the_streams_miss(self, small_bs):
        registry.run("beam_steering", "imagine", workload=small_bs)
        registry.run(
            "beam_steering", "imagine", workload=small_bs, tables_in_srf=True
        )
        assert _counts() == (0, 2)

    def test_second_structural_signature_misses(self, small_ct):
        tlb32 = dataclasses.replace(
            DEFAULT_CALIBRATION,
            viram=dataclasses.replace(DEFAULT_CALIBRATION.viram, tlb_entries=32),
        )
        registry.run("corner_turn", "viram", workload=small_ct, seed=1)
        served = registry.run(
            "corner_turn", "viram", workload=small_ct, calibration=tlb32, seed=2
        )
        assert _counts() == (0, 2)
        fresh = registry.run(
            "corner_turn", "viram", workload=small_ct, calibration=tlb32,
            seed=2, cache=False,
        )
        assert diff_runs(served, fresh, rtol=0.0) == []

    def test_float_constants_come_from_each_calibration(self, small_ct):
        # The memo's pass was made under the default calibration; a run
        # with another row cycle must still be costed with its own.
        slow = dataclasses.replace(
            DEFAULT_CALIBRATION,
            viram=dataclasses.replace(
                DEFAULT_CALIBRATION.viram,
                dram_row_cycle=2 * DEFAULT_CALIBRATION.viram.dram_row_cycle,
            ),
        )
        registry.run("corner_turn", "viram", workload=small_ct)
        served = registry.run(
            "corner_turn", "viram", workload=small_ct, calibration=slow
        )
        assert _counts() == (1, 1)
        fresh = registry.run(
            "corner_turn", "viram", workload=small_ct, calibration=slow,
            cache=False,
        )
        assert diff_runs(served, fresh, rtol=0.0) == []

    def test_batch_group_shares_the_pass_when_every_cell_is_stored(
        self, small_ct
    ):
        from repro.perf.planner import execute_requests

        cals = [
            dataclasses.replace(
                DEFAULT_CALIBRATION,
                viram=dataclasses.replace(
                    DEFAULT_CALIBRATION.viram, exposed_load_latency=latency
                ),
            )
            for latency in (10.0, 11.0)
        ]
        requests = [
            ("corner_turn", "viram", {"workload": small_ct, "calibration": cal})
            for cal in cals
        ]
        registry.run("corner_turn", "viram", workload=small_ct, seed=5)
        results = execute_requests(requests)
        assert _counts() == (1, 1)
        for (kernel, machine, kwargs), served in zip(requests, results):
            fresh = registry.run(kernel, machine, cache=False, **kwargs)
            assert diff_runs(served, fresh, rtol=0.0) == []


class TestRunsNotStoredBypassTheMemo:
    def test_cache_false(self, small_ct):
        registry.run("corner_turn", "viram", workload=small_ct, cache=False)
        registry.run("corner_turn", "viram", workload=small_ct, cache=False)
        assert _counts() == (0, 0)
        assert len(TIMING_PASSES) == 0

    def test_tier_one_disabled(self, small_ct):
        RUN_CACHE.disable()
        registry.run("corner_turn", "viram", workload=small_ct, seed=1)
        registry.run("corner_turn", "viram", workload=small_ct, seed=2)
        assert _counts() == (0, 0)
        assert len(TIMING_PASSES) == 0

    def test_traced_run_computes_and_emits_its_pass(self, small_ct):
        _, cold = trace_run("corner_turn", "viram", workload=small_ct, seed=2)
        registry.run("corner_turn", "viram", workload=small_ct, seed=1)
        before = _counts()
        _, traced = trace_run("corner_turn", "viram", workload=small_ct, seed=2)
        assert _counts() == before
        busy = traced.busy_by_class()
        assert busy["dram"] > 0
        assert busy == cold.busy_by_class()
        assert len(traced.events) == len(cold.events)

    def test_outside_a_scope_the_pass_is_computed(self):
        calls = []

        def compute():
            calls.append(1)
            return {"cost": 1.0}

        timing_pass(("probe",), compute)
        with timing_scope(False):
            timing_pass(("probe",), compute)
        assert len(calls) == 2
        assert _counts() == (0, 0)


class TestEntries:
    def test_stored_entry_is_read_only(self):
        registry.run("corner_turn", "viram", seed=1)
        (key,) = TIMING_PASSES.keys()
        entry = TIMING_PASSES.lookup(key)
        assert not entry["issue_cycles"].flags.writeable
        assert not entry["worst"].flags.writeable
        with pytest.raises(ValueError):
            entry["issue_cycles"][0] = 0.0
        with pytest.raises(TypeError):
            entry["tlb_misses"] = 0

    def test_memo_evicts_least_recently_used(self):
        memo = TimingPasses(max_entries=3)
        for n in range(3):
            memo.insert(f"k{n}", {"n": n})
        assert memo.lookup("k0")["n"] == 0
        memo.insert("k3", {"n": 3})
        memo.insert("k4", {"n": 4})
        assert len(memo) == 3
        assert memo.keys() == ["k0", "k3", "k4"]

    def test_process_memo_stays_within_its_bound(
        self, monkeypatch, small_workloads
    ):
        monkeypatch.setattr(TIMING_PASSES, "max_entries", 2)
        for kernel, machine in SPLIT[:4]:
            registry.run(kernel, machine, workload=small_workloads[kernel])
            assert len(TIMING_PASSES) <= 2
        assert _counts() == (0, 4)
        assert len(TIMING_PASSES) == 2

    def test_clearing_tier_one_empties_the_memo(self, small_ct):
        registry.run("corner_turn", "viram", workload=small_ct)
        assert len(TIMING_PASSES) == 1
        RUN_CACHE.clear()
        assert len(TIMING_PASSES) == 0
        assert _counts() == (0, 0)

    def test_perf_telemetry_names_the_memo(self, small_ct):
        from repro.trace.telemetry import TELEMETRY

        registry.run("corner_turn", "viram", workload=small_ct, seed=1)
        registry.run("corner_turn", "viram", workload=small_ct, seed=2)
        snap = TELEMETRY.snapshot()
        assert snap["perf.timing.hits"] == 1
        assert snap["perf.timing.misses"] == 1
        assert snap["perf.timing.entries"] == 1
        assert TIMING_PASSES.format_stats() == (
            "timing memo: 1 hits, 1 misses, 1 entries"
        )


class TestThreads:
    def test_concurrent_stored_runs_share_one_pass_each(self, small_ct):
        # The service runs jobs on executor threads: every lookup must
        # be counted once, and every served run must equal its fresh
        # twin, however the threads interleave.
        import sys
        import threading

        results = {}
        errors = []

        def worker(first):
            try:
                for seed in range(first, first + 3):
                    results[seed] = registry.run(
                        "corner_turn", "viram", workload=small_ct, seed=seed
                    )
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(3 * n,))
                for n in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        hits, misses = _counts()
        assert hits + misses == 18
        assert 1 <= misses <= 6
        assert len(TIMING_PASSES) == 1
        for seed, served in results.items():
            fresh = registry.run(
                "corner_turn", "viram", workload=small_ct, seed=seed,
                cache=False,
            )
            assert diff_runs(served, fresh, rtol=0.0) == []


class TestColdReport:
    def test_network_port_what_if_shares_the_imagine_pass(self, monkeypatch):
        # The what-if flips a flag only ``_evaluate`` reads, so its
        # 1024^2 run re-costs no address stream: the Imagine corner
        # turn's passes are the three sizes of the report, plus one hit.
        from repro.eval.report import full_report
        from repro.mappings import imagine_corner_turn

        real = imagine_corner_turn.timing_pass
        lookups = []

        def spy(parts, compute):
            before = _counts()
            entry = real(parts, compute)
            hits, misses = (a - b for a, b in zip(_counts(), before))
            if hits or misses:
                lookups.append((parts[1].rows, "hit" if hits else "miss"))
            return entry

        monkeypatch.setattr(imagine_corner_turn, "timing_pass", spy)
        full_report(validate=False)
        assert sorted(lookups) == [
            (512, "miss"), (1024, "hit"), (1024, "miss"), (2048, "miss"),
        ]
