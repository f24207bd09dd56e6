"""Cache-correctness tests for :mod:`repro.perf.cache`.

The memoization contract: identical requests hit, any perturbation of
the arguments misses, and cached results are defensively independent of
whatever the caller does to the returned object.
"""

import numpy as np
import pytest

from repro.calibration import DEFAULT_CALIBRATION
from repro.eval.sensitivity import perturbed_calibration
from repro.eval.tables import run_table3
from repro.kernels.workloads import small_beam_steering, small_corner_turn
from repro.mappings.registry import run
from repro.perf.cache import RUN_CACHE, RunCache, cache_key


@pytest.fixture(autouse=True)
def fresh_cache():
    """Each test starts from an empty, enabled global cache."""
    RUN_CACHE.clear()
    RUN_CACHE.enable()
    yield
    RUN_CACHE.clear()


class TestCacheKey:
    def test_identical_requests_share_a_key(self, small_ct):
        a = cache_key("corner_turn", "viram", {"workload": small_ct})
        b = cache_key(
            "corner_turn", "viram", {"workload": small_corner_turn()}
        )
        assert a == b

    def test_kernel_and_machine_distinguish(self, small_ct):
        kwargs = {"workload": small_ct}
        keys = {
            cache_key("corner_turn", "viram", kwargs),
            cache_key("corner_turn", "raw", kwargs),
            cache_key("cslc", "viram", kwargs),
        }
        assert len(keys) == 3

    def test_calibration_perturbation_changes_key(self, small_ct):
        base = cache_key(
            "corner_turn", "viram",
            {"workload": small_ct, "calibration": DEFAULT_CALIBRATION},
        )
        perturbed = cache_key(
            "corner_turn", "viram",
            {
                "workload": small_ct,
                "calibration": perturbed_calibration(
                    "viram", "dram_row_cycle", 1.25
                ),
            },
        )
        assert base != perturbed

    def test_workload_perturbation_changes_key(self):
        a = cache_key(
            "beam_steering", "raw", {"workload": small_beam_steering()}
        )
        import dataclasses

        b_workload = small_beam_steering()
        perturbed = dataclasses.replace(
            b_workload, directions=b_workload.directions + 1
        )
        assert a != cache_key(
            "beam_steering", "raw", {"workload": perturbed}
        )

    def test_kwarg_perturbation_changes_key(self, small_cs):
        a = cache_key("cslc", "raw", {"workload": small_cs})
        b = cache_key(
            "cslc", "raw", {"workload": small_cs, "balanced": False}
        )
        assert a != b

    def test_ndarray_content_hashes(self):
        x = np.arange(8, dtype=np.int64)
        a = cache_key("k", "m", {"x": x})
        assert a == cache_key("k", "m", {"x": x.copy()})
        assert a != cache_key("k", "m", {"x": x[::-1].copy()})
        assert a != cache_key("k", "m", {"x": x.astype(np.float64)})

    def test_float_int_and_bool_do_not_collide(self):
        keys = {
            cache_key("k", "m", {"x": 1}),
            cache_key("k", "m", {"x": 1.0}),
            cache_key("k", "m", {"x": True}),
        }
        assert len(keys) == 3

    def test_uncacheable_argument_returns_none(self):
        assert cache_key("k", "m", {"fn": lambda: None}) is None


class TestRunMemoization:
    def test_identical_args_hit(self, small_ct):
        first = run("corner_turn", "viram", workload=small_ct)
        hits_before = RUN_CACHE.hits
        second = run("corner_turn", "viram", workload=small_ct)
        assert RUN_CACHE.hits == hits_before + 1
        assert second is not first
        assert repr(second) == repr(first)

    def test_repeat_table3_sweep_is_memory_hits(self):
        RUN_CACHE.clear()
        cold = run_table3()
        warm = run_table3()
        assert RUN_CACHE.hits >= 15
        assert repr(warm) == repr(cold)

    def test_perturbed_calibration_misses(self, small_ct):
        run("corner_turn", "viram", workload=small_ct)
        perturbed = perturbed_calibration(
            "viram", "exposed_load_latency", 1.25
        )
        hits_before = RUN_CACHE.hits
        a = run(
            "corner_turn", "viram", workload=small_ct,
            calibration=DEFAULT_CALIBRATION,
        )
        b = run(
            "corner_turn", "viram", workload=small_ct, calibration=perturbed
        )
        assert RUN_CACHE.hits == hits_before  # both were distinct keys
        assert b.cycles != a.cycles

    def test_cached_results_defensively_independent(self, small_ct):
        first = run("corner_turn", "viram", workload=small_ct)
        pristine = repr(first)
        first.metrics["corrupted"] = 1e9
        first.breakdown.charge("corrupted", 1e9)
        second = run("corner_turn", "viram", workload=small_ct)
        assert repr(second) == pristine
        # ... and mutating the second copy doesn't corrupt the third.
        second.metrics.clear()
        third = run("corner_turn", "viram", workload=small_ct)
        assert repr(third) == pristine

    def test_cache_false_bypasses(self, small_ct):
        run("corner_turn", "viram", workload=small_ct)
        stats = RUN_CACHE.stats()
        result = run(
            "corner_turn", "viram", workload=small_ct, cache=False
        )
        after = RUN_CACHE.stats()
        assert after["bypasses"] == stats["bypasses"] + 1
        assert after["hits"] == stats["hits"]
        assert result.cycles > 0

    def test_uncacheable_kwarg_bypasses(self, small_ct):
        with pytest.raises(TypeError):
            # The lambda makes the request uncacheable; the mapping then
            # rejects the unknown kwarg — but the bypass was counted
            # first, which is what this test pins.
            run(
                "corner_turn", "viram", workload=small_ct,
                not_an_option=lambda: None,
            )
        assert RUN_CACHE.stats()["bypasses"] == 1

    def test_disabled_cache_stores_nothing(self, small_ct):
        RUN_CACHE.disable()
        try:
            run("corner_turn", "viram", workload=small_ct)
            run("corner_turn", "viram", workload=small_ct)
            assert len(RUN_CACHE) == 0
            assert RUN_CACHE.stats()["bypasses"] == 2
        finally:
            RUN_CACHE.enable()


class TestRunCacheStore:
    def test_lru_eviction_bounds_entries(self):
        cache = RunCache(max_entries=3)
        for i in range(5):
            cache.insert(f"k{i}", i)
        assert len(cache) == 3
        assert cache.lookup("k0") is None
        assert cache.lookup("k4") == 4

    def test_clear_resets_counters(self):
        cache = RunCache()
        cache.insert("k", 1)
        cache.lookup("k")
        cache.lookup("absent")
        cache.note_bypass()
        cache.clear()
        assert cache.stats() == {
            "entries": 0, "hits": 0, "misses": 0, "bypasses": 0,
        }
