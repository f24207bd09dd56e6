"""Tests for the persistent disk tier (:mod:`repro.perf.index`, shared
as :data:`repro.perf.diskcache.DISK_CACHE`).

The contract under test: entries round-trip with integrity verification,
pruning is safe under contention, a corrupt entry is detected and
quarantined rather than served, and bumping the model version stamp
orphans every old entry.
"""

import multiprocessing
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.ioutil import read_log
from repro.mappings import registry
from repro.perf import cache as cache_module
from repro.perf.cache import RUN_CACHE, cache_key, model_version_stamp
from repro.perf.diskcache import DISK_CACHE
from repro.perf.index import PackedDiskCache


@pytest.fixture(autouse=True)
def fresh_memory_cache():
    RUN_CACHE.clear()
    RUN_CACHE.enable()
    yield
    RUN_CACHE.clear()


@pytest.fixture
def disk(tmp_path):
    return PackedDiskCache(tmp_path / "store")


# -- round-trip and encoding -------------------------------------------


class TestRoundTrip:
    def test_insert_then_lookup(self, disk):
        assert disk.insert("ab1234", {"cycles": 42.0})
        assert disk.lookup("ab1234") == {"cycles": 42.0}
        assert disk.counters.get("hits") == 1
        assert disk.counters.get("writes") == 1

    def test_missing_key_is_a_miss(self, disk):
        assert disk.lookup("nope00") is None
        assert disk.counters.get("misses") == 1

    def test_kernel_run_round_trips_field_identical(self, disk, small_ct):
        run = registry.run(
            "corner_turn", "viram", workload=small_ct, cache=False
        )
        disk.insert("cc0000", run)
        loaded = disk.lookup("cc0000")
        assert repr(loaded) == repr(run)
        assert loaded.cycles == run.cycles

    def test_contains_and_evict(self, disk):
        disk.insert("ab1234", "x")
        assert disk.contains("ab1234")
        assert disk.evict("ab1234")
        assert not disk.contains("ab1234")
        assert not disk.evict("ab1234")

    def test_unpicklable_value_degrades_to_noop(self, disk):
        assert not disk.insert("ab1234", lambda: None)
        assert not disk.contains("ab1234")


# -- corruption --------------------------------------------------------


class TestCorruption:
    def test_flipped_byte_detected_and_quarantined(self, disk):
        disk.insert("ab1234", {"cycles": 42.0})
        assert disk.corrupt_bytes("ab1234")
        assert disk.lookup("ab1234") is None
        assert disk.counters.get("corrupt") == 1
        assert disk.counters.get("misses") == 1
        # Quarantined: the record is gone, the key can be re-written.
        assert not disk.contains("ab1234")
        (record,) = read_log(disk.log_path().with_suffix(".quarantine"))[0]
        assert record["k"] == "ab1234"
        disk.insert("ab1234", {"cycles": 42.0})
        assert disk.lookup("ab1234") == {"cycles": 42.0}

    def test_truncated_entry_rejected(self, disk):
        # The torn copy sits at the log's end: it is never served (the
        # intact older record still is), the integrity sweep names its
        # key, and the next locked write quarantines the torn bytes.
        disk.insert("ab1234", {"cycles": 42.0})
        assert disk.truncate_entry("ab1234")
        assert disk.lookup("ab1234") == {"cycles": 42.0}
        assert disk.verify() == ["ab1234"]
        assert disk.counters.get("corrupt") == 1
        disk.insert("cd5678", "after")
        assert disk.verify() == []
        assert disk.counters.get("quarantined") == 1

    def test_verify_names_the_bad_keys(self, disk):
        disk.insert("ab1234", "good")
        disk.insert("cd5678", "bad")
        disk.corrupt_bytes("cd5678")
        assert disk.verify() == ["cd5678"]

    def test_tamper_keeps_a_valid_digest(self, disk):
        # The stale-but-self-consistent corruption: hash verification
        # must NOT catch it (that is the differential oracle's job).
        disk.insert("ab1234", {"cycles": 42.0})

        def double(entry):
            entry["cycles"] *= 2

        assert disk.tamper("ab1234", double)
        assert disk.verify() == []
        assert disk.lookup("ab1234") == {"cycles": 84.0}


# -- version stamp -----------------------------------------------------


class TestVersionStamp:
    def test_stamp_is_stable_within_a_version(self):
        assert model_version_stamp() == model_version_stamp()

    def test_version_bump_invalidates_persisted_entries(
        self, monkeypatch, small_ct
    ):
        import repro

        run = registry.run("corner_turn", "viram", workload=small_ct)
        old_key = cache_key("corner_turn", "viram", {"workload": small_ct})
        assert DISK_CACHE.contains(old_key)
        old_stamp = model_version_stamp()

        monkeypatch.setattr(repro, "__version__", "999.0.0-test")
        cache_module.reset_model_version_stamp()
        try:
            assert model_version_stamp() != old_stamp
            new_key = cache_key(
                "corner_turn", "viram", {"workload": small_ct}
            )
            assert new_key != old_key
            # The old entry is unreachable: new key, new stamp dir.
            assert not DISK_CACHE.contains(new_key)
            assert DISK_CACHE.lookup(new_key) is None
        finally:
            monkeypatch.undo()
            cache_module.reset_model_version_stamp()
        assert model_version_stamp() == old_stamp

    def test_calibration_change_moves_the_stamp(self, monkeypatch):
        from dataclasses import replace

        from repro import calibration as cal_module

        old_stamp = model_version_stamp()
        perturbed = replace(
            cal_module.DEFAULT_CALIBRATION,
            viram=replace(
                cal_module.DEFAULT_CALIBRATION.viram, dram_row_cycle=99.0
            ),
        )
        monkeypatch.setattr(
            cal_module, "DEFAULT_CALIBRATION", perturbed
        )
        cache_module.reset_model_version_stamp()
        try:
            assert model_version_stamp() != old_stamp
        finally:
            monkeypatch.undo()
            cache_module.reset_model_version_stamp()


    def test_model_source_edit_misses_the_store(self, tmp_path):
        # The stamp hashes the package source: a fresh process running
        # an edited model must re-simulate, not serve the cycles the
        # unedited package left in the same store.
        import repro

        package = Path(repro.__file__).parent
        edited = tmp_path / "edited"
        shutil.copytree(
            package,
            edited / "repro",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        mapping = edited / "repro" / "mappings" / "raw_beam_steering.py"
        line = "    startup = streams * max_latency\n"
        source = mapping.read_text()
        assert source.count(line) == 1
        mapping.write_text(
            source.replace(line, line.rstrip() + " + 100000\n")
        )

        def python(root, *args):
            env = dict(
                os.environ, PYTHONPATH=str(root), PYTHONDONTWRITEBYTECODE="1"
            )
            return subprocess.run(
                [sys.executable, *args],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            ).stdout

        stamp = (
            "from repro.perf.cache import model_version_stamp; "
            "print(model_version_stamp())"
        )
        assert python(package.parent, "-c", stamp) != python(
            edited, "-c", stamp
        )
        run = ("-m", "repro", "run", "beam_steering", "raw")
        assert "total cycles: 17,904\n" in python(package.parent, *run)
        assert DISK_CACHE.stats()["entries"] > 0
        assert "total cycles: 117,904\n" in python(edited, *run)


# -- registry integration ----------------------------------------------


class TestRegistryIntegration:
    def test_run_writes_both_tiers(self, small_ct):
        run = registry.run("corner_turn", "viram", workload=small_ct)
        key = cache_key("corner_turn", "viram", {"workload": small_ct})
        assert RUN_CACHE.lookup(key) is not None
        assert DISK_CACHE.contains(key)
        assert DISK_CACHE.lookup(key).cycles == run.cycles

    def test_disk_hit_served_without_resimulation(self, small_ct):
        first = registry.run("corner_turn", "viram", workload=small_ct)
        key = cache_key("corner_turn", "viram", {"workload": small_ct})
        # Evict tier 1 only: the next run must come from the disk.
        RUN_CACHE.evict(key)
        hits_before = DISK_CACHE.counters.get("hits")
        second = registry.run("corner_turn", "viram", workload=small_ct)
        assert DISK_CACHE.counters.get("hits") == hits_before + 1
        assert repr(second) == repr(first)
        # And the hit was promoted back into tier 1.
        assert RUN_CACHE.lookup(key) is not None

    def test_cache_false_bypasses_both_tiers(self, small_ct):
        writes_before = DISK_CACHE.counters.get("writes")
        registry.run("corner_turn", "viram", workload=small_ct, cache=False)
        key = cache_key("corner_turn", "viram", {"workload": small_ct})
        assert DISK_CACHE.counters.get("writes") == writes_before
        assert not DISK_CACHE.contains(key)
        assert RUN_CACHE.lookup(key) is None


# -- opt-out -----------------------------------------------------------


class TestOptOut:
    def test_env_kill_switch_bypasses_and_counts(
        self, monkeypatch, small_ct
    ):
        from repro.trace.telemetry import TELEMETRY

        monkeypatch.setenv("REPRO_DISK_CACHE", "0")
        assert not DISK_CACHE.enabled
        bypasses_before = DISK_CACHE.counters.get("bypasses")
        registry.run("corner_turn", "viram", workload=small_ct)
        key = cache_key("corner_turn", "viram", {"workload": small_ct})
        monkeypatch.setenv("REPRO_DISK_CACHE", "1")
        assert not DISK_CACHE.contains(key)
        monkeypatch.setenv("REPRO_DISK_CACHE", "0")
        assert DISK_CACHE.counters.get("bypasses") > bypasses_before
        snap = TELEMETRY.snapshot()
        assert snap["perf.diskcache.bypasses"] == (
            DISK_CACHE.counters.get("bypasses")
        )
        assert snap["perf.diskcache.enabled"] == 0

    def test_disable_is_per_instance_and_reversible(self, disk):
        disk.disable()
        assert not disk.insert("ab1234", "x")
        assert disk.counters.get("bypasses") == 1
        disk.enable()
        assert disk.insert("ab1234", "x")


# -- pruning -----------------------------------------------------------


class TestPrune:
    def test_prune_by_entry_count_evicts_oldest(self, disk):
        # Inserted in reverse, then read in order: recency is the last
        # lookup, so insertion order alone would evict k500 and k400.
        for i in reversed(range(6)):
            disk.insert(f"k{i}00", i)
        for i in range(6):
            assert disk.lookup(f"k{i}00") == i
        removed = disk.prune(max_entries=4)
        assert removed == 2
        assert disk.counters.get("evictions") == 2
        kept = set(disk.keys())
        assert kept == {"k200", "k300", "k400", "k500"}

    def test_prune_by_bytes(self, disk):
        disk.insert("aa0000", b"x" * 10_000)
        disk.insert("bb0000", b"y" * 10)
        assert disk.prune(max_bytes=5_000) >= 1
        assert disk.stats()["bytes"] <= 5_000

    def test_prune_within_caps_is_a_noop(self, disk):
        disk.insert("aa0000", "x")
        assert disk.prune(max_entries=10, max_bytes=10**9) == 0
        assert disk.contains("aa0000")

    def test_clear_removes_everything_and_resets_counters(self, disk):
        disk.insert("aa0000", "x")
        disk.lookup("aa0000")
        assert disk.clear() == 1
        assert len(disk) == 0
        assert disk.counters.get("hits") == 0
        assert disk.counters.get("writes") == 0


# -- multi-process safety ----------------------------------------------


def _worker_prune(args):
    directory, n_rounds = args
    cache = PackedDiskCache(directory)
    evicted = 0
    for _ in range(n_rounds):
        evicted += cache.prune(max_entries=3)
    return evicted


class TestConcurrency:
    def _pool(self, n):
        return multiprocessing.get_context("fork").Pool(n)

    def test_prune_under_contention(self, tmp_path):
        directory = str(tmp_path / "shared")
        writer = PackedDiskCache(directory)
        for i in range(20):
            writer.insert(f"p{i:02d}00", i)
        with self._pool(2) as pool:
            pool.map(_worker_prune, [(directory, 5)] * 2)
        # Post-condition: within cap, and every survivor still valid.
        assert len(writer) <= 3
        assert writer.verify() == []
