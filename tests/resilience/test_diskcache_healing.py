"""Tests for the disk cache's self-healing paths: quarantine of
damaged entries, read-retry under injected I/O errors, and stale-lock
breaking on the store's own lock."""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.perf.index import STALE_LOCK_AGE, PackedDiskCache
from repro.resilience import chaos
from repro.resilience.stats import RESILIENCE

KEY = "deadbeef" * 8


@pytest.fixture
def dc(tmp_path):
    cache = PackedDiskCache(directory=tmp_path / "store", respect_env=False)
    cache.insert(KEY, {"answer": 42})
    return cache


class TestQuarantine:
    def test_zero_byte_entry_quarantined(self, dc):
        record = dc._record(KEY)
        with open(dc._segment_path(record.segment), "r+b") as fh:
            fh.truncate(record.offset)  # not one payload byte left
        assert dc.lookup(KEY) is None
        assert not dc.contains(KEY)
        assert (dc.quarantine_dir() / f"{KEY}.run").exists()
        assert dc.quarantined == 1
        assert dc.corrupt == 1

    def test_truncated_entry_quarantined(self, dc):
        assert dc.truncate_entry(KEY)
        assert dc.lookup(KEY) is None
        assert dc.quarantined == 1

    def test_incident_record_is_structured(self, dc):
        dc.corrupt_bytes(KEY)
        assert dc.lookup(KEY) is None
        (incident,) = dc.incidents()
        assert incident["key"] == KEY
        assert incident["action"] == "quarantined"
        assert incident["pid"] == os.getpid()
        assert "digest mismatch" in incident["reason"]
        assert incident["quarantined_to"].endswith(f"{KEY}.run")

    def test_key_recovers_after_quarantine(self, dc):
        dc.corrupt_bytes(KEY)
        assert dc.lookup(KEY) is None
        assert dc.insert(KEY, {"answer": 43})
        assert dc.lookup(KEY) == {"answer": 43}

    def test_quarantine_counts_in_resilience_telemetry(self, dc):
        before = RESILIENCE.get("quarantined")
        dc.corrupt_bytes(KEY)
        dc.lookup(KEY)
        assert RESILIENCE.get("quarantined") == before + 1

    def test_lookup_never_raises_on_missing_store(self, tmp_path):
        cache = PackedDiskCache(
            directory=tmp_path / "nowhere", respect_env=False
        )
        assert cache.lookup(KEY) is None
        assert cache.misses == 1

    def test_clear_resets_healing_counters(self, dc):
        dc.corrupt_bytes(KEY)
        dc.lookup(KEY)
        dc.clear()
        assert dc.quarantined == 0
        assert dc.io_retries == 0


class TestReadRetry:
    def test_transient_error_healed_by_retry(self, dc, monkeypatch):
        monkeypatch.setenv(
            "REPRO_CHAOS", f"disk=1,dir={dc.root() / '.chaos'}"
        )
        assert dc.lookup(KEY) == {"answer": 42}
        assert dc.hits == 1
        assert dc.io_retries == 1
        assert RESILIENCE.get("io_errors") == 1
        assert RESILIENCE.get("io_retries") == 1

    def test_persistent_error_degrades_to_miss(self, dc, monkeypatch):
        monkeypatch.setenv(
            "REPRO_CHAOS", f"disk=2,dir={dc.root() / '.chaos'}"
        )
        assert dc.lookup(KEY) is None
        assert dc.misses == 1
        assert RESILIENCE.get("io_errors") == 2
        # The entry itself is fine: with chaos off the key still serves.
        monkeypatch.delenv("REPRO_CHAOS")
        assert dc.lookup(KEY) == {"answer": 42}


class TestStaleLock:
    def _plant(self, dc, pid, age=2 * STALE_LOCK_AGE, raw=None):
        lock = dc.root() / ".lock"
        lock.parent.mkdir(parents=True, exist_ok=True)
        lock.write_bytes(
            raw if raw is not None
            else json.dumps({"pid": pid, "time": time.time() - age}).encode()
        )
        old = time.time() - age
        os.utime(lock, (old, old))
        return lock

    def test_dead_pid_lock_is_broken(self, dc):
        self._plant(dc, chaos.dead_pid())
        before = RESILIENCE.get("locks_broken")
        with dc._interprocess_lock():
            pass
        assert RESILIENCE.get("locks_broken") == before + 1
        # The new holder recorded itself into the fresh lock file.
        record = json.loads((dc.root() / ".lock").read_bytes())
        assert record["pid"] == os.getpid()

    def test_live_pid_lock_is_not_broken(self, dc):
        self._plant(dc, os.getpid())
        before = RESILIENCE.get("locks_broken")
        with dc._interprocess_lock():
            pass
        assert RESILIENCE.get("locks_broken") == before

    def test_young_lock_is_not_broken(self, dc):
        self._plant(dc, chaos.dead_pid(), age=1.0)
        before = RESILIENCE.get("locks_broken")
        with dc._interprocess_lock():
            pass
        assert RESILIENCE.get("locks_broken") == before

    def test_unparseable_lock_is_not_broken(self, dc):
        self._plant(dc, 0, raw=b"not json at all")
        before = RESILIENCE.get("locks_broken")
        with dc._interprocess_lock():
            pass
        assert RESILIENCE.get("locks_broken") == before
