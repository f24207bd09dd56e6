"""Tests for the disk cache's self-healing paths: quarantine of
damaged entries and read-retry under injected I/O errors."""

from __future__ import annotations

import os

import pytest

from repro.ioutil import BODY_AT, BODY_FIELD, read_log
from repro.perf.index import PackedDiskCache
from repro.resilience.stats import RESILIENCE

KEY = "deadbeef" * 8


@pytest.fixture
def dc(tmp_path):
    cache = PackedDiskCache(directory=tmp_path / "store", respect_env=False)
    cache.insert(KEY, {"answer": 42})
    return cache


class TestQuarantine:
    def test_zero_byte_entry_quarantined(self, dc):
        # Cut the log where KEY's payload starts: the record is now a
        # torn tail, never served, named by the integrity sweep, and
        # moved to quarantine by the next locked writer.
        entry = dc._current_view().entries[KEY]
        os.truncate(dc.log_path(), entry.offset)
        assert dc.lookup(KEY) is None
        assert not dc.contains(KEY)
        assert dc.verify() == [KEY]
        assert dc.counters.get("corrupt") == 1
        dc.insert("after", 1)
        assert dc.counters.get("quarantined") == 1
        evidence = dc.log_path().with_suffix(".quarantine")
        assert KEY.encode() in evidence.read_bytes()
        assert dc.verify() == []

    def test_truncated_entry_quarantined(self, dc):
        assert dc.truncate_entry(KEY)
        assert dc.lookup(KEY) == {"answer": 42}  # the intact older record
        assert dc.verify() == [KEY]
        dc.insert("after", 1)
        assert dc.counters.get("quarantined") == 1
        (incident,) = dc.incidents()
        assert incident["reason"] == "torn tail"

    def test_incident_record_is_structured(self, dc):
        entry = dc._current_view().entries[KEY]
        payload = os.pread(dc._current_view().fd, entry.length, entry.offset)
        dc.corrupt_bytes(KEY)
        assert dc.lookup(KEY) is None
        # One record in the stamp's quarantine log: where the entry sat,
        # why, and its bytes as the body.
        evidence = dc.log_path().with_suffix(".quarantine")
        (record,) = read_log(evidence)[0]
        assert record["k"] == KEY
        assert record["log"] == "store.log"
        assert record["at"] == entry.offset
        assert "digest mismatch" in record["reason"]
        body = evidence.read_bytes()[record[BODY_AT]:][:record[BODY_FIELD]]
        assert len(body) == len(payload) and body != payload
        (incident,) = dc.incidents()
        assert incident["key"] == KEY
        assert incident["quarantined_to"] == str(evidence)

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
        assert cache.counters.get("misses") == 1

    def test_clear_resets_healing_counters(self, dc):
        dc.corrupt_bytes(KEY)
        dc.lookup(KEY)
        dc.clear()
        assert dc.counters.get("quarantined") == 0
        assert dc.counters.get("io_retries") == 0


class TestReadRetry:
    def test_transient_error_healed_by_retry(self, dc, monkeypatch):
        monkeypatch.setenv(
            "REPRO_CHAOS", f"disk=1,dir={dc.root() / '.chaos'}"
        )
        assert dc.lookup(KEY) == {"answer": 42}
        assert dc.counters.get("hits") == 1
        assert dc.counters.get("io_retries") == 1
        assert RESILIENCE.get("io_errors") == 1
        assert RESILIENCE.get("io_retries") == 1

    def test_persistent_error_degrades_to_miss(self, dc, monkeypatch):
        monkeypatch.setenv(
            "REPRO_CHAOS", f"disk=2,dir={dc.root() / '.chaos'}"
        )
        assert dc.lookup(KEY) is None
        assert dc.counters.get("misses") == 1
        assert RESILIENCE.get("io_errors") == 2
        # The entry itself is fine: with chaos off the key still serves.
        monkeypatch.delenv("REPRO_CHAOS")
        assert dc.lookup(KEY) == {"answer": 42}
