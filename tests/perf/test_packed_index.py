"""Tests for the packed disk-cache index (:mod:`repro.perf.index`).

The packed layout puts every persisted run behind one append-only
manifest over shared payload segments, so the failure modes worth
testing here are *cross-process*: two writers appending the same key, a
reader racing a pruner's compaction, a crash tearing the manifest tail
mid-record, and segment rollover.  The rest of the store is tested
elsewhere, always against :class:`~repro.perf.index.PackedDiskCache`:

* ``test_disk_cache.py`` — round-trip, corruption detection (flipped
  byte, truncated entry, ``verify``, ``tamper``), the model-version
  stamp, registry integration, opt-outs, prune/clear, and prune under
  multi-process contention;
* ``tests/resilience/test_diskcache_healing.py`` — quarantine and its
  incident records, read retry under injected I/O errors, and
  stale-lock breaking on the store's lock;
* ``test_stale_lock.py`` — the lock between two live processes.
"""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.perf.index import PackedDiskCache


def _store(directory) -> PackedDiskCache:
    return PackedDiskCache(str(directory), respect_env=False)


def _worker_same_key(args):
    directory, worker, n_rounds = args
    cache = _store(directory)
    torn = 0
    for i in range(n_rounds):
        cache.insert("race00", {"worker": worker, "round": i})
        value = cache.lookup("race00")
        if value is None:
            torn += 1
    return torn


def _worker_append(args):
    directory, worker, n_rounds = args
    cache = _store(directory)
    for i in range(n_rounds):
        cache.insert(f"w{worker}k{i:03d}", {"worker": worker, "cell": i})
    return n_rounds


def _worker_prune(args):
    directory, n_rounds = args
    cache = _store(directory)
    evicted = 0
    for _ in range(n_rounds):
        evicted += cache.prune(max_entries=5)
    return evicted


class TestMultiProcess:
    def _pool(self, n):
        return multiprocessing.get_context("fork").Pool(n)

    def test_same_key_race_never_serves_torn_data(self, tmp_path):
        directory = tmp_path / "shared"
        with self._pool(2) as pool:
            torn = pool.map(
                _worker_same_key, [(directory, w, 40) for w in range(2)]
            )
        # A racing reader may see either writer's value but never a
        # damaged one: every miss would have counted `corrupt`, and a
        # fresh handle must find a clean store with the last append
        # winning.
        assert torn == [0, 0]
        survivor = _store(directory)
        assert survivor.verify() == []
        value = survivor.lookup("race00")
        assert value is not None and value["round"] == 39
        assert survivor.corrupt == 0

    def test_append_during_prune_compaction(self, tmp_path):
        directory = tmp_path / "shared"
        seed = _store(directory)
        for i in range(30):
            seed.insert(f"seed{i:03d}", {"cell": i})
        with self._pool(3) as pool:
            outcomes = pool.map_async(
                _worker_append, [(directory, w, 25) for w in range(2)]
            )
            pruned = pool.map(_worker_prune, [(directory, 8)] * 1)
            appended = outcomes.get(timeout=120)
        assert appended == [25, 25]
        assert sum(pruned) > 0
        # Post-conditions after compactions raced the appenders: the
        # store obeys the cap once pruned again, and every surviving
        # record decodes against its digest.
        final = _store(directory)
        final.prune(max_entries=5)
        assert len(final) <= 5
        assert final.verify() == []
        # No reader ever mistook a compaction for corruption badly
        # enough to quarantine a live key into oblivion: the survivors
        # all serve.
        for key in final.keys():
            assert final.lookup(key) is not None

    def test_concurrent_distinct_writers_all_land(self, tmp_path):
        directory = tmp_path / "shared"
        with self._pool(4) as pool:
            pool.map(_worker_append, [(directory, w, 20) for w in range(4)])
        survivor = _store(directory)
        assert len(survivor) == 80
        assert survivor.verify() == []
        for w in range(4):
            assert survivor.lookup(f"w{w}k007")["worker"] == w


class TestTornTail:
    def test_torn_tail_recovery_mirrors_ledger_quarantine(self, tmp_path):
        store = _store(tmp_path)
        store.put_many([(f"k{i}", {"cell": i}) for i in range(4)])
        manifest = store.stamp_dir() / "index.manifest"
        intact = manifest.read_bytes()
        # Crash mid-append: half a record, no newline.
        with open(manifest, "ab") as fh:
            fh.write(b'{"k": "half", "s": 0, "o": 12')

        # A pure reader serves every complete record and does not
        # mutate the manifest (readers hold no lock).
        reader = _store(tmp_path)
        assert reader.get_many([f"k{i}" for i in range(4)]) == {
            f"k{i}": {"cell": i} for i in range(4)
        }
        assert manifest.read_bytes() != intact

        # The next locked writer truncates the torn bytes, quarantines
        # them with an incident record, and appends cleanly after.
        writer = _store(tmp_path)
        writer.put_many([("after", {"cell": 99})])
        assert writer.torn_records == 1
        text = manifest.read_bytes()
        assert b'"half"' not in text
        assert text.endswith(b"\n")
        incidents = list(store.quarantine_dir().glob("*.incident.json"))
        assert len(incidents) == 1
        incident = json.loads(incidents[0].read_text())
        assert incident["reason"].startswith("torn manifest tail")
        torn_payloads = list(store.quarantine_dir().glob("manifest-torn-*"))
        assert [p for p in torn_payloads if p.suffix == ".bin"]

        healed = _store(tmp_path)
        assert healed.lookup("after") == {"cell": 99}
        assert healed.lookup("half") is None
        assert healed.verify() == []

    def test_torn_tail_with_partial_payload_write(self, tmp_path):
        # Crash between segment append and manifest append: the payload
        # bytes exist but no record points at them — invisible, then
        # reclaimed by the next compaction.
        store = _store(tmp_path)
        store.put_many([("kept", {"cell": 1}), ("evictme", {"cell": 2})])
        segment = store.stamp_dir() / "segments" / "seg-00000.bin"
        with open(segment, "ab") as fh:
            fh.write(b"orphaned-payload-bytes")

        reader = _store(tmp_path)
        assert reader.lookup("kept") == {"cell": 1}
        assert reader.verify() == []
        # Compaction (here triggered by an eviction) rewrites segments
        # from live records only, dropping the orphaned bytes.
        assert reader.prune(max_entries=1) == 1
        compacted = store.stamp_dir() / "segments" / "seg-00000.bin"
        assert b"orphaned-payload-bytes" not in compacted.read_bytes()
        survivor = _store(tmp_path)
        assert len(survivor) == 1
        assert survivor.verify() == []


class TestInterning:
    def test_intern_expand_round_trip(self):
        from repro.perf.poold import expand_requests, intern_requests

        requests = [
            ("corner_turn", "viram", {"points": 5, "delta": 0.1}),
            ("corner_turn", "viram", {"points": 5, "delta": 0.2}),
            ("cslc", "imagine", {"points": 5}),
            ("corner_turn", "raw", {}),
        ]
        chunk = intern_requests(requests)
        assert expand_requests(chunk) == requests
        kernels, machines, base, cells = chunk
        # The interning table really does fold the repeats.
        assert sorted(kernels) == ["corner_turn", "cslc"]
        assert sorted(machines) == ["imagine", "raw", "viram"]
        # Cells sharing the base kwargs ship only their delta.
        assert cells[1][2] == {"delta": 0.2}

    def test_intern_empty(self):
        from repro.perf.poold import expand_requests, intern_requests

        assert expand_requests(intern_requests([])) == []


class TestSegmentRollover:
    def test_segments_roll_at_configured_size(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_INDEX_SEGMENT_MB", "1")
        store = _store(tmp_path)
        blob = {"payload": "x" * (300 * 1024)}
        store.put_many([(f"big{i}", blob) for i in range(8)])
        segments = sorted(
            p.name for p in (store.stamp_dir() / "segments").glob("*.bin")
        )
        assert len(segments) >= 2
        assert store.verify() == []
        assert store.get_many([f"big{i}" for i in range(8)])["big7"] == blob
        stats = store.index_stats()
        assert stats["segments"] == len(segments)
