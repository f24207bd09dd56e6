"""Tests for the disk store's record log (:mod:`repro.perf.index`).

The store keeps every persisted run of a model version in one
append-only log, so the failure modes worth testing here are
*cross-process*: two writers appending the same key, a reader racing a
pruner's compaction, and a crash tearing the log's tail mid-record —
plus the promise that the same writes leave the same bytes.  The rest
of the store is tested elsewhere, always against
:class:`~repro.perf.index.PackedDiskCache`:

* ``test_disk_cache.py`` — round-trip, corruption detection (flipped
  byte, truncated entry, ``verify``, ``tamper``), the model-version
  stamp, registry integration, opt-outs, prune/clear, and prune under
  multi-process contention;
* ``tests/resilience/test_diskcache_healing.py`` — quarantine and its
  incident records, and read retry under injected I/O errors;
* ``tests/resilience/test_ioutil.py`` — the record log itself, cut at
  every byte;
* ``test_store_lock.py`` — the store's lock under contention.
"""

from __future__ import annotations

import multiprocessing

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
        assert survivor.counters.get("corrupt") == 0

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
        log = store.log_path()
        intact = log.read_bytes()
        # Crash mid-append: half a header, no newline.
        with open(log, "ab") as fh:
            fh.write(b'{"d": "ab", "k": "half", "n": 12')

        # A pure reader serves every complete record and does not
        # mutate the log (readers hold no lock).
        reader = _store(tmp_path)
        assert reader.get_many([f"k{i}" for i in range(4)]) == {
            f"k{i}": {"cell": i} for i in range(4)
        }
        assert log.read_bytes() != intact

        # The next locked writer moves the torn bytes to quarantine,
        # with an incident record, and appends cleanly after.
        writer = _store(tmp_path)
        writer.put_many([("after", {"cell": 99})])
        assert writer.counters.get("torn_records") == 1
        text = log.read_bytes()
        assert b'"half"' not in text
        assert text.startswith(intact)
        assert text.endswith(b"\n")
        (incident,) = store.incidents()
        assert incident["reason"] == "torn tail"
        assert incident["at"] == len(intact)
        evidence = log.with_suffix(".quarantine").read_bytes()
        assert b'{"d": "ab", "k": "half", "n": 12' in evidence

        healed = _store(tmp_path)
        assert healed.lookup("after") == {"cell": 99}
        assert healed.lookup("half") is None
        assert healed.verify() == []

    def test_torn_tail_with_partial_payload_write(self, tmp_path):
        # Crash mid-payload: the header is whole, the payload is not.
        # Readers never serve it, the integrity sweep names its key, and
        # the next compaction moves it to quarantine before rewriting.
        store = _store(tmp_path)
        store.put_many([("kept", {"cell": 1}), ("evictme", {"cell": 2})])
        with open(store.log_path(), "ab") as fh:
            fh.write(b'{"d": "00", "k": "torn", "n": 40}\npartial-payload')

        reader = _store(tmp_path)
        assert reader.lookup("kept") == {"cell": 1}
        assert reader.lookup("torn") is None
        assert reader.verify() == ["torn"]
        assert reader.prune(max_entries=1) == 1
        assert b"partial-payload" not in store.log_path().read_bytes()
        evidence = store.log_path().with_suffix(".quarantine")
        assert b"partial-payload" in evidence.read_bytes()
        survivor = _store(tmp_path)
        assert len(survivor) == 1
        assert survivor.verify() == []

    def test_stray_bytes_between_records(self, tmp_path):
        # Bytes no header declares (a stray write between records) are
        # a corrupt line: counted, never served, and dropped by the next
        # compaction.
        store = _store(tmp_path)
        store.put_many([("kept", {"cell": 1}), ("evictme", {"cell": 2})])
        with open(store.log_path(), "ab") as fh:
            fh.write(b"orphaned-payload-bytes\n")

        reader = _store(tmp_path)
        assert reader.lookup("kept") == {"cell": 1}
        assert reader.counters.get("torn_records") == 1
        assert reader.verify() == []
        # Compaction (here triggered by an eviction) rewrites the log
        # from live records only, dropping the stray bytes.
        assert reader.prune(max_entries=1) == 1
        assert b"orphaned-payload-bytes" not in store.log_path().read_bytes()
        survivor = _store(tmp_path)
        assert len(survivor) == 1
        assert survivor.verify() == []


class TestByteStable:
    def test_same_writes_leave_the_same_bytes(self, tmp_path):
        items = [(f"k{i}", {"cell": i, "v": [0.5] * i}) for i in range(5)]
        logs = []
        for name in ("a", "b"):
            store = _store(tmp_path / name)
            store.put_many(items[:3])
            store.insert("k3", items[3][1])
            store.evict("k1")
            store.put_many(items[4:])
            logs.append(store.log_path().read_bytes())
        assert logs[0] == logs[1]
        assert b'"t"' not in logs[0] and b"gen" not in logs[0]

    def test_small_report_stores_are_byte_identical(self, tmp_path):
        # Two fresh processes running the same serial small-workload
        # report into two empty stores leave the same log, byte for byte.
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        script = (
            "from repro.eval.report import full_report\n"
            "from repro.kernels.workloads import small_beam_steering, "
            "small_corner_turn, small_cslc\n"
            "full_report(workloads={'corner_turn': small_corner_turn(), "
            "'cslc': small_cslc(), 'beam_steering': small_beam_steering()}, "
            "jobs=1, validate=False)\n"
        )
        logs = []
        for name in ("first", "second"):
            env = dict(
                os.environ,
                PYTHONPATH=str(Path(repro.__file__).parent.parent),
                REPRO_DISK_CACHE_DIR=str(tmp_path / name),
            )
            subprocess.run([sys.executable, "-c", script], env=env, check=True)
            (log,) = (tmp_path / name).glob("*/store.log")
            logs.append(log.read_bytes())
        assert len(logs[0]) > 0
        assert logs[0] == logs[1]
