"""A pool worker's counts reach the parent.

A chunk runs in its worker inside fresh scopes of the resilience tally
and the disk store's counts, and the parent adds what the chunk counted
to its own tallies — so a read retry or a quarantine a worker makes,
and the disk writes of a pooled sweep, show in the parent's telemetry
exactly as they would had the parent done the work.
"""

from __future__ import annotations

from repro.cli import main
from repro.perf.cache import RUN_CACHE
from repro.perf.diskcache import DISK_CACHE
from repro.resilience.stats import RESILIENCE
from repro.resilience.supervisor import RetryPolicy, Supervisor

KEY = "feedface" * 8

FAST = RetryPolicy(max_retries=2, backoff=0.001, deadline=60.0)


def _read_store_chunk(keys):
    """Worker task: read each key from the shared disk store."""
    from repro.perf.diskcache import DISK_CACHE

    return [DISK_CACHE.lookup(key) for key in keys]


def _corrupt_then_read_chunk(keys):
    """Worker task: flip a byte of each entry, then read it back."""
    from repro.perf.diskcache import DISK_CACHE

    for key in keys:
        DISK_CACHE.corrupt_bytes(key)
    return [DISK_CACHE.lookup(key) for key in keys]


class TestWorkerCounts:
    def test_worker_read_retry_counts_in_the_parent(
        self, tmp_path, monkeypatch
    ):
        assert DISK_CACHE.insert(KEY, {"answer": 42})
        # Armed before the pool forks, so only the worker (the one
        # process that reads the store) can take the disk token.
        monkeypatch.setenv("REPRO_CHAOS", f"disk=1,dir={tmp_path / 'chaos'}")
        retries = RESILIENCE.get("io_retries")
        hits = DISK_CACHE.stats()["hits"]
        results = Supervisor(2, policy=FAST, task=_read_store_chunk).run(
            [[KEY]]
        )
        assert results == [[{"answer": 42}]]
        assert RESILIENCE.get("io_retries") == retries + 1
        assert DISK_CACHE.stats()["io_retries"] >= 1
        assert DISK_CACHE.stats()["hits"] == hits + 1

    def test_worker_quarantine_counts_in_the_parent(self):
        assert DISK_CACHE.insert(KEY, {"answer": 42})
        quarantined = RESILIENCE.get("quarantined")
        results = Supervisor(
            2, policy=FAST, task=_corrupt_then_read_chunk
        ).run([[KEY]])
        assert results == [[None]]
        assert RESILIENCE.get("quarantined") == quarantined + 1
        assert DISK_CACHE.stats()["corrupt"] == 1

    def test_isolated_cells_bring_their_counts(self):
        # A chunk that always fails is retried cell by cell; each cell's
        # worker hands its counts back too.
        assert DISK_CACHE.insert(KEY, {"answer": 42})
        hits = DISK_CACHE.stats()["hits"]
        sup = Supervisor(
            2, policy=RetryPolicy(max_retries=0, backoff=0.001,
                                  deadline=60.0),
            task=_read_store_chunk,
        )
        value, attempts, err = sup._run_cell_alone(0, 0, KEY)
        assert (value, attempts, err) == ({"answer": 42}, 1, None)
        assert DISK_CACHE.stats()["hits"] == hits + 1


def test_pooled_sweep_counts_every_disk_write(capsys):
    # Serially this sweep prints `479 writes` beside 479 entries; the
    # pooled run's writes happen in the workers and must count too.
    RUN_CACHE.clear()
    degradations = RESILIENCE.get("degradations")
    code = main(
        ["sensitivity", "--points", "8", "--delta", "0.25", "--jobs", "2",
         "--perf"]
    )
    err = capsys.readouterr().err
    assert code == 0, err
    assert "479 writes" in err
    assert "479 entries" in err
    assert RESILIENCE.get("degradations") == degradations  # really pooled
