"""Tests for the persistent worker pool (:mod:`repro.perf.poold`).

The contract: one pool per process, spawned lazily, *leased* to one
supervisor at a time and returned warm on clean completion — but any
failure that escapes the recovery ladder retires it, so a suspect
transport is never reused.

The ``perf.pool`` counters are cumulative for the life of the process
(they feed telemetry), so every assertion here is a *delta* against a
snapshot taken at the start of the test.
"""

import pytest

from repro.errors import MappingError
from repro.perf import poold


@pytest.fixture()
def base():
    return poold.pool_stats()


def _delta(base, *names):
    now = poold.pool_stats()
    return tuple(now[n] - base[n] for n in names)


def _boom(chunk):
    raise MappingError("injected work failure")


def _ledger_state(_):
    """What a worker's :func:`repro.obs.ledger.record` would reach."""
    from repro.obs import ledger

    return ledger.current_recorder(), ledger._LISTENER


def _tier_one_state(_):
    """A worker's tier 1: whether it is on, and what it and the timing
    memo hold."""
    from repro.perf.cache import RUN_CACHE, TIMING_PASSES

    return RUN_CACHE.enabled, len(RUN_CACHE), len(TIMING_PASSES)


class TestLeaseLifecycle:
    def test_acquire_release_reuses_pool(self, base):
        first = poold.acquire(2)
        poold.release(first)
        second = poold.acquire(2)
        try:
            assert second is first
            assert _delta(base, "spawns", "reuses", "leases") == (1, 1, 2)
            assert poold.pool_stats()["alive"] == 1
        finally:
            poold.release(second)

    def test_wider_pool_satisfies_narrower_lease(self, base):
        wide = poold.acquire(4)
        poold.release(wide)
        narrow = poold.acquire(2)
        try:
            assert narrow is wide
            assert _delta(base, "spawns") == (1,)
        finally:
            poold.release(narrow)

    def test_narrow_pool_retired_for_wider_lease(self, base):
        narrow = poold.acquire(1)
        poold.release(narrow)
        wide = poold.acquire(2)
        try:
            assert wide is not narrow
            assert _delta(base, "spawns", "discards") == (2, 1)
            assert poold.pool_stats()["workers"] == 2
        finally:
            poold.release(wide)

    def test_discard_retires_and_respawns(self, base):
        first = poold.acquire(2)
        poold.discard(first)
        second = poold.acquire(2)
        try:
            assert second is not first
            assert _delta(base, "spawns", "discards", "reuses") == (2, 1, 0)
        finally:
            poold.release(second)

    def test_fork_guard_drops_inherited_handle(self, base, monkeypatch):
        pool = poold.acquire(2)
        poold.release(pool)
        # Simulate waking up in a forked child: the recorded pid no
        # longer matches, so the inherited handle must not be reused
        # (its workers belong to the parent).
        monkeypatch.setattr(poold, "_PID", poold._PID - 1)
        fresh = poold.acquire(2)
        try:
            assert fresh is not pool
            assert _delta(base, "spawns", "reuses") == (2, 0)
        finally:
            poold.release(fresh)

    def test_workers_drop_the_inherited_ledger_state(self, monkeypatch):
        # A forked worker must record nothing: its events would reach
        # the parent's ledger file with the worker's own copy of `seq`.
        from repro.obs import ledger
        from repro.obs.progress import progress_reporting

        monkeypatch.setattr(
            ledger, "_ACTIVE", ledger.FlightRecorder("parent", path=None)
        )
        with progress_reporting("jsonl"), ledger.recording():
            pool = poold.acquire(2)
        try:
            state = pool.submit(_ledger_state, None).result(timeout=60)
        finally:
            poold.release(pool)
        assert state == (None, None)

    def test_workers_keep_tier_one_off(self, small_ct):
        # Nothing in a worker reads tier 1 or the timing memo: the
        # parent answers repeats and stores what the workers return.
        from repro.perf.cache import RUN_CACHE
        from repro.perf.planner import execute_requests

        requests = [
            ("corner_turn", "viram", {"workload": small_ct, "seed": seed})
            for seed in range(10)
        ]
        RUN_CACHE.enable()
        RUN_CACHE.clear()
        try:
            execute_requests(requests, jobs=2)
            execute_requests(requests, jobs=2)
            pool = poold.acquire(2)
            try:
                states = [
                    pool.submit(_tier_one_state, None).result(timeout=60)
                    for _ in range(4)
                ]
            finally:
                poold.release(pool)
        finally:
            RUN_CACHE.clear()
        assert set(states) == {(False, 0, 0)}

    def test_pool_executes_after_reuse(self):
        first = poold.acquire(2)
        assert first.submit(abs, -3).result(timeout=60) == 3
        poold.release(first)
        second = poold.acquire(2)
        try:
            assert second is first
            assert second.submit(abs, -7).result(timeout=60) == 7
        finally:
            poold.release(second)


class TestSupervisorIntegration:
    """The supervisor leases from the shared pool, returns it warm on
    clean completion, and retires it when a failure escapes the
    ladder."""

    def _requests(self, small_bs):
        return [
            ("beam_steering", "raw", {"workload": small_bs}),
            ("beam_steering", "viram", {"workload": small_bs}),
        ]

    def _cold(self):
        from repro.perf.cache import RUN_CACHE
        from repro.perf.diskcache import DISK_CACHE

        RUN_CACHE.clear()
        DISK_CACHE.clear()

    def test_back_to_back_sweeps_reuse_one_pool(self, base, small_bs):
        from repro.perf.planner import execute_requests

        self._cold()
        first = execute_requests(self._requests(small_bs), jobs=2)
        mid = poold.pool_stats()
        assert mid["alive"] == 1
        self._cold()
        second = execute_requests(self._requests(small_bs), jobs=2)
        after = poold.pool_stats()
        assert after["spawns"] == mid["spawns"]
        assert after["reuses"] > mid["reuses"]
        assert [repr(r) for r in first] == [repr(r) for r in second]

    def test_work_failure_retires_the_pool(self, base):
        from repro.resilience.supervisor import Supervisor

        sup = Supervisor(n_jobs=2, task=_boom)
        with pytest.raises(MappingError):
            sup.run([[("corner_turn", "viram", {})]])
        # The error propagated unchanged (model errors are never papered
        # over), and the pool it crossed was not kept warm.
        stats = poold.pool_stats()
        assert stats["alive"] == 0
        assert _delta(base, "discards") == (1,)
