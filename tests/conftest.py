"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels.workloads import (
    small_beam_steering,
    small_corner_turn,
    small_cslc,
)


@pytest.fixture(scope="session", autouse=True)
def isolated_session_state(tmp_path_factory):
    """Point every persistent store at a session directory.

    The per-test fixtures below are function-scoped, so they do not
    cover module-scoped fixtures (a shared ``run_table3()`` or
    ``full_report()``); without this, those would read and write the
    user's real disk cache — whose namespace a code change need not
    move, so a stale build's cycles could satisfy a regression pin —
    and append sessions to the checkout's ``.repro/``.  Session scope
    sets the variables before any module fixture runs.
    """
    root = tmp_path_factory.mktemp("session-state")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_DISK_CACHE_DIR", str(root / "diskcache"))
        mp.setenv("REPRO_OBS_DIR", str(root / "obs"))
        mp.setenv("REPRO_SERVICE_DIR", str(root / "service"))
        yield root


@pytest.fixture(autouse=True)
def isolated_disk_cache(tmp_path, monkeypatch):
    """Point the run-cache disk tier at a per-test directory.

    The disk tier persists across processes by design, which is exactly
    what tests must not see: an entry left by one test (or an earlier
    suite run) would satisfy a lookup another test expects to miss.  The
    cache resolves its root from the environment on every operation, so
    redirecting the variable is sufficient — no cache object state to
    reset beyond the counters.
    """
    from repro.perf.diskcache import DISK_CACHE

    monkeypatch.setenv("REPRO_DISK_CACHE_DIR", str(tmp_path / "diskcache"))
    monkeypatch.delenv("REPRO_DISK_CACHE", raising=False)
    DISK_CACHE.enable()
    DISK_CACHE.clear()
    yield
    DISK_CACHE.enable()
    DISK_CACHE.clear()


@pytest.fixture(autouse=True)
def isolated_worker_pool():
    """Retire the persistent worker pool between tests.

    The pool deliberately outlives a sweep; across *tests* that warmth
    is a leak — a pool spawned under one test's monkeypatches (or
    before another test breaks pool spawning) would mask the condition
    the next test injects.  Shutdown is a no-op for tests that never
    touched the pool.
    """
    from repro.perf import poold

    poold.shutdown(wait=False)
    yield
    poold.shutdown(wait=False)


@pytest.fixture(autouse=True)
def isolated_obs(tmp_path, monkeypatch):
    """Point the observability layer at a per-test directory.

    The ledger and metrics history are per-checkout state; a record
    appended by one test must never become another test's regression
    baseline.  Also guarantees no recorder leaks across tests.
    """
    from repro.obs import ledger

    monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "obs"))
    monkeypatch.delenv("REPRO_OBS", raising=False)
    yield
    ledger._ACTIVE = None


@pytest.fixture(autouse=True)
def isolated_service(tmp_path, monkeypatch):
    """Point the simulation service at a per-test directory.

    The job journal and result store are durable by design — which is
    exactly the property tests must not share: a job journaled by one
    test would be replayed (or deduped against) by the next test's
    runtime.  Service counters are process-global, so they are reset on
    entry to keep delta assertions honest.
    """
    from repro.service.stats import SERVICE_STATS

    monkeypatch.setenv("REPRO_SERVICE_DIR", str(tmp_path / "service"))
    SERVICE_STATS.reset()
    yield


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_ct():
    return small_corner_turn()


@pytest.fixture
def small_cs():
    return small_cslc()


@pytest.fixture
def small_bs():
    return small_beam_steering()


@pytest.fixture
def small_workloads(small_ct, small_cs, small_bs):
    """Workload overrides keyed the way the experiment registry expects."""
    return {
        "corner_turn": small_ct,
        "cslc": small_cs,
        "beam_steering": small_bs,
    }
