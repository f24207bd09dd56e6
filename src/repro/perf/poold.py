"""Persistent worker pool: spawn once, reuse across sweeps.

Every supervised sweep used to spawn a fresh
:class:`~concurrent.futures.ProcessPoolExecutor` and tear it down in the
``Supervisor.run`` epilogue — for a report that dispatches several
sweeps, most of the parallel wall-clock went to process startup and
interpreter warm-up, not simulation (the same fixed-cost lesson the PrIM
measurements draw for host↔accelerator dispatch).  This module keeps
**one pool per process**:

* lazily spawned on first use, with an initializer that preloads the
  calibration tables and the mapping registry so the first chunk a
  worker receives does not pay the import bill, and turns the worker's
  tier 1 and timing memo off (the parent holds what workers return);
* *leased* to one :class:`~repro.resilience.supervisor.Supervisor` at a
  time — the supervisor's recovery ladder still owns failure handling:
  a crashed pool is discarded (and counted) exactly as before, and the
  next lease spawns a fresh one;
* shut down implicitly at process exit (``ProcessPoolExecutor`` joins
  its workers atexit), or explicitly via :func:`shutdown`.

Activity is counted in :data:`POOL_STATS` (``spawns``, ``leases``,
``reuses``, ``discards``), which the ``perf.pool`` telemetry namespace
reports with the held pool's ``alive`` and ``workers``, and the pool
lifecycle is recorded in the flight-recorder ledger (``pool.spawn`` /
``pool.discard``).  A worker records nothing itself: its initializer
drops the ledger state it inherits from the parent.
"""

from __future__ import annotations

import os
import threading
from typing import Dict

from repro.obs.ledger import drop_inherited, record
from repro.trace.telemetry import TELEMETRY, Counters

__all__ = [
    "POOL_STATS",
    "acquire",
    "discard",
    "pool_stats",
    "shutdown",
]

_LOCK = threading.Lock()
_POOL = None
_POOL_WORKERS = 0
_PID = os.getpid()

#: Pool lifecycle counts, kept in the parent.
POOL_STATS = Counters("perf.pool", ("spawns", "leases", "reuses", "discards"))


def _warm_worker() -> None:
    """Pool-worker initializer: forget the parent's ledger state, turn
    tier 1 (and with it the timing memo) off and empty it, then pay the
    heavy imports once per worker, not once per chunk.  Nothing in a
    worker reads tier 1: the parent answers repeats and stores what its
    workers return.  Never raises — a failed preload only means the
    first chunk imports lazily, as it always did."""
    drop_inherited()
    try:
        import repro.calibration  # noqa: F401  (calibration tables)
        from repro.mappings import registry
        from repro.perf.cache import RUN_CACHE

        RUN_CACHE.disable()
        RUN_CACHE.clear()
        registry.available()  # materialise the mapping registry
    except Exception:
        pass


def pool_stats() -> Dict[str, int]:
    """The ``perf.pool`` telemetry source: the counts, plus whether a
    pool is held and how wide it is."""
    with _LOCK:
        held = {"alive": int(_POOL is not None), "workers": _POOL_WORKERS}
    return {**POOL_STATS.snapshot(), **held}


TELEMETRY.register("perf.pool", pool_stats)


def acquire(n_jobs: int):
    """A process pool with at least ``n_jobs`` workers.

    Reuses the process-wide pool when the held pool is wide enough;
    otherwise spawns one and holds it.  Exceptions from the spawn
    propagate to the caller (the Supervisor classifies them).  A forked
    child never inherits the parent's lease.
    """
    global _POOL, _POOL_WORKERS, _PID
    import concurrent.futures

    POOL_STATS.note("leases")
    with _LOCK:
        if _PID != os.getpid():
            # Forked child: the inherited handle points at the parent's
            # workers; drop it without joining them.
            _POOL = None
            _POOL_WORKERS = 0
            _PID = os.getpid()
        if _POOL is not None and _POOL_WORKERS >= n_jobs:
            POOL_STATS.note("reuses")
            return _POOL
    if _POOL is not None:
        # Too narrow: retire the held pool.
        discard(wait=False)
    pool = concurrent.futures.ProcessPoolExecutor(
        max_workers=n_jobs, initializer=_warm_worker
    )
    POOL_STATS.note("spawns")
    record("pool.spawn", jobs=n_jobs)
    with _LOCK:
        _POOL = pool
        _POOL_WORKERS = n_jobs
    return pool


def release(pool) -> None:
    """Return a leased pool.  The held pool stays warm for the next
    sweep; one retired while it was leased is shut down."""
    with _LOCK:
        if pool is _POOL:
            return
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass


def discard(pool=None, wait: bool = False) -> None:
    """Retire a (possibly broken) pool for good.

    The supervisor calls this instead of :func:`release` when the pool
    transport failed — the next :func:`acquire` spawns fresh workers.
    With ``pool=None`` the held pool (if any) is retired.
    """
    global _POOL, _POOL_WORKERS
    with _LOCK:
        target = pool if pool is not None else _POOL
        if target is _POOL and _POOL is not None:
            _POOL = None
            _POOL_WORKERS = 0
    if target is None:
        return
    POOL_STATS.note("discards")
    record("pool.discard")
    try:
        target.shutdown(wait=wait, cancel_futures=True)
    except Exception:
        pass


def shutdown(wait: bool = True) -> None:
    """Tear down the held pool (tests, clean process exit)."""
    discard(wait=wait)

