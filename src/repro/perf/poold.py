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
  worker receives does not pay the import bill;
* *leased* to one :class:`~repro.resilience.supervisor.Supervisor` at a
  time — the supervisor's recovery ladder still owns failure handling:
  a crashed pool is discarded (and counted) exactly as before, and the
  next lease spawns a fresh one;
* shut down implicitly at process exit (``ProcessPoolExecutor`` joins
  its workers atexit), or explicitly via :func:`shutdown`.

``REPRO_POOL_PERSIST=0`` restores the old spawn-per-sweep behaviour;
re-read on every lease so tests and subprocesses can flip it.  Activity
is counted for the ``perf.pool`` telemetry namespace (``spawns``,
``leases``, ``reuses``, ``discards``, ``workers``) and the pool
lifecycle is recorded in the flight-recorder ledger (``pool.spawn`` /
``pool.discard``).

Request payloads shrink through :func:`intern_requests`: a sweep's
``(kernel, machine, kwargs)`` cells repeat the same few kernel/machine
strings and kwargs shapes, so chunks are sent as an interning table
plus compact ``(kernel_idx, machine_idx, kwargs_delta)`` tuples and
rebuilt worker-side by :func:`expand_requests`.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.trace.telemetry import TELEMETRY

__all__ = [
    "acquire",
    "discard",
    "expand_requests",
    "intern_requests",
    "persistent_enabled",
    "pool_stats",
    "shutdown",
]

_LOCK = threading.Lock()
_POOL = None
_POOL_WORKERS = 0
_PID = os.getpid()

_STATS = {
    "spawns": 0,
    "leases": 0,
    "reuses": 0,
    "discards": 0,
    "workers": 0,
}


def persistent_enabled() -> bool:
    """Whether pool persistence is on (``REPRO_POOL_PERSIST``, default
    on; re-read per call)."""
    return os.environ.get("REPRO_POOL_PERSIST", "1") != "0"


def _warm_worker() -> None:
    """Pool-worker initializer: pay the heavy imports once per worker,
    not once per chunk.  Never raises — a failed preload only means the
    first chunk imports lazily, as it always did."""
    try:
        import repro.calibration  # noqa: F401  (calibration tables)
        from repro.mappings import registry

        registry.available()  # materialise the mapping registry
    except Exception:
        pass


def _count(name: str, n: int = 1) -> None:
    with _LOCK:
        _STATS[name] += n


def pool_stats() -> Dict[str, int]:
    """The ``perf.pool`` telemetry source."""
    with _LOCK:
        out = dict(_STATS)
        out["alive"] = int(_POOL is not None)
        out["persistent"] = int(persistent_enabled())
    return out


TELEMETRY.register("perf.pool", pool_stats)


def acquire(n_jobs: int):
    """A process pool with at least ``n_jobs`` workers.

    Reuses the process-wide pool when persistence is enabled and the
    held pool is wide enough; otherwise spawns.  Exceptions from the
    spawn propagate to the caller (the Supervisor classifies them).
    A forked child never inherits the parent's lease.
    """
    global _POOL, _POOL_WORKERS, _PID
    import concurrent.futures

    with _LOCK:
        if _PID != os.getpid():
            # Forked child: the inherited handle points at the parent's
            # workers; drop it without joining them.
            _POOL = None
            _POOL_WORKERS = 0
            _PID = os.getpid()
        _STATS["leases"] += 1
        if (
            persistent_enabled()
            and _POOL is not None
            and _POOL_WORKERS >= n_jobs
        ):
            _STATS["reuses"] += 1
            return _POOL
    if _POOL is not None:
        # Wrong width or persistence switched off: retire the held pool.
        discard(wait=False)
    pool = concurrent.futures.ProcessPoolExecutor(
        max_workers=n_jobs, initializer=_warm_worker
    )
    _count("spawns")
    with _LOCK:
        _STATS["workers"] = n_jobs
    _record_event("pool.spawn", jobs=n_jobs)
    if persistent_enabled():
        with _LOCK:
            _POOL = pool
            _POOL_WORKERS = n_jobs
    return pool


def release(pool) -> None:
    """Return a leased pool.  Persistent pools stay warm for the next
    sweep; a non-persistent (or foreign) pool is shut down."""
    with _LOCK:
        held = pool is _POOL
    if held and persistent_enabled():
        return
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    with _LOCK:
        if pool is _POOL:
            globals()["_POOL"] = None
            globals()["_POOL_WORKERS"] = 0


def discard(pool=None, wait: bool = False) -> None:
    """Retire a (possibly broken) pool for good.

    The supervisor calls this instead of :func:`release` when the pool
    transport failed — the next :func:`acquire` spawns fresh workers.
    With ``pool=None`` the held persistent pool (if any) is retired.
    """
    global _POOL, _POOL_WORKERS
    with _LOCK:
        target = pool if pool is not None else _POOL
        if target is _POOL and _POOL is not None:
            _POOL = None
            _POOL_WORKERS = 0
    if target is None:
        return
    _count("discards")
    _record_event("pool.discard")
    try:
        target.shutdown(wait=wait, cancel_futures=True)
    except Exception:
        pass


def shutdown(wait: bool = True) -> None:
    """Tear down the persistent pool (tests, clean process exit)."""
    discard(wait=wait)


def _record_event(name: str, **args: Any) -> None:
    try:
        from repro.obs.ledger import record

        record(name, **args)
    except Exception:
        pass


# -- request interning -------------------------------------------------
#
# A sweep chunk repeats the same few kernel and machine names, and its
# kwargs dicts usually share every key except the one being swept.  The
# interned form sends each distinct string once and each kwargs as a
# delta against the chunk's most common kwargs shape, shrinking the
# pickled payload the parent streams to each worker.

#: One sweep cell: (kernel, machine, mapping kwargs).
RunRequest = Tuple[str, str, Dict[str, Any]]

#: Interned chunk: (kernel names, machine names, base kwargs,
#: [(kernel_idx, machine_idx, kwargs_delta, dropped_keys), ...]).
InternedChunk = Tuple[
    List[str], List[str], Dict[str, Any],
    List[Tuple[int, int, Dict[str, Any], Tuple[str, ...]]],
]


def intern_requests(requests: Sequence[RunRequest]) -> InternedChunk:
    """Compact a chunk of run requests for pool transport."""
    kernels: List[str] = []
    machines: List[str] = []
    kernel_idx: Dict[str, int] = {}
    machine_idx: Dict[str, int] = {}

    # The base kwargs: the first request's dict — sweeps perturb one
    # constant at a time, so most cells share everything else with it.
    base: Dict[str, Any] = dict(requests[0][2]) if requests else {}
    cells: List[Tuple[int, int, Dict[str, Any], Tuple[str, ...]]] = []
    for kernel, machine, kwargs in requests:
        ki = kernel_idx.get(kernel)
        if ki is None:
            ki = kernel_idx[kernel] = len(kernels)
            kernels.append(kernel)
        mi = machine_idx.get(machine)
        if mi is None:
            mi = machine_idx[machine] = len(machines)
            machines.append(machine)
        delta = {
            k: v
            for k, v in kwargs.items()
            if k not in base or base[k] is not v and base[k] != v
        }
        dropped = tuple(k for k in base if k not in kwargs)
        cells.append((ki, mi, delta, dropped))
    return kernels, machines, base, cells


def expand_requests(chunk: InternedChunk) -> List[RunRequest]:
    """Rebuild the full request list from its interned form."""
    kernels, machines, base, cells = chunk
    out: List[RunRequest] = []
    for ki, mi, delta, dropped in cells:
        kwargs = dict(base)
        for key in dropped:
            kwargs.pop(key, None)
        kwargs.update(delta)
        out.append((kernels[ki], machines[mi], kwargs))
    return out
