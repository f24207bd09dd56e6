"""Performance layer: two-tier run caching, planned sweeps, timers.

Orthogonal tools, all invisible to the modelled results:

* :mod:`repro.perf.cache` — tier 1: an in-process content-addressed
  memoization cache, and the tier rule every run path shares
  (:func:`~repro.perf.cache.read_tiers`,
  :func:`~repro.perf.cache.write_tiers`); identical requests are served
  from defensive copies instead of re-simulated.
* :mod:`repro.perf.diskcache` — tier 2: a persistent store
  (:mod:`repro.perf.index`: one append-only record log per model
  version, digest-verified reads, LRU pruning) that shares runs across
  processes — CI jobs, CLI invocations, and pool workers all warm each
  other.
* :mod:`repro.perf.planner` — the sweep planner: collects every cell a
  driver will need, dedups the set by content key, reads both tiers
  once, and dispatches only the misses — serially or in chunked
  process-pool batches under a :class:`repro.resilience.Supervisor`
  (retry/deadline/isolate, with serial degradation only when the pool
  transport itself is unusable — counted, never silent); the CLI's
  ``report --jobs N`` and the sensitivity/scaling sweeps' ``jobs=``
  plumb into it.
* :mod:`repro.perf.tensorsweep` — the tensor engine: batches cells
  that differ only in calibration constants into one structure pass.
* :mod:`repro.perf.timers` — nested wall-time timers for profiling
  the simulator itself (``report --perf``).

Determinism contract: everything in this package must leave modelled
numbers bit-identical — the caches and the planner only change
*when and where* a mapping executes, never what it returns, and the
regression pins plus the cache-correctness tests and differential
oracles (:mod:`repro.check`) enforce that.
"""

#: Re-exported name -> home module.  Resolved lazily through the module
#: ``__getattr__`` below so that ``import repro.perf`` (and with it the
#: CLI front door) stays free of numpy and the modelling stack until a
#: simulation or cache probe actually needs them — the warm/fast-start
#: path depends on this staying lazy.
_EXPORTS = {
    "RUN_CACHE": "repro.perf.cache",
    "RunCache": "repro.perf.cache",
    "cache_key": "repro.perf.cache",
    "model_version_stamp": "repro.perf.cache",
    "DISK_CACHE": "repro.perf.diskcache",
    "PackedDiskCache": "repro.perf.index",
    "RunRequest": "repro.perf.planner",
    "resolve_jobs": "repro.perf.planner",
    "SweepPlan": "repro.perf.planner",
    "execute_requests": "repro.perf.planner",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
