"""Unified metrics registry: one namespaced read/snapshot/export API.

Counters grew up scattered: :mod:`repro.perf.timers` keeps wall-time
trees, :data:`repro.perf.cache.RUN_CACHE` keeps hit/miss/bypass tallies,
machine models keep :class:`repro.sim.stats.Counter` objects, and every
:class:`~repro.arch.base.KernelRun` carries a
:class:`~repro.sim.accounting.CycleBreakdown` ledger.  This module puts
them behind one registry: *sources* (zero-argument callables returning a
flat ``{key: value}`` mapping) register under a dotted namespace, and
:meth:`TelemetryRegistry.snapshot` reads every source into one
``{"namespace.key": value}`` dict — the shape the ``--perf`` output, the
metrics manifest, and the trace ``otherData`` block all consume.

The process-wide :data:`TELEMETRY` registry starts with these sources:

* ``perf.timers`` — the wall-time tree and counters (non-deterministic);
* ``perf.cache`` — memory-tier run-cache entries/hits/misses/bypasses;
* ``perf.diskcache`` — persistent-tier hits/misses/writes/evictions/
  corrupt-entry detections/quarantines/bypasses plus entry and byte
  counts;
* ``perf.index`` — the packed disk-cache index internals: manifest
  refreshes, torn records recovered, compactions, segment census, and
  probe-latency percentiles (see :mod:`repro.perf.index`);
* ``perf.pool`` — persistent worker-pool lifecycle: spawns, leases,
  reuses, discards, current width (see :mod:`repro.perf.poold`);
* ``resilience`` — the supervised executor's recovery ledger (retries,
  degradations, worker crashes, pool restarts, quarantines, broken
  locks — see :mod:`repro.resilience.stats`);
* ``scenario`` — pipeline composition and fuzzing counters (stages run
  per kernel, handoff words/cycles per level, scenarios generated and
  validated — see :mod:`repro.scenarios.stats`);
* ``trace`` — the active tracer's counters and event census (empty when
  tracing is off);
* ``obs`` — the flight recorder's event census (session id, events
  recorded by kind, write errors — empty when no recorder is active,
  see :mod:`repro.obs.ledger`);
* ``service`` — the job runtime's admission/lifecycle tallies
  (submitted, admitted, deduped, rejections by rung, completions,
  replays, drains — see :mod:`repro.service.stats`).

Sources are read lazily at snapshot time, so registration costs nothing
until someone asks, and a broken source reports its error under
``<namespace>.error`` instead of killing the snapshot.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, Mapping, Tuple

from repro.trace.tracer import active_tracer

#: A telemetry source: () -> flat mapping of key -> scalar.
Source = Callable[[], Mapping[str, Any]]


class TelemetryRegistry:
    """Named telemetry sources with a namespaced snapshot API."""

    def __init__(self) -> None:
        self._sources: "OrderedDict[str, Source]" = OrderedDict()
        self._lock = threading.Lock()

    def register(
        self, namespace: str, source: Source, *, replace: bool = False
    ) -> None:
        """Register ``source`` under ``namespace`` (dotted, non-empty).

        Re-registering an existing namespace requires ``replace=True`` so
        two subsystems cannot silently fight over a name.
        """
        if not namespace or namespace.strip(".") != namespace:
            raise ValueError(f"invalid telemetry namespace {namespace!r}")
        with self._lock:
            if namespace in self._sources and not replace:
                raise ValueError(
                    f"telemetry namespace {namespace!r} already registered"
                )
            self._sources[namespace] = source

    def unregister(self, namespace: str) -> None:
        with self._lock:
            self._sources.pop(namespace, None)

    def namespaces(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(self._sources)

    @contextmanager
    def scoped(self, namespace: str, source: Source) -> Iterator[None]:
        """Register ``source`` for the duration of the context only.

        Exit removes exactly the source it installed: if the namespace
        was unregistered mid-scope, or replaced via
        ``register(..., replace=True)``, the other party's change is
        left alone instead of being clobbered by this context's exit.
        """
        self.register(namespace, source)
        try:
            yield
        finally:
            with self._lock:
                if self._sources.get(namespace) is source:
                    del self._sources[namespace]

    def snapshot(self) -> Dict[str, Any]:
        """All sources flattened to one ``{"namespace.key": value}`` dict.

        A source that raises contributes ``<namespace>.error`` with the
        exception text; telemetry must never take down the run it
        observes.
        """
        with self._lock:
            sources = list(self._sources.items())
        out: Dict[str, Any] = {}
        for namespace, source in sources:
            try:
                values = source()
            except Exception as exc:  # noqa: BLE001 - observation only
                out[f"{namespace}.error"] = f"{type(exc).__name__}: {exc}"
                continue
            for key, value in values.items():
                out[f"{namespace}.{key}"] = value
        return out

    def read(self, name: str) -> Any:
        """One metric by its full dotted name (raises ``KeyError``)."""
        return self.snapshot()[name]

    def export_json(self, indent: int = 2) -> str:
        """The snapshot as stable (sorted-key) JSON text."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def render(self) -> str:
        """Aligned ``name value`` lines, sorted, for the ``--perf`` view.

        Total-emptiness is reported precisely: an empty *registry* reads
        differently from registered sources that currently have nothing
        to say (every source returned an empty mapping).
        """
        snap = self.snapshot()
        if not snap:
            if not self.namespaces():
                return "telemetry: (no sources registered)"
            return "telemetry: (no values)"
        width = max(len(name) for name in snap)
        lines = ["telemetry:"]
        for name in sorted(snap):
            lines.append(f"  {name:<{width}s}  {snap[name]}")
        return "\n".join(lines)


def counter_source(counter: Any) -> Source:
    """Adapt a :class:`repro.sim.stats.Counter` into a telemetry source
    (per-label tallies plus the total)."""

    def read() -> Dict[str, Any]:
        values = {str(k): v for k, v in counter.as_dict().items()}
        values["total"] = counter.total
        return values

    return read


def breakdown_source(breakdown: Any) -> Source:
    """Adapt a :class:`repro.sim.accounting.CycleBreakdown` ledger into a
    telemetry source (per-category cycles plus the total)."""

    def read() -> Dict[str, Any]:
        values = {str(k): v for k, v in breakdown.items()}
        values["total"] = breakdown.total
        return values

    return read


def _timers_source() -> Dict[str, Any]:
    from repro.perf import timers

    snap = timers.snapshot()
    out: Dict[str, Any] = {}
    for path, entry in snap["timings"].items():
        out[f"timings.{path}.seconds"] = entry["seconds"]
        out[f"timings.{path}.calls"] = entry["calls"]
    for name, value in snap["counters"].items():
        out[f"counters.{name}"] = value
    return out


def _run_cache_source() -> Dict[str, Any]:
    from repro.perf.cache import RUN_CACHE

    return dict(RUN_CACHE.stats())


def _disk_cache_source() -> Dict[str, Any]:
    from repro.perf.diskcache import DISK_CACHE

    return dict(DISK_CACHE.stats())


def _tensor_source() -> Dict[str, Any]:
    from repro.perf.tensorsweep import TENSOR_STATS

    return dict(TENSOR_STATS.stats())


def _pool_source() -> Dict[str, Any]:
    from repro.perf import poold

    return dict(poold.pool_stats())


def _index_source() -> Dict[str, Any]:
    from repro.perf.diskcache import DISK_CACHE

    return dict(DISK_CACHE.index_stats())


def _resilience_source() -> Dict[str, Any]:
    from repro.resilience.stats import RESILIENCE

    return dict(RESILIENCE.snapshot())


def _scenario_source() -> Dict[str, Any]:
    from repro.scenarios.stats import SCENARIO_STATS

    return dict(SCENARIO_STATS.snapshot())


def _trace_source() -> Dict[str, Any]:
    tracer = active_tracer()
    if tracer is None:
        return {}
    out: Dict[str, Any] = dict(tracer.counters)
    out["events"] = tracer.n_events
    return out


def _obs_source() -> Dict[str, Any]:
    from repro.obs.ledger import _obs_telemetry_source

    return _obs_telemetry_source()


def _service_source() -> Dict[str, Any]:
    from repro.service.stats import SERVICE_STATS

    return dict(SERVICE_STATS.snapshot())


#: The process-wide registry with the default sources installed.
TELEMETRY = TelemetryRegistry()
TELEMETRY.register("perf.timers", _timers_source)
TELEMETRY.register("perf.cache", _run_cache_source)
TELEMETRY.register("perf.diskcache", _disk_cache_source)
TELEMETRY.register("perf.index", _index_source)
TELEMETRY.register("perf.pool", _pool_source)
TELEMETRY.register("perf.tensor", _tensor_source)
TELEMETRY.register("resilience", _resilience_source)
TELEMETRY.register("scenario", _scenario_source)
TELEMETRY.register("trace", _trace_source)
TELEMETRY.register("obs", _obs_source)
TELEMETRY.register("service", _service_source)
