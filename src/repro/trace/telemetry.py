"""Unified metrics registry: one namespaced snapshot of every tally.

*Sources* (zero-argument callables returning a flat ``{key: value}``
mapping) register under a dotted namespace, and
:meth:`TelemetryRegistry.snapshot` reads every source into one
``{"namespace.key": value}`` dict — the shape the ``--perf`` output, the
metrics-history record, and the benchmark's per-layer counts consume.

Each owner registers its source beside the singleton it reads, so a
namespace appears once its owner is imported and a snapshot never
imports anything.  The namespaces and their owners:

* ``perf.timers`` — the wall-time tree, flattened
  (:mod:`repro.perf.timers`; non-deterministic);
* ``perf.timers.counters.planner`` — the planner's request partition,
  one count per ``sweep.plan`` field (:mod:`repro.perf.planner`; the
  name is the one these counts had when the timers kept them);
* ``perf.cache`` — memory-tier run-cache entries/hits/misses/bypasses
  (:mod:`repro.perf.cache`);
* ``perf.timing`` — the timing memo's hits/misses/entries
  (:mod:`repro.perf.cache`);
* ``perf.diskcache`` and ``perf.index`` — the persistent tier's
  hits/misses/writes/evictions/corrupt-entry detections/quarantines/
  bypasses, and its log's shape (:mod:`repro.perf.diskcache`);
* ``perf.pool`` — persistent worker-pool lifecycle
  (:mod:`repro.perf.poold`);
* ``perf.tensor`` — tensor-engine batches and fallbacks
  (:mod:`repro.perf.tensorsweep`);
* ``resilience`` — the supervisor's and disk tier's recovery actions
  (:mod:`repro.resilience.stats`);
* ``scenario`` — pipeline composition and fuzzing
  (:mod:`repro.scenarios.stats`);
* ``service`` — the job runtime's admission/lifecycle tallies
  (:mod:`repro.service.stats`);
* ``obs`` — the active flight recorder's event census
  (:mod:`repro.obs.ledger`);
* ``trace`` — the active tracer's counters and event census (this
  module; empty when tracing is off).

The tallies the program keeps for itself (the planner's, ``perf.pool``,
``perf.tensor``, ``perf.timing``, ``resilience``, ``scenario``,
``service``, and the disk store's counts behind ``perf.diskcache``)
are :class:`Counters`.
A source that raises reports ``<namespace>.error`` instead of killing
the snapshot.
"""

from __future__ import annotations

import contextvars
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import (
    Any, Callable, Dict, Iterator, Mapping, Sequence, Tuple, Union,
)

from repro.trace.tracer import active_tracer

#: A telemetry source: () -> flat mapping of key -> scalar.
Source = Callable[[], Mapping[str, Any]]


class TelemetryRegistry:
    """Named telemetry sources with a namespaced snapshot API."""

    def __init__(self) -> None:
        self._sources: "OrderedDict[str, Source]" = OrderedDict()
        self._lock = threading.Lock()

    def register(self, namespace: str, source: Source) -> None:
        """Register ``source`` under ``namespace`` (dotted, non-empty).

        Registering a namespace twice raises, so two subsystems cannot
        silently fight over a name.
        """
        if not namespace or namespace.strip(".") != namespace:
            raise ValueError(f"invalid telemetry namespace {namespace!r}")
        with self._lock:
            if namespace in self._sources:
                raise ValueError(
                    f"telemetry namespace {namespace!r} already registered"
                )
            self._sources[namespace] = source

    def namespaces(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(self._sources)

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


#: A set of counts by name.
Tally = Dict[str, Union[int, float]]

#: The tallies of the :meth:`Counters.scoped` blocks the current
#: context is inside, by owner.  Context-local, so a scope on one
#: thread never hides another thread's counts.
_SCOPES: contextvars.ContextVar[Mapping["Counters", Tally]] = (
    contextvars.ContextVar("repro_counter_scopes", default={})
)


class Counters:
    """Thread-safe named tallies under one telemetry namespace.

    Declared ``names`` start at 0, so a snapshot always carries every
    key (a zero is information: "no degradations" is exactly what the
    chaos acceptance check asserts).  :meth:`note` also accepts an
    undeclared name, for per-kernel and per-level tallies, and mirrors
    every increment onto the active tracer as ``<namespace>.<name>``.

    :meth:`scoped` gives the code inside it a fresh tally, which is how
    a staged experiment (:func:`repro.obs.ledger.recording`) counts its
    own events without adding them to the process's, and how a pool
    worker collects one chunk's counts for :meth:`tally` to hand to the
    parent's :meth:`add`.
    Constructing an instance registers nothing; the
    owner registers its singleton's :meth:`snapshot` with
    :data:`TELEMETRY`.
    """

    def __init__(self, namespace: str, names: Sequence[str]) -> None:
        self.namespace = namespace
        self.names = tuple(names)
        self._lock = threading.Lock()
        self._live: Tally = dict.fromkeys(self.names, 0)

    def _tally(self) -> Tally:
        return _SCOPES.get().get(self, self._live)

    def note(self, name: str, n: Union[int, float] = 1) -> None:
        """Add ``n`` to ``name`` (and to the active tracer's
        ``<namespace>.<name>`` counter, if tracing)."""
        with self._lock:
            counts = self._tally()
            counts[name] = counts.get(name, 0) + n
        tracer = active_tracer()
        if tracer is not None:
            tracer.count(f"{self.namespace}.{name}", n)

    def get(self, name: str) -> Union[int, float]:
        with self._lock:
            return self._tally().get(name, 0)

    def snapshot(self) -> Dict[str, Any]:
        """Every count, the telemetry-source shape."""
        with self._lock:
            return dict(self._tally())

    def reset(self) -> None:
        """Zero the tally the calling context sees."""
        with self._lock:
            counts = self._tally()
            counts.clear()
            counts.update(dict.fromkeys(self.names, 0))

    def tally(self) -> Tally:
        """A copy of the counts the calling context sees: what a pool
        worker hands back with its chunk's results."""
        with self._lock:
            return dict(self._tally())

    def add(self, counts: Mapping[str, Union[int, float]]) -> None:
        """Add counts taken elsewhere (a pool worker's chunk, a planned
        sweep) to the tally the calling context sees, mirroring them
        onto the tracer as :meth:`note` does."""
        with self._lock:
            tally = self._tally()
            for name, n in counts.items():
                tally[name] = tally.get(name, 0) + n
        tracer = active_tracer()
        if tracer is not None:
            for name, n in counts.items():
                if n:
                    tracer.count(f"{self.namespace}.{name}", n)

    def render(self) -> str:
        """Aligned ``<namespace>.<name> value`` lines for ``--perf``."""
        snap = self.snapshot()
        width = max(map(len, snap), default=0) + len(self.namespace) + 1
        lines = [f"{self.namespace}:"]
        for name in sorted(snap):
            label = f"{self.namespace}.{name}"
            lines.append(f"  {label:<{width}s}  {snap[name]}")
        return "\n".join(lines)

    @contextmanager
    def scoped(self) -> Iterator["Counters"]:
        """Count the block's events in a fresh tally.

        Inside, every read and write from this context sees a tally
        that starts at zero; other threads keep counting into the live
        one.  On exit, even by an exception, the live tally is exactly
        as it was.
        """
        token = _SCOPES.set(
            {**_SCOPES.get(), self: dict.fromkeys(self.names, 0)}
        )
        try:
            yield self
        finally:
            _SCOPES.reset(token)


def _trace_source() -> Dict[str, Any]:
    tracer = active_tracer()
    if tracer is None:
        return {}
    out: Dict[str, Any] = dict(tracer.counters)
    out["events"] = tracer.n_events
    return out


#: The process-wide registry; owners add their sources at import.
TELEMETRY = TelemetryRegistry()
TELEMETRY.register("trace", _trace_source)
