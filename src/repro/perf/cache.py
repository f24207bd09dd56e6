"""Content-addressed memoization cache for kernel runs.

Every mapping in this library is a *pure function* of its arguments: the
machine models are constructed fresh inside each ``run``, the functional
matrices come from seeded generators, and no global state leaks in.
That determinism is what makes memoization safe — two calls with equal
``(kernel, machine, kwargs)`` return value-identical :class:`KernelRun`
records, so the second can be served from a cache.

The key is a content hash (:func:`cache_key`) over a canonical encoding
of the arguments: frozen dataclasses (workloads, calibrations) hash by
type and field values, numpy arrays by dtype/shape/bytes, containers
element-wise.  Arguments the encoder does not recognise make the call
*uncacheable* — it runs normally and is counted as a bypass, never an
error.

Both tiers hold runs in their *cached form* (:func:`cached_form`): the
functional ``output`` array, already checked against its reference by
the mapping, is replaced by its ``output_digest``.  A cached run is
about 1 KB where the array alone can be 16 MB, and the differential
oracles compare digests.  A cache-enabled call returns the cached form
on a hit and on a miss alike; ``run(..., cache=False)`` returns the
array.

Returned runs are defensively independent: the cache stores and serves
deep copies, so mutating a result (its ``metrics`` dict, its
``breakdown``) can never corrupt later hits.

``repro.mappings.registry.run`` consults the process-wide
:data:`RUN_CACHE`; disable it globally with ``RUN_CACHE.disable()`` or
the ``REPRO_RUN_CACHE=0`` environment variable, or per call with
``run(..., cache=False)`` (the opt-out for deliberately stateful or
experimental mappings).
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import os
import threading
from collections import OrderedDict
from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from repro.trace.tracer import active_tracer


class _Uncacheable(Exception):
    """Internal: an argument has no canonical encoding."""


def _encode(obj: Any, parts: List[bytes]) -> None:
    """Append a canonical byte encoding of ``obj`` to ``parts``.

    The encoding is injective across the supported types (every value is
    tagged with its type) and stable across processes and sessions — no
    ``id()``, no ``hash()``, no dict iteration order.
    """
    if obj is None or isinstance(obj, (bool, int)):
        parts.append(f"{type(obj).__name__}:{obj!r};".encode())
    elif isinstance(obj, float):
        # repr round-trips doubles exactly.
        parts.append(f"float:{obj!r};".encode())
    elif isinstance(obj, str):
        parts.append(f"str:{len(obj)}:".encode() + obj.encode() + b";")
    elif isinstance(obj, bytes):
        parts.append(f"bytes:{len(obj)}:".encode() + obj + b";")
    elif isinstance(obj, np.generic):
        _encode(obj.item(), parts)
    elif isinstance(obj, np.ndarray):
        parts.append(
            f"ndarray:{obj.dtype.str}:{obj.shape}:".encode()
            + hashlib.sha256(np.ascontiguousarray(obj).tobytes()).digest()
        )
    elif isinstance(obj, (tuple, list)):
        parts.append(f"{type(obj).__name__}[{len(obj)}](".encode())
        for item in obj:
            _encode(item, parts)
        parts.append(b")")
    elif isinstance(obj, Mapping):
        try:
            items = sorted(obj.items())
        except TypeError as exc:
            raise _Uncacheable(f"unsortable mapping keys in {obj!r}") from exc
        parts.append(f"map[{len(items)}](".encode())
        for key, value in items:
            _encode(key, parts)
            _encode(value, parts)
        parts.append(b")")
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        cls = type(obj)
        parts.append(f"dc:{cls.__module__}.{cls.__qualname__}(".encode())
        for field in dataclasses.fields(obj):
            parts.append(field.name.encode() + b"=")
            _encode(getattr(obj, field.name), parts)
        parts.append(b")")
    else:
        raise _Uncacheable(f"no canonical encoding for {type(obj)!r}")


#: Lazily computed digest of everything that can change a modelled
#: number without appearing in the run arguments (see
#: :func:`model_version_stamp`).
_VERSION_STAMP: Optional[str] = None


def _source_digest() -> bytes:
    """sha256 over every ``.py`` file of the ``repro`` package, taken in
    sorted order of the path relative to the package: each file adds
    that path, its size and its bytes."""
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__))
    files = []
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, root).replace(os.sep, "/")
                files.append((rel, path))
    digest = hashlib.sha256()
    for rel, path in sorted(files):
        with open(path, "rb") as handle:
            data = handle.read()
        digest.update(f"{rel}:{len(data)}:".encode())
        digest.update(data)
    return digest.digest()


def model_version_stamp() -> str:
    """Digest of the library version, the default calibration and the
    package source.

    Folded into every :func:`cache_key` (and used by the disk tier as
    its entry namespace) so that a modeling change — a version bump, a
    retuned default constant, an edited model — invalidates every
    previously persisted entry instead of silently serving stale
    results.  Computed once per process.
    """
    global _VERSION_STAMP
    if _VERSION_STAMP is None:
        import repro
        from repro.calibration import DEFAULT_CALIBRATION

        parts: List[bytes] = [f"version={repro.__version__};".encode()]
        _encode(DEFAULT_CALIBRATION, parts)
        parts.append(b"source=" + _source_digest())
        _VERSION_STAMP = hashlib.sha256(b"".join(parts)).hexdigest()[:16]
    return _VERSION_STAMP


def reset_model_version_stamp() -> None:
    """Drop the memoized stamp so the next call recomputes it (tests
    monkeypatching ``repro.__version__`` or the default calibration)."""
    global _VERSION_STAMP
    _VERSION_STAMP = None


def cache_key(
    kernel: str, machine: str, kwargs: Mapping[str, Any]
) -> Optional[str]:
    """Stable content hash of one run request, or ``None`` if any
    argument is uncacheable (caller should bypass the cache).  The hash
    covers the model version stamp, so keys minted before a modeling
    change can never collide with keys minted after it."""
    parts: List[bytes] = [
        f"{model_version_stamp()}|{kernel}|{machine}|".encode()
    ]
    try:
        _encode(dict(kwargs), parts)
    except _Uncacheable:
        return None
    return hashlib.sha256(b"".join(parts)).hexdigest()


def content_digest(obj: Any) -> Optional[str]:
    """Stable content hash of any cache-encodable value, or ``None``.

    Uses the same canonical encoding as :func:`cache_key` but *without*
    the model version stamp: the digest names the value itself (a
    scenario, a workload bundle), not a memoized model output, so it
    must survive calibration retunes and version bumps.  Scenario IDs
    (:mod:`repro.scenarios`) are built on this.
    """
    parts: List[bytes] = [b"content|"]
    try:
        _encode(obj, parts)
    except _Uncacheable:
        return None
    return hashlib.sha256(b"".join(parts)).hexdigest()


def cached_form(run: Any, digest: Optional[str] = None) -> Any:
    """``run`` as both cache tiers hold it: a shallow copy with
    ``output=None`` and ``output_digest`` set to the
    :func:`content_digest` of the dropped array.

    ``digest``, when given, is the output's digest already computed by
    the caller (the cells of one tensor batch share one output array).
    A value without an output array — a run already in cached form, or
    not a run at all — is returned unchanged.
    """
    output = getattr(run, "output", None)
    if output is None:
        return run
    form = copy.copy(run)
    form.output = None
    form.output_digest = digest or content_digest(output)
    return form


class RunCache:
    """Keyed store of completed runs with hit/miss/bypass counters.

    Entries are kept in LRU order and bounded by ``max_entries`` so a
    long sweep session cannot grow memory without bound.  All operations
    are lock-protected (the sweep executor's serial fallback may be
    driven from threads).
    """

    def __init__(self, enabled: bool = True, max_entries: int = 256) -> None:
        self._store: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._enabled = bool(enabled)
        self.max_entries = int(max_entries)
        self.hits = 0
        self.misses = 0
        self.bypasses = 0

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def __len__(self) -> int:
        return len(self._store)

    def note_bypass(self) -> None:
        """Record one deliberately uncached run."""
        with self._lock:
            self.bypasses += 1
        tracer = active_tracer()
        if tracer is not None:
            tracer.count("perf.cache.bypass")

    def lookup(self, key: str) -> Optional[Any]:
        """An independent copy of the cached run, or ``None`` (counted
        as a hit or miss respectively)."""
        with self._lock:
            try:
                value = self._store[key]
            except KeyError:
                self.misses += 1
                hit = False
            else:
                self._store.move_to_end(key)
                self.hits += 1
                hit = True
        tracer = active_tracer()
        if tracer is not None:
            tracer.count("perf.cache.hit" if hit else "perf.cache.miss")
        if not hit:
            return None
        return copy.deepcopy(value)

    def insert(self, key: str, value: Any) -> None:
        """Store an independent copy of ``value``'s
        :func:`cached_form` under ``key``."""
        value = copy.deepcopy(cached_form(value))
        with self._lock:
            self._store[key] = value
            self._store.move_to_end(key)
            while len(self._store) > self.max_entries:
                self._store.popitem(last=False)

    def keys(self) -> List[str]:
        """The stored keys, oldest first (LRU order)."""
        with self._lock:
            return list(self._store)

    def evict(self, key: str) -> bool:
        """Drop one entry (counters untouched); returns whether it was
        present.  The disk-tier oracle uses this to force its next
        lookup through tier 2."""
        with self._lock:
            return self._store.pop(key, None) is not None

    def tamper(self, key: str, mutate) -> bool:
        """Apply ``mutate`` to the stored value under ``key``, in place.

        Returns whether the key was present.  This deliberately bypasses
        the defensive-copy discipline of :meth:`insert`/:meth:`lookup`:
        it exists so ``repro.check.faults`` can corrupt an entry and
        prove the cache-vs-cold differential oracle notices.  Production
        code has no business calling it.
        """
        with self._lock:
            if key not in self._store:
                return False
            mutate(self._store[key])
            return True

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        with self._lock:
            self._store.clear()
            self.hits = 0
            self.misses = 0
            self.bypasses = 0

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._store),
            "hits": self.hits,
            "misses": self.misses,
            "bypasses": self.bypasses,
        }

    def format_stats(self) -> str:
        s = self.stats()
        return (
            f"run cache: {s['hits']} hits, {s['misses']} misses, "
            f"{s['bypasses']} bypasses, {s['entries']} entries"
        )


#: Process-wide cache consulted by :func:`repro.mappings.registry.run`.
RUN_CACHE = RunCache(
    enabled=os.environ.get("REPRO_RUN_CACHE", "1") != "0"
)
