"""Nested wall-time timers and counters for the simulator itself.

The cycle models measure the *modelled* machines; this module measures
the *simulator* — where its own wall-clock time goes — so perf work on
the reproduction has data to stand on.  Usage::

    from repro.perf import timers

    with timers.timer("report"):
        with timers.timer("table3"):
            ...
    timers.count("cache.hit")
    print(timers.render())

Timers nest: a ``timer`` opened inside another accumulates under the
outer one's path ("report/table3" above), so :func:`render` prints an
indented tree with totals, call counts, and self-time.  Accumulation is
keyed per thread-local path but stored globally, so parallel stages
aggregate into one report.  Timers opened on a worker thread (a pool's
thread, not the main thread) attach under a ``worker/<n>`` prefix — one
``n`` per thread, assigned on first use — so a parallel stage's spans
are attributed to their worker instead of silently colliding with the
main thread's open path.

Everything is wall-clock observation only — nothing here may influence
modelled results, and the report CLI prints it to stderr so cached and
uncached runs stay byte-identical on stdout.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Tuple

from repro.trace.telemetry import TELEMETRY

Path = Tuple[str, ...]

_lock = threading.Lock()
_local = threading.local()

#: path -> [total_seconds, calls]
_timings: Dict[Path, list] = {}
#: name -> count
_counters: Dict[str, int] = {}

#: Monotonic worker-thread numbering; never reset, so a long session's
#: prefixes stay unique even across :func:`reset` calls.
_worker_seq = itertools.count()


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = []
        if threading.current_thread() is not threading.main_thread():
            # Seed the thread's root with a stable worker prefix so its
            # timings land under "worker/<n>/..." rather than appearing
            # to be top-level (or colliding with main-thread paths).
            stack.append(f"worker/{next(_worker_seq)}")
        _local.stack = stack
    return stack


@contextmanager
def timer(name: str) -> Iterator[None]:
    """Accumulate the wall time of the enclosed block under ``name``,
    nested inside any currently open timers of this thread."""
    stack = _stack()
    path: Path = tuple(stack) + (name,)
    stack.append(name)
    start = time.perf_counter()
    try:
        yield
    finally:
        elapsed = time.perf_counter() - start
        stack.pop()
        with _lock:
            entry = _timings.setdefault(path, [0.0, 0])
            entry[0] += elapsed
            entry[1] += 1


def count(name: str, n: int = 1) -> None:
    """Increment a named counter by ``n``."""
    with _lock:
        _counters[name] = _counters.get(name, 0) + n


def reset() -> None:
    """Clear all timings and counters (the per-thread nesting stacks of
    other threads are untouched; they rebuild on next use)."""
    with _lock:
        _timings.clear()
        _counters.clear()


def snapshot() -> Dict[str, object]:
    """Timings and counters as plain data (for tests and JSON export)."""
    with _lock:
        return {
            "timings": {
                "/".join(path): {"seconds": entry[0], "calls": entry[1]}
                for path, entry in _timings.items()
            },
            "counters": dict(_counters),
        }


def _telemetry() -> Dict[str, object]:
    """The ``perf.timers`` telemetry source: the snapshot, flattened."""
    snap = snapshot()
    out: Dict[str, object] = {}
    for path, entry in snap["timings"].items():
        out[f"timings.{path}.seconds"] = entry["seconds"]
        out[f"timings.{path}.calls"] = entry["calls"]
    for name, value in snap["counters"].items():
        out[f"counters.{name}"] = value
    return out


TELEMETRY.register("perf.timers", _telemetry)


def render() -> str:
    """Indented tree of timers (children under parents, sorted by total
    time) followed by the counters."""
    with _lock:
        timings = {path: tuple(entry) for path, entry in _timings.items()}
        counters = dict(_counters)
    lines = ["perf timers (wall time):"]
    if not timings:
        lines.append("  (none recorded)")

    # Include synthesized ancestors of every recorded path, so paths
    # whose prefix was never itself timed (a worker thread's
    # "worker/<n>" root, for instance) still render under their parent
    # instead of being silently dropped by the tree walk.
    nodes = set(timings)
    for path in timings:
        for i in range(1, len(path)):
            nodes.add(path[:i])

    totals: Dict[Path, float] = {}

    def children_of(parent: Path):
        kids = [
            p
            for p in nodes
            if len(p) == len(parent) + 1 and p[: len(parent)] == parent
        ]
        return sorted(kids, key=lambda p: -subtree_total(p))

    def subtree_total(path: Path) -> float:
        if path not in totals:
            if path in timings:
                totals[path] = timings[path][0]
            else:
                totals[path] = sum(
                    subtree_total(c) for c in children_of(path)
                )
        return totals[path]

    def walk(parent: Path, depth: int) -> None:
        for path in children_of(parent):
            if path in timings:
                total, calls = timings[path]
                child_total = sum(
                    subtree_total(c) for c in children_of(path)
                )
                self_time = total - child_total
                lines.append(
                    f"  {'  ' * depth}{path[-1]:<32s} "
                    f"{total:8.3f}s  x{calls:<6d} self {self_time:7.3f}s"
                )
            else:
                lines.append(
                    f"  {'  ' * depth}{path[-1]:<32s} "
                    f"{subtree_total(path):8.3f}s  (aggregated)"
                )
            walk(path, depth + 1)

    walk((), 0)
    if counters:
        lines.append("counters:")
        for name in sorted(counters):
            lines.append(f"  {name:<34s} {counters[name]}")
    return "\n".join(lines)
