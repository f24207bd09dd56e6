"""Wall-time spans around the public entry points of each layer.

Run as a script, this is a drop-in for ``python -m repro`` that records
where the host time of one op goes::

    python bench/tracer.py SPANS_OUT OP_ID report
    python bench/tracer.py SPANS_OUT OP_ID serve --port 0 --ready-file F

It hooks the import system, and as each target module finishes loading,
replaces the layer's entry points with span-recording wrappers (the table
in :func:`_instrument`).  Nothing under ``src/`` changes, and modules the
program never imports stay unimported: the import layer is measured as
the program would pay for it.  Spans live in memory and are written to
``SPANS_OUT`` as JSON when the process exits.

Imported as a module (by the harness and its tests) it provides the
span self-time arithmetic: a span's self time is its duration minus the
part of that interval its child spans cover.

Only the standard library is used, so the traced child imports nothing
the program would not.
"""

from __future__ import annotations

import atexit
import functools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

#: Span record fields, in the order they are stored and written.
FIELDS = ("name", "start", "end", "parent", "op", "thread", "attrs")


class SpanLog:
    """Spans of one process; the open-span stack is per thread because
    the server runs HTTP handler threads beside its executor thread."""

    def __init__(self, op: str = "") -> None:
        self.op = op
        self.spans: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, op: Optional[str] = None,
             attrs: Optional[Dict[str, Any]] = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None:
            op = self.spans[parent][4] if parent is not None else self.op
        span = [name, 0.0, 0.0, parent, op, threading.get_ident(), attrs]
        with self._lock:
            sid = len(self.spans)
            self.spans.append(span)
        stack.append(sid)
        span[1] = time.perf_counter()
        return sid

    def close(self, sid: int, **attrs: Any) -> None:
        span = self.spans[sid]
        span[2] = time.perf_counter()
        self._stack().pop()
        if attrs:
            span[6] = {**(span[6] or {}), **attrs}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"op": self.op, "spans": self.spans}, fh)


def _thread_rchar() -> int:
    """Bytes this thread has read through read/pread so far."""
    try:
        with open("/proc/thread-self/io", "rb") as fh:
            for line in fh:
                if line.startswith(b"rchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _wrap(log: SpanLog, fn: Callable, name: str,
          op_of: Optional[Callable[..., str]] = None,
          count_reads: bool = False) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = log.open(name, op_of(*args) if op_of else None)
        before = _thread_rchar() if count_reads else 0
        try:
            return fn(*args, **kwargs)
        finally:
            if count_reads:
                log.close(sid, bytes_read=_thread_rchar() - before)
            else:
                log.close(sid)

    return wrapper


def _current_job(*_args) -> Optional[str]:
    """The service job the calling context executes, if any."""
    stats = sys.modules.get("repro.resilience.stats")
    return (stats.current_job() or None) if stats else None


def _instrument(log: SpanLog, name: str, module: Any) -> None:
    """Wrap the entry points of ``module`` (just loaded) in spans."""

    def patch(owner: Any, attr: str, span: str, **kw: Any) -> None:
        setattr(owner, attr, _wrap(log, getattr(owner, attr), span, **kw))

    if name == "repro.perf.index":
        cls = module.PackedDiskCache
        for attr in ("get_many", "lookup"):
            patch(cls, attr, f"perf.index.{attr}", count_reads=True)
        for attr in ("put_many", "insert", "prune"):
            patch(cls, attr, f"perf.index.{attr}")
    elif name == "repro.mappings.registry":
        # The dispatch tables hold the mapping modules' run/run_batch
        # functions; wrapping the table entries times exactly the calls
        # the registry makes.
        for table, suffix in ((module._REGISTRY, ""),
                              (module._BATCH_REGISTRY, ".batch")):
            for (kernel, machine), fn in list(table.items()):
                table[(kernel, machine)] = _wrap(
                    log, fn, f"mappings.{kernel}.{machine}{suffix}"
                )
    elif name == "repro.perf.tensorsweep":
        patch(module, "run_group", "perf.tensorsweep.run_group")
    elif name == "repro.perf.planner":
        patch(module, "execute_requests", "perf.planner.execute_requests")
    elif name == "repro.check":
        patch(module, "validation_section", "check.validation_section")
    elif name == "repro.eval.tables":
        patch(module, "run_table3", "eval.run_table3")
    elif name == "repro.eval.experiments":
        for eid, fn in list(module.EXPERIMENTS.items()):
            module.EXPERIMENTS[eid] = _wrap(log, fn, f"eval.experiment.{eid}")
    elif name == "repro.scenarios.pipeline":
        patch(module, "run_scenarios", "scenarios.run_scenarios")
    elif name == "repro.service.execute":
        patch(module, "execute_job", "service.execute_job", op_of=_current_job)
    elif name == "repro.service.journal":
        patch(module.JobJournal, "append", "service.journal_append",
              op_of=lambda _self, job, *a: job)


def install(log: SpanLog) -> None:
    """Time every module load as an ``import`` span and instrument the
    target modules as they finish loading."""
    import importlib._bootstrap as bootstrap

    original = bootstrap._find_and_load

    def _find_and_load(name, import_):
        sid = log.open("import", attrs={"module": name})
        try:
            module = original(name, import_)
        finally:
            log.close(sid)
        _instrument(log, name, module)
        return module

    bootstrap._find_and_load = _find_and_load


# -- self-time arithmetic -------------------------------------------------


def self_times(spans: Sequence[Sequence[Any]]) -> List[float]:
    """Self time of each span: its duration minus the union of its
    children's intervals, clipped to its own."""
    children: Dict[int, List[int]] = {}
    for i, span in enumerate(spans):
        if span[3] is not None:
            children.setdefault(span[3], []).append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        reach = start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][1]):
            lo = max(spans[c][1], reach)
            hi = min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def main(argv: Sequence[str]) -> int:
    spans_out, op, *args = argv
    log = SpanLog(op)
    atexit.register(log.dump, spans_out)
    # The script's own directory must not shadow anything the program
    # imports; ``python -m repro`` runs with the working directory here.
    sys.path[0] = ""
    install(log)
    sid = log.open("op")
    try:
        from repro.cli import main as repro_main

        return repro_main(list(args))
    finally:
        log.close(sid)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
