"""The flight recorder: an append-only JSONL event ledger per session.

One CLI invocation = one *session* = one ledger file at
``<obs root>/ledger/<session>.jsonl``.  Every event is a single JSON
line::

    {"session": "a1b2c3d4e5f6", "seq": 7, "kind": "planner.dispatch",
     "ts": 1736264400.123, "payload": {"unit": "batch", "cells": 96}}

* ``session`` — a **content-addressed** id: the sha256 (truncated to 12
  hex digits) over the command name, its argv, the model version stamp,
  the pid, and the session start time, so two sessions can never share
  a ledger file and the id itself witnesses what was run;
* ``seq`` — a per-session monotonic sequence number starting at 0; a
  gap or repeat is evidence of a lost or duplicated event and the
  ``invariant.obs.*`` checks treat it as corruption;
* ``kind`` — a dotted event name (``session.start``, ``sweep.plan``,
  ``planner.dispatch``, ``supervisor.retry``, ``chaos.injection``,
  ``pipeline.run`` ...);
* ``payload`` — the structured event body; supervisor events carry the
  *same* payload objects the supervisor mirrors onto the tracer, so the
  chaos tests can compare them byte-for-byte.

Recording is opt-in and zero-overhead when off, exactly like the
tracer: instrumentation sites call the module-level :func:`record`,
which is a no-op unless a recorder is installed (a CLI session is
active or a test opened :func:`recording`).  Pool *workers* never
install a recorder — the parent records the dispatch decisions, the
workers just compute — so a parallel sweep writes one ledger, not five.

Durability: each event is appended with a single ``O_APPEND`` write
(:func:`repro.ioutil.append_jsonl`), so concurrent appenders cannot
interleave within a line and a crash can tear at most the final line —
which :func:`read_ledger` quarantines instead of trusting.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.ioutil import append_jsonl
from repro.trace.telemetry import TELEMETRY

__all__ = [
    "FlightRecorder",
    "current_recorder",
    "end_session",
    "obs_enabled",
    "obs_root",
    "read_ledger",
    "record",
    "recording",
    "session_id",
    "start_session",
]

#: Ledger format version, stamped on every ``session.start`` event.
LEDGER_SCHEMA = 1


def obs_enabled() -> bool:
    """``False`` when ``REPRO_OBS=0`` disables the whole layer."""
    return os.environ.get("REPRO_OBS", "1") not in ("0", "false", "no")


def obs_root() -> Path:
    """The observability state directory.

    ``$REPRO_OBS_DIR`` when set, else ``.repro/obs`` under the current
    working directory (the ledger is an artifact of *this checkout's*
    runs, unlike the machine-wide disk cache).
    """
    env = os.environ.get("REPRO_OBS_DIR")
    if env:
        return Path(env)
    return Path(".repro") / "obs"


def session_id(
    command: str,
    argv: Sequence[str],
    *,
    pid: Optional[int] = None,
    started: Optional[float] = None,
) -> str:
    """Content-addressed session id (12 hex digits).

    Hashes what identifies the session — command, argv, model version,
    pid, start time — so ids are unique across concurrent processes and
    re-runs while remaining derivable from the session's own content.
    """
    from repro.perf.cache import model_version_stamp

    pid = os.getpid() if pid is None else pid
    started = time.time() if started is None else started
    text = "|".join(
        [
            model_version_stamp(),
            command,
            json.dumps(list(argv)),
            str(pid),
            f"{started:.6f}",
        ]
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


class FlightRecorder:
    """Append-only event recorder for one session.

    ``path=None`` keeps events in memory only (tests, the invariant
    checks); otherwise every event is appended to the ledger file as it
    is recorded.  Thread-safe: the sequence counter and the append are
    taken under one lock, so ``seq`` order equals file order.
    """

    def __init__(
        self,
        session: str,
        path: Optional[Path] = None,
        *,
        command: str = "",
    ) -> None:
        self.session = session
        self.command = command
        self.path = Path(path) if path is not None else None
        self.started = time.time()
        self._seq = 0
        self._lock = threading.Lock()
        self._events: List[Dict[str, Any]] = []
        self._counts: Dict[str, int] = {}
        self._errors = 0

    def record(self, kind: str, **payload: Any) -> Dict[str, Any]:
        """Append one event; returns the event dict (with seq filled)."""
        with self._lock:
            event: Dict[str, Any] = {
                "session": self.session,
                "seq": self._seq,
                "kind": kind,
                "ts": time.time(),
                "payload": payload,
            }
            self._seq += 1
            self._events.append(event)
            self._counts[kind] = self._counts.get(kind, 0) + 1
            if self.path is not None:
                try:
                    append_jsonl(self.path, event)
                except OSError:
                    # The recorder observes; it must never take down the
                    # run it observes.  Count the miss so doctor can see.
                    self._errors += 1
        return event

    # -- reading ---------------------------------------------------------

    @property
    def events(self) -> Tuple[Dict[str, Any], ...]:
        with self._lock:
            return tuple(dict(e) for e in self._events)

    @property
    def n_events(self) -> int:
        with self._lock:
            return self._seq

    @property
    def write_errors(self) -> int:
        with self._lock:
            return self._errors

    def counts(self) -> Dict[str, int]:
        """Events recorded so far, tallied by kind."""
        with self._lock:
            return dict(self._counts)

    def events_of(self, prefix: str) -> List[Dict[str, Any]]:
        """Events whose kind equals ``prefix`` or starts with
        ``prefix + "."``, in sequence order."""
        with self._lock:
            return [
                dict(e)
                for e in self._events
                if e["kind"] == prefix or e["kind"].startswith(prefix + ".")
            ]

    def telemetry(self) -> Dict[str, Any]:
        """The ``obs.*`` telemetry-source shape."""
        with self._lock:
            out: Dict[str, Any] = {
                "session": self.session,
                "events": self._seq,
                "write_errors": self._errors,
            }
            for kind, n in self._counts.items():
                out[f"events.{kind}"] = n
        return out


#: The process-wide active recorder (``None`` = recording off).
_ACTIVE: Optional[FlightRecorder] = None


def current_recorder() -> Optional[FlightRecorder]:
    """The installed recorder, or ``None`` when recording is off."""
    return _ACTIVE


def record(kind: str, **payload: Any) -> Optional[Dict[str, Any]]:
    """Record one event on the active recorder; no-op when off."""
    recorder = _ACTIVE
    if recorder is None:
        return None
    return recorder.record(kind, **payload)


@contextmanager
def recording(
    recorder: Optional[FlightRecorder] = None,
) -> Iterator[FlightRecorder]:
    """Install ``recorder`` (default: a fresh in-memory one) as the
    active recorder for the duration of the context.  Re-entrant; the
    previous recorder is restored even when the body raises."""
    global _ACTIVE
    if recorder is None:
        recorder = FlightRecorder(session_id("recording", ()), path=None)
    previous = _ACTIVE
    _ACTIVE = recorder
    try:
        yield recorder
    finally:
        _ACTIVE = previous


def ledger_dir(root: Optional[Path] = None) -> Path:
    """The directory session ledgers are written to."""
    return (root if root is not None else obs_root()) / "ledger"


def start_session(
    command: str, argv: Sequence[str], *, root: Optional[Path] = None
) -> Optional[FlightRecorder]:
    """Open a session ledger and install its recorder process-wide.

    Returns the recorder, or ``None`` when the layer is disabled
    (``REPRO_OBS=0``) or the ledger directory cannot be created — a
    degraded environment must not block the command itself.
    """
    global _ACTIVE
    if not obs_enabled():
        return None
    started = time.time()
    session = session_id(command, argv, started=started)
    path = ledger_dir(root) / f"{session}.jsonl"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError:
        return None
    recorder = FlightRecorder(session, path, command=command)
    recorder.record(
        "session.start",
        schema=LEDGER_SCHEMA,
        command=command,
        argv=list(argv),
        pid=os.getpid(),
    )
    _ACTIVE = recorder
    return recorder


def end_session(exit_code: int) -> Optional[FlightRecorder]:
    """Record ``session.end`` and uninstall the active recorder."""
    global _ACTIVE
    recorder = _ACTIVE
    if recorder is None:
        return None
    recorder.record(
        "session.end",
        exit_code=int(exit_code),
        events=recorder.n_events,
        wall_seconds=time.time() - recorder.started,
    )
    _ACTIVE = None
    return recorder


def read_ledger(path: Path) -> Tuple[List[Dict[str, Any]], List[str]]:
    """Parse a ledger file line by line.

    Returns ``(events, corrupt_lines)``: every line that parses as a
    JSON object becomes an event, every line that does not (a torn tail
    after a crash, editor damage) is returned verbatim for quarantine —
    never raised.  Order is file order.
    """
    events: List[Dict[str, Any]] = []
    corrupt: List[str] = []
    try:
        text = Path(path).read_text(encoding="utf-8", errors="replace")
    except OSError:
        return [], []
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            corrupt.append(line)
            continue
        if isinstance(obj, dict):
            events.append(obj)
        else:
            corrupt.append(line)
    return events, corrupt


def _obs_telemetry_source() -> Dict[str, Any]:
    """The ``obs`` TELEMETRY namespace: the active recorder's census."""
    recorder = _ACTIVE
    if recorder is None:
        return {}
    return recorder.telemetry()


TELEMETRY.register("obs", _obs_telemetry_source)
