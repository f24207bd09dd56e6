"""Metrics history: one durable record per completed command.

``.repro/obs/history.jsonl`` is the longitudinal record the repo never
had: every ``repro report``, ``run``, ``sensitivity``, ``check``, and
``pipeline`` invocation appends one JSON line on successful completion
(:func:`append_history`, called by the CLI session wrapper) holding

* **run identity** — session id, command, argv, model version stamp,
  the git sha when the caller provides one (``REPRO_GIT_SHA``, set by
  CI), schema version;
* **wall timings** — the command's wall seconds plus the perf-timer
  tree from the TELEMETRY snapshot;
* **the full TELEMETRY snapshot** — cache tiers, tensor engine,
  resilience ledger, scenario stats, obs census;
* **deterministic model metrics** — per kernel×machine cycles and
  percent-of-peak for commands that ran the standard sweep
  (:func:`deterministic_run_metrics` reads them back through the run
  cache, so recording costs microseconds).

``repro metrics regress`` (:mod:`repro.obs.regress`) consumes these
records as its current-vs-baseline evidence.  The history is a
:mod:`repro.ioutil` record log: ``repro doctor`` and ``repro metrics
history --heal`` move a torn tail to ``history.quarantine`` with
:func:`~repro.ioutil.heal_log`, never trusting it.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.ioutil import append_jsonl, read_log
from repro.obs.ledger import obs_root

__all__ = [
    "HISTORY_SCHEMA",
    "append_history",
    "build_record",
    "deterministic_run_metrics",
    "history_path",
    "latest_record",
    "read_history",
]

#: History record format version.
HISTORY_SCHEMA = 1


def history_path(root: Optional[Path] = None) -> Path:
    """Where the metrics history lives."""
    return (root if root is not None else obs_root()) / "history.jsonl"


def deterministic_run_metrics() -> Dict[str, float]:
    """Per kernel×machine cycles and percent-of-peak, as flat metrics.

    Reads every registered pair through ``registry.run`` — after a
    report these are all memoization-cache hits, so building the metric
    set costs microseconds and never re-simulates.  The values are
    deterministic for a model version, which is what lets the
    regression gate hold them to an exact tolerance band.
    """
    from repro.mappings import registry

    out: Dict[str, float] = {}
    for kernel, machine in registry.available():
        run = registry.run(kernel, machine)
        out[f"run.{kernel}.{machine}.cycles"] = float(run.cycles)
        out[f"run.{kernel}.{machine}.percent_of_peak"] = float(
            run.percent_of_peak
        )
    return out


def build_record(
    command: str,
    argv: Sequence[str],
    *,
    session: str,
    exit_code: int,
    wall_seconds: float,
    metrics: Optional[Dict[str, float]] = None,
) -> Dict[str, Any]:
    """Assemble one history record (JSON-safe, schema-stamped)."""
    from repro.perf.cache import model_version_stamp
    from repro.trace.telemetry import TELEMETRY

    telemetry = TELEMETRY.snapshot()
    # Only JSON-safe scalars survive; a source returning an exotic value
    # must not make the whole record unwritable.
    safe_telemetry: Dict[str, Any] = {}
    for key, value in telemetry.items():
        if isinstance(value, (int, float, str, bool)) or value is None:
            safe_telemetry[key] = value
        else:
            safe_telemetry[key] = repr(value)
    record: Dict[str, Any] = {
        "schema_version": HISTORY_SCHEMA,
        "session": session,
        "command": command,
        "argv": list(argv),
        "exit_code": int(exit_code),
        "finished": time.time(),
        "model_version": model_version_stamp(),
        "git_sha": os.environ.get("REPRO_GIT_SHA") or None,
        "metrics": dict(metrics or {}),
        "wall_seconds": float(wall_seconds),
        "telemetry": safe_telemetry,
    }
    record["metrics"][f"{command}.wall_seconds"] = float(wall_seconds)
    return record


def append_history(
    record: Dict[str, Any], root: Optional[Path] = None
) -> Optional[Path]:
    """Append one record to the history file; returns the path, or
    ``None`` when the file cannot be written (degraded environments
    must not block the command that just succeeded)."""
    path = history_path(root)
    try:
        return append_jsonl(path, record)
    except OSError:
        return None


def read_history(
    path: Optional[Path] = None,
) -> Tuple[List[Dict[str, Any]], List[str]]:
    """``(records, corrupt_lines)`` of the history, in file order.

    :func:`~repro.ioutil.read_log` with one filter: a record whose
    ``schema_version`` is newer than this code understands is returned
    among the corrupt lines — a future schema is unreadable, not
    trustable.  An unterminated tail is neither.
    """
    records, corrupt, _end = read_log(
        path if path is not None else history_path()
    )
    known: List[Dict[str, Any]] = []
    for record in records:
        if int(record.get("schema_version", 0)) > HISTORY_SCHEMA:
            corrupt.append(json.dumps(record, sort_keys=True))
        else:
            known.append(record)
    return known, corrupt


def latest_record(
    path: Optional[Path] = None, command: Optional[str] = None
) -> Optional[Dict[str, Any]]:
    """The most recent (last) parseable record, optionally restricted to
    one command."""
    records, _ = read_history(path)
    if command is not None:
        records = [r for r in records if r.get("command") == command]
    return records[-1] if records else None

