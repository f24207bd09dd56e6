"""Live progress reporting for sweeps: TTY and JSON-lines modes.

A thousand-cell fuzz campaign used to be silent until it finished.  The
:class:`ProgressReporter` narrates a sweep *while* it runs, from the
runtime events every site already records with
:func:`repro.obs.ledger.record` — it is that call's listener, so it
works with the ledger off (``REPRO_OBS=0``) too:

* ``tty`` mode — one carriage-return-updated status line on stderr
  (``sweep: 412/1000 cells (3 batches, 240 cells batched) retries=1
  ladder=parallel``), throttled so a dense sweep does not spend its
  time printing;
* ``jsonl`` mode — one JSON object per update on stderr, for drivers
  that machine-read progress (CI logs, the future ``repro serve``);
* ``off`` — nothing is installed (the default unless ``--progress``
  turns it on, or ``auto`` finds stderr is a terminal).

Stdout is never touched: reports, manifests, and golden outputs stay
byte-identical whether or not progress is displayed.
:func:`progress_reporting` installs a reporter process-wide for a
block.  A staged experiment's events never reach it, and pool workers
inherit nothing — only the parent process reports.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from typing import Any, Dict, IO, Iterator, Mapping, Optional

from repro.obs import ledger

__all__ = [
    "ProgressReporter",
    "progress_reporting",
    "resolve_mode",
]

MODES = ("off", "tty", "jsonl", "auto")

#: Minimum seconds between TTY repaints (JSONL records are not
#: throttled: each one is an event, not a repaint).
TTY_INTERVAL = 0.1


def resolve_mode(mode: str) -> str:
    """Normalise a ``--progress`` value.

    ``auto`` means "tty when stderr is a terminal, else off" — progress
    never pollutes captured stderr unless explicitly requested.
    """
    mode = mode.lower()
    if mode not in MODES:
        from repro.errors import ConfigError

        raise ConfigError(
            f"unknown progress mode {mode!r}; expected one of {MODES}"
        )
    if mode == "auto":
        try:
            is_tty = sys.stderr.isatty()
        except Exception:
            is_tty = False
        return "tty" if is_tty else "off"
    return mode


class ProgressReporter:
    """Aggregates sweep state from runtime events and renders it live.

    One reporter can observe several sweeps in sequence (a report's
    prewarm, its Table 3 sweep, a sensitivity grid): each ``sweep.plan``
    that executes something begins a sweep, resetting the per-sweep
    counters while the cumulative ``sweeps`` count survives, and the
    ``sweep.progress`` event of its last dispatch unit ends it.
    """

    def __init__(
        self,
        mode: str = "tty",
        stream: Optional[IO[str]] = None,
        clock=time.monotonic,
    ) -> None:
        if mode not in ("tty", "jsonl"):
            raise ValueError(f"reporter mode must be tty/jsonl, not {mode!r}")
        self.mode = mode
        self.stream = stream if stream is not None else sys.stderr
        self._clock = clock
        self._last_paint = 0.0
        self._painted = False
        self.sweeps = 0
        self.updates = 0
        self.label = "sweep"
        self._begin({})

    def _begin(self, plan: Mapping[str, Any]) -> None:
        """Reset the per-sweep state from a ``sweep.plan`` payload."""
        self.total_cells = plan.get("requests", 0)
        self.cached_cells = self.total_cells - plan.get("executed", 0)
        self.done_cells = self.cached_cells
        self.total_units = plan.get("units", 0)
        self.done_units = 0
        self.batch_units = plan.get("batch_units", 0)
        self.batched_cells = plan.get("batched_cells", 0)
        self.retries = 0
        self.ladder = "parallel"

    def on_event(self, kind: str, payload: Mapping[str, Any]) -> None:
        """Update the display for one runtime event.

        ``sweep.plan`` (with ``executed > 0``) begins a sweep and
        ``sweep.progress`` advances it, ending it with its last unit.
        ``supervisor.retry``, ``isolate`` and ``degradation`` move the
        degradation ladder (``parallel`` → ``fresh-pool`` →
        ``isolating`` → ``serial``); the serial fallback re-runs every
        unit, so a degradation also sets the done counts back.  Every
        other kind is ignored.
        """
        if kind == "sweep.plan":
            if payload["executed"]:
                self._begin(payload)
                self.sweeps += 1
                self._emit(event="begin", force=True)
        elif kind == "sweep.progress":
            self.done_cells += payload["cells"]
            self.done_units += payload["units"]
            self._emit(event="advance")
            if self.done_units >= self.total_units:
                self._end()
        elif kind == "supervisor.retry":
            self.retries += payload["chunks"]
            self._emit(event="retry", force=True)
            self._ladder("fresh-pool")
        elif kind == "supervisor.isolate":
            self._ladder("isolating")
        elif kind == "supervisor.degradation":
            self.done_cells = self.cached_cells
            self.done_units = 0
            self._ladder("serial")

    def _ladder(self, state: str) -> None:
        self.ladder = state
        self._emit(event="ladder", force=True)

    def _end(self) -> None:
        self._emit(event="end", force=True)
        if self.mode == "tty" and self._painted:
            try:
                self.stream.write("\n")
                self.stream.flush()
            except Exception:
                pass
            self._painted = False

    # -- rendering -------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        return {
            "sweep": self.label,
            "cells_done": self.done_cells,
            "cells_total": self.total_cells,
            "cells_cached": self.cached_cells,
            "units_done": self.done_units,
            "units_total": self.total_units,
            "batch_units": self.batch_units,
            "batched_cells": self.batched_cells,
            "retries": self.retries,
            "ladder": self.ladder,
        }

    def status_line(self) -> str:
        parts = [
            f"{self.label}: "
            f"{self.done_cells}/{self.total_cells} cells"
        ]
        if self.total_units:
            mix = f"{self.done_units}/{self.total_units} units"
            if self.batch_units:
                mix += (
                    f", {self.batch_units} batches"
                    f"/{self.batched_cells} cells"
                )
            parts.append(f"({mix})")
        if self.cached_cells:
            parts.append(f"cached={self.cached_cells}")
        if self.retries:
            parts.append(f"retries={self.retries}")
        if self.ladder != "parallel":
            parts.append(f"ladder={self.ladder}")
        return " ".join(parts)

    def _emit(self, event: str, force: bool = False) -> None:
        self.updates += 1
        try:
            if self.mode == "jsonl":
                record = {"event": event}
                record.update(self.snapshot())
                self.stream.write(json.dumps(record, sort_keys=True) + "\n")
                self.stream.flush()
                return
            now = self._clock()
            if not force and now - self._last_paint < TTY_INTERVAL:
                return
            self._last_paint = now
            self.stream.write("\r\x1b[2K" + self.status_line())
            self.stream.flush()
            self._painted = True
        except Exception:
            # Progress is decoration; a closed stream must not kill the
            # sweep it narrates.
            pass


@contextmanager
def progress_reporting(
    mode: str = "auto",
    stream: Optional[IO[str]] = None,
) -> Iterator[Optional[ProgressReporter]]:
    """Install a reporter for ``mode`` (resolved via
    :func:`resolve_mode`) as :func:`repro.obs.ledger.record`'s listener
    for the duration of the context.  ``off`` installs nothing and
    yields ``None``."""
    resolved = resolve_mode(mode)
    if resolved == "off":
        yield None
        return
    reporter = ProgressReporter(resolved, stream=stream)
    previous = ledger.set_listener(reporter)
    try:
        yield reporter
    finally:
        if reporter._painted:
            reporter._end()
        ledger.set_listener(previous)
