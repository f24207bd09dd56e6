"""Tests for live progress reporting (:mod:`repro.obs.progress`).

The reporter is :func:`repro.obs.ledger.record`'s listener: these tests
drive it with the runtime events the planner and the supervisor record.
"""

import io
import json

import pytest

from repro.errors import ConfigError
from repro.obs.ledger import record, recording
from repro.obs.progress import (
    ProgressReporter,
    progress_reporting,
    resolve_mode,
)


def _plan(requests, executed, units, batch_units=0, batched_cells=0):
    """A ``sweep.plan`` payload (the fields the reporter reads)."""
    return {
        "requests": requests, "executed": executed, "units": units,
        "batch_units": batch_units, "batched_cells": batched_cells,
    }


class TestResolveMode:
    def test_explicit_modes_pass_through(self):
        assert resolve_mode("off") == "off"
        assert resolve_mode("tty") == "tty"
        assert resolve_mode("jsonl") == "jsonl"
        assert resolve_mode("JSONL") == "jsonl"

    def test_auto_without_tty_is_off(self, capsys):
        # Under pytest's capture stderr is not a terminal.
        assert resolve_mode("auto") == "off"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="progress mode"):
            resolve_mode("loud")


class TestJsonlReporter:
    def _lines(self, stream):
        return [json.loads(line) for line in stream.getvalue().splitlines()]

    def test_sweep_lifecycle_emits_events(self):
        stream = io.StringIO()
        rep = ProgressReporter("jsonl", stream=stream)
        rep.on_event("sweep.plan", _plan(3, 2, 2, 1, 1))
        rep.on_event("planner.dispatch", {"unit": "batch", "cells": 1})
        rep.on_event("sweep.progress", {"cells": 1, "units": 1})
        rep.on_event("supervisor.retry", {"chunks": 1, "round": 0})
        rep.on_event("supervisor.isolate", {"chunk": 1, "cells": 1})
        rep.on_event("sweep.progress", {"cells": 1, "units": 1})
        lines = self._lines(stream)
        assert [r["event"] for r in lines] == [
            "begin", "advance", "retry", "ladder", "ladder", "advance",
            "end",
        ]
        begin, end = lines[0], lines[-1]
        assert begin["cells_total"] == 3
        # Cached cells count as already done at begin time.
        assert begin["cells_done"] == 1
        assert begin["cells_cached"] == 1
        assert begin["batched_cells"] == 1
        assert end["cells_done"] == 3
        assert end["units_done"] == 2
        assert end["retries"] == 1
        assert end["ladder"] == "isolating"
        assert end["sweep"] == "sweep"
        assert rep.sweeps == 1

    def test_fully_served_plan_narrates_nothing(self):
        stream = io.StringIO()
        rep = ProgressReporter("jsonl", stream=stream)
        rep.on_event("sweep.plan", _plan(4, 0, 0))
        assert stream.getvalue() == ""
        assert rep.sweeps == 0

    def test_serial_fallback_after_a_broken_pool_counts_each_unit_once(self):
        # One chunk of two finished before the pool broke; the serial
        # fallback then re-runs both units.
        stream = io.StringIO()
        rep = ProgressReporter("jsonl", stream=stream)
        rep.on_event("sweep.plan", _plan(5, 4, 2))
        rep.on_event("sweep.progress", {"cells": 2, "units": 1})
        rep.on_event("supervisor.degradation", {"reason": "pool broke"})
        for _ in range(2):
            rep.on_event("sweep.progress", {"cells": 2, "units": 1})
        lines = self._lines(stream)
        assert [r["event"] for r in lines] == [
            "begin", "advance", "ladder", "advance", "advance", "end",
        ]
        ladder = lines[2]
        assert ladder["ladder"] == "serial"
        assert (ladder["cells_done"], ladder["units_done"]) == (1, 0)
        assert (lines[-1]["cells_done"], lines[-1]["units_done"]) == (5, 2)

    def test_lines_are_sorted_key_json(self):
        stream = io.StringIO()
        rep = ProgressReporter("jsonl", stream=stream)
        rep.on_event("sweep.plan", _plan(1, 1, 1))
        line = stream.getvalue().splitlines()[0]
        assert line == json.dumps(json.loads(line), sort_keys=True)

    def test_broken_stream_never_raises(self):
        stream = io.StringIO()
        rep = ProgressReporter("jsonl", stream=stream)
        rep.on_event("sweep.plan", _plan(1, 1, 1))
        stream.close()
        rep.on_event("sweep.progress", {"cells": 1, "units": 1})  # swallowed


class TestTtyReporter:
    def test_repaints_with_carriage_return(self):
        stream = io.StringIO()
        clock = iter(float(i) for i in range(100))
        rep = ProgressReporter("tty", stream=stream, clock=lambda: next(clock))
        rep.on_event("sweep.plan", _plan(4, 4, 2))
        rep.on_event("sweep.progress", {"cells": 2, "units": 1})
        rep.on_event("sweep.progress", {"cells": 2, "units": 1})
        text = stream.getvalue()
        assert "\r\x1b[2K" in text
        assert "sweep: 2/4 cells" in text
        assert text.endswith("\n")  # painted line gets a final newline

    def test_throttles_unforced_repaints(self):
        stream = io.StringIO()
        rep = ProgressReporter("tty", stream=stream, clock=lambda: 1.0)
        rep.on_event("sweep.plan", _plan(10, 10, 10))  # forced paint
        first = stream.getvalue()
        # Same clock instant: throttled away.
        rep.on_event("sweep.progress", {"cells": 1, "units": 1})
        assert stream.getvalue() == first
        assert rep.updates == 2  # state still advanced

    def test_status_line_mentions_extras_only_when_present(self):
        rep = ProgressReporter("tty", stream=io.StringIO())
        rep.on_event("sweep.plan", _plan(2, 2, 0))
        assert rep.status_line() == "sweep: 0/2 cells"
        rep.on_event("supervisor.retry", {"chunks": 1, "round": 0})
        rep.on_event("supervisor.isolate", {"chunk": 0, "cells": 2})
        line = rep.status_line()
        assert "retries=1" in line
        assert "ladder=isolating" in line

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            ProgressReporter("auto")


class TestProgressReporting:
    def test_off_yields_none_and_installs_nothing(self):
        with progress_reporting("off") as rep:
            assert rep is None

    def test_installs_and_restores(self):
        stream = io.StringIO()
        with progress_reporting("jsonl", stream=stream) as rep:
            record("sweep.plan", **_plan(1, 1, 1), jobs=1)
            assert rep.sweeps == 1
        record("sweep.plan", **_plan(1, 1, 1), jobs=1)
        assert rep.sweeps == 1
        assert len(stream.getvalue().splitlines()) == 1

    def test_staged_events_never_reach_the_reporter(self):
        stream = io.StringIO()
        with progress_reporting("jsonl", stream=stream) as rep:
            with recording() as scratch:
                record("sweep.plan", **_plan(2, 2, 2), jobs=1)
        assert rep.sweeps == 0
        assert stream.getvalue() == ""
        assert scratch.counts() == {"sweep.plan": 1}

    def test_painted_tty_line_closed_on_exit(self):
        stream = io.StringIO()
        with progress_reporting("tty", stream=stream) as rep:
            record("sweep.plan", **_plan(1, 1, 1), jobs=1)
            assert rep._painted
        assert stream.getvalue().endswith("\n")
