"""Tests for the flight recorder (:mod:`repro.obs.ledger`)."""

import json
import threading

import pytest

from repro.ioutil import read_log
from repro.obs import ledger
from repro.obs.ledger import (
    FlightRecorder,
    current_recorder,
    end_session,
    obs_enabled,
    record,
    recording,
    session_id,
    start_session,
)
from repro.trace.telemetry import Counters


@pytest.fixture
def session(monkeypatch):
    """An in-memory recorder installed as a CLI session's is."""
    recorder = FlightRecorder("session", path=None)
    monkeypatch.setattr(ledger, "_ACTIVE", recorder)
    return recorder


class TestSessionId:
    def test_deterministic_for_fixed_inputs(self):
        a = session_id("report", ["--jobs", "2"], pid=100, started=1.5)
        b = session_id("report", ["--jobs", "2"], pid=100, started=1.5)
        assert a == b
        assert len(a) == 12
        int(a, 16)  # hex

    def test_distinguishes_command_argv_pid_and_time(self):
        base = session_id("report", ["-j", "2"], pid=1, started=1.0)
        assert session_id("check", ["-j", "2"], pid=1, started=1.0) != base
        assert session_id("report", ["-j", "4"], pid=1, started=1.0) != base
        assert session_id("report", ["-j", "2"], pid=2, started=1.0) != base
        assert session_id("report", ["-j", "2"], pid=1, started=2.0) != base


class TestFlightRecorder:
    def test_seq_is_gapless_and_counts_tally(self):
        rec = FlightRecorder("abc")
        rec.record("sweep.plan", requests=3)
        rec.record("planner.dispatch", cells=1)
        rec.record("planner.dispatch", cells=2)
        assert [e["seq"] for e in rec.events] == [0, 1, 2]
        assert rec.n_events == 3
        assert rec.counts() == {"sweep.plan": 1, "planner.dispatch": 2}

    def test_events_of_matches_prefix_and_exact(self):
        rec = FlightRecorder("abc")
        rec.record("supervisor.retry", chunks=1)
        rec.record("supervisor.isolate", key="k")
        rec.record("supervised", x=1)  # prefix match must not catch this
        kinds = [e["kind"] for e in rec.events_of("supervisor")]
        assert kinds == ["supervisor.retry", "supervisor.isolate"]

    def test_writes_jsonl_file(self, tmp_path):
        path = tmp_path / "ledger" / "abc.jsonl"
        rec = FlightRecorder("abc", path)
        rec.record("session.start", command="run")
        rec.record("sweep.plan", requests=1)
        events, corrupt, end = read_log(path)
        assert not corrupt and end == path.stat().st_size
        assert [e["kind"] for e in events] == ["session.start", "sweep.plan"]
        assert events[1]["payload"] == {"requests": 1}
        assert all(e["session"] == "abc" for e in events)

    def test_write_errors_counted_never_raised(self, tmp_path):
        target = tmp_path / "not-a-dir"
        target.write_text("file in the way")
        rec = FlightRecorder("abc", target / "x.jsonl")
        rec.record("sweep.plan")  # must not raise
        assert rec.write_errors == 1
        assert rec.n_events == 1  # event still kept in memory

    def test_telemetry_shape(self):
        rec = FlightRecorder("abc")
        rec.record("sweep.plan")
        rec.record("sweep.plan")
        tele = rec.telemetry()
        assert tele["session"] == "abc"
        assert tele["events"] == 2
        assert tele["write_errors"] == 0
        assert tele["events.sweep.plan"] == 2


class TestModuleRecord:
    def test_noop_when_no_recorder(self):
        assert current_recorder() is None
        assert record("sweep.plan", requests=1) is None

    def test_recording_installs_and_restores(self):
        with recording() as rec:
            assert current_recorder() is rec
            event = record("sweep.plan", requests=2)
            assert event["payload"] == {"requests": 2}
        assert current_recorder() is None

    def test_recording_is_reentrant(self):
        with recording() as outer:
            with recording() as inner:
                assert current_recorder() is inner
            assert current_recorder() is outer


class TestStagedScope:
    def test_staged_tallies_count_in_a_fresh_scope(self):
        tally = Counters("demo", ("hits",))
        tally.note("hits")
        with pytest.raises(RuntimeError):
            with recording(tally):
                tally.note("hits", 5)
                assert tally.get("hits") == 5
                raise RuntimeError("boom")
        assert tally.get("hits") == 1
        assert current_recorder() is None

    def test_another_threads_event_reaches_the_session(self, session):
        # Under `repro serve`, HTTP threads record while a worker thread
        # runs a validated report's staged checks.
        inside, leave = threading.Event(), threading.Event()
        staged = []

        def stage():
            with recording() as scratch:
                inside.set()
                leave.wait(timeout=30)
            staged.append(scratch)

        thread = threading.Thread(target=stage)
        thread.start()
        try:
            assert inside.wait(timeout=30)
            record("service.submit", job="j1")
        finally:
            leave.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert [e["kind"] for e in session.events] == ["service.submit"]
        assert staged[0].events == ()


class TestSessions:
    def test_start_and_end_session_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "obs"))
        rec = start_session("report", ["--jobs", "2"])
        assert rec is not None
        assert current_recorder() is rec
        record("sweep.plan", requests=5)
        ended = end_session(0)
        assert ended is rec
        assert current_recorder() is None

        events, corrupt, _end = read_log(rec.path)
        assert not corrupt
        kinds = [e["kind"] for e in events]
        assert kinds == ["session.start", "sweep.plan", "session.end"]
        start = events[0]["payload"]
        assert start["command"] == "report"
        assert start["argv"] == ["--jobs", "2"]
        assert start["schema"] == ledger.LEDGER_SCHEMA
        end = events[-1]["payload"]
        assert end["exit_code"] == 0
        assert end["events"] == 2  # start + sweep.plan, before the end event
        assert end["wall_seconds"] >= 0

    def test_disabled_by_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "0")
        assert not obs_enabled()
        assert start_session("report", []) is None
        assert current_recorder() is None

    def test_end_session_without_start_is_noop(self):
        assert end_session(1) is None

    def test_start_session_survives_unwritable_root(
        self, tmp_path, monkeypatch
    ):
        blocker = tmp_path / "obsfile"
        blocker.write_text("in the way")
        monkeypatch.setenv("REPRO_OBS_DIR", str(blocker))
        assert start_session("report", []) is None


class TestReadLedger:
    def test_torn_tail_quarantined_not_trusted(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text(
            json.dumps({"kind": "a", "seq": 0}) + "\n"
            + '{"kind": "b", "seq": 1'  # torn mid-write
        )
        events, corrupt, end = read_log(path)
        assert [e["kind"] for e in events] == ["a"]
        assert corrupt == []
        assert path.read_bytes()[end:] == b'{"kind": "b", "seq": 1'

    def test_non_object_lines_are_corrupt(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('[1, 2]\n{"kind": "ok"}\n')
        events, corrupt, _end = read_log(path)
        assert [e["kind"] for e in events] == ["ok"]
        assert corrupt == ["[1, 2]"]

    def test_missing_file_is_empty(self, tmp_path):
        assert read_log(tmp_path / "nope.jsonl") == ([], [], 0)
