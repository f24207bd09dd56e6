"""Tests for the metrics history (:mod:`repro.obs.history`)."""

import json

from repro.ioutil import heal_log, read_log
from repro.obs.history import (
    HISTORY_SCHEMA,
    append_history,
    build_record,
    deterministic_run_metrics,
    history_path,
    latest_record,
    read_history,
)


def _record(command="report", **metrics):
    return build_record(
        command,
        ["--jobs", "2"],
        session="abc123def456",
        exit_code=0,
        wall_seconds=1.25,
        metrics=metrics,
    )


class TestBuildRecord:
    def test_shape_and_identity(self, monkeypatch):
        monkeypatch.setenv("REPRO_GIT_SHA", "cafe1234")
        rec = _record(**{"run.corner_turn.viram.cycles": 100.0})
        assert rec["schema_version"] == HISTORY_SCHEMA
        assert rec["command"] == "report"
        assert rec["argv"] == ["--jobs", "2"]
        assert rec["session"] == "abc123def456"
        assert rec["git_sha"] == "cafe1234"
        assert rec["model_version"]
        assert isinstance(rec["telemetry"], dict)
        # Wall time is surfaced both as a field and as a metric.
        assert rec["wall_seconds"] == 1.25
        assert rec["metrics"]["report.wall_seconds"] == 1.25
        assert rec["metrics"]["run.corner_turn.viram.cycles"] == 100.0

    def test_record_is_json_serializable(self):
        json.dumps(_record())

    def test_git_sha_none_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_GIT_SHA", raising=False)
        assert _record()["git_sha"] is None


class TestAppendAndRead:
    def test_roundtrip(self, tmp_path):
        path = history_path(tmp_path)
        assert append_history(_record(), root=tmp_path) == path
        append_history(_record(command="check"), root=tmp_path)
        records, corrupt = read_history(path)
        assert not corrupt
        assert [r["command"] for r in records] == ["report", "check"]

    def test_corrupt_tail_reported_not_raised(self, tmp_path):
        path = history_path(tmp_path)
        append_history(_record(), root=tmp_path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"command": "torn')
        records, corrupt = read_history(path)
        assert len(records) == 1
        assert corrupt == []
        _records, _corrupt, end = read_log(path)
        assert path.read_bytes()[end:] == b'{"command": "torn'

    def test_newer_schema_is_corrupt_not_trusted(self, tmp_path):
        path = history_path(tmp_path)
        future = dict(_record(), schema_version=HISTORY_SCHEMA + 1)
        append_history(future, root=tmp_path)
        records, corrupt = read_history(path)
        assert records == []
        assert len(corrupt) == 1

    def test_missing_file_is_empty(self, tmp_path):
        assert read_history(tmp_path / "nope.jsonl") == ([], [])


class TestLatestRecord:
    def test_picks_newest_optionally_by_command(self, tmp_path):
        path = history_path(tmp_path)
        append_history(_record(command="report"), root=tmp_path)
        append_history(_record(command="check"), root=tmp_path)
        assert latest_record(path)["command"] == "check"
        assert latest_record(path, command="report")["command"] == "report"
        assert latest_record(path, command="pipeline") is None


class TestQuarantine:
    def test_heals_file_and_saves_evidence(self, tmp_path):
        path = history_path(tmp_path)
        append_history(_record(), root=tmp_path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("not json at all\n")
            fh.write('{"half": ')
        assert heal_log(path) == b'not json at all\n{"half": '
        records, corrupt = read_history(path)
        assert len(records) == 1 and not corrupt
        evidence = path.with_suffix(".quarantine").read_text()
        assert "not json at all" in evidence
        assert '{"half":' in evidence

    def test_clean_file_untouched(self, tmp_path):
        path = history_path(tmp_path)
        append_history(_record(), root=tmp_path)
        before = path.read_text()
        assert heal_log(path) == b""
        assert path.read_text() == before
        assert not path.with_suffix(".quarantine").exists()


class TestDeterministicRunMetrics:
    def test_covers_every_pair_twice(self):
        from repro.mappings import registry

        metrics = deterministic_run_metrics()
        pairs = list(registry.available())
        assert len(metrics) == 2 * len(pairs)
        for kernel, machine in pairs:
            assert metrics[f"run.{kernel}.{machine}.cycles"] > 0
            pct = metrics[f"run.{kernel}.{machine}.percent_of_peak"]
            assert 0.0 <= pct <= 100.0
