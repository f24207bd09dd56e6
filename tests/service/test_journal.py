"""Tests for the write-ahead job journal (torn tails, seq, replay)."""

from __future__ import annotations

import json

import pytest

from repro.errors import ServiceError
from repro.ioutil import read_log
from repro.service.jobs import (
    DONE,
    PENDING,
    RUNNING,
    Job,
    job_id,
    legal_transition,
)
from repro.service.journal import (
    JOURNAL_SCHEMA,
    JobJournal,
    fold_records,
    journal_path,
    service_root,
    validate_records,
)


@pytest.fixture
def journal(tmp_path):
    return JobJournal(tmp_path / "journal.jsonl")


def _job(kind="run", **params):
    params = params or {"kernel": "corner_turn", "machine": "viram"}
    return Job(id=job_id(kind, params), kind=kind, params=params)


class TestAppendAndRead:
    def test_records_are_sequenced_from_zero(self, journal):
        job = _job()
        journal.append(job.id, PENDING, kind=job.kind, params=job.params)
        journal.append(job.id, RUNNING)
        journal.append(job.id, DONE, result_digest="ab" * 8)
        records, corrupt, _end = read_log(journal.path)
        assert not corrupt
        assert [r["seq"] for r in records] == [0, 1, 2]
        assert all(r["schema"] == JOURNAL_SCHEMA for r in records)
        assert validate_records(records) == []

    def test_next_seq_resumes_after_reopen(self, journal):
        job = _job()
        journal.append(job.id, PENDING, kind=job.kind, params=job.params)
        reopened = JobJournal(journal.path)
        assert reopened.next_seq == 1
        reopened.append(job.id, RUNNING)
        records, _corrupt, _end = read_log(journal.path)
        assert [r["seq"] for r in records] == [0, 1]

    def test_fold_records_recovers_job_state(self, journal):
        job = _job()
        journal.append(job.id, PENDING, kind=job.kind, params=job.params,
                       deadline_s=2.5)
        journal.append(job.id, RUNNING)
        jobs = fold_records(read_log(journal.path)[0])
        assert set(jobs) == {job.id}
        folded = jobs[job.id]
        assert folded.state == RUNNING
        assert folded.params == job.params
        assert folded.deadline_s == 2.5


class TestTornTail:
    def test_reader_tolerates_torn_tail(self, journal):
        job = _job()
        journal.append(job.id, PENDING, kind=job.kind, params=job.params)
        with open(journal.path, "ab") as fh:
            fh.write(b'{"schema": 1, "seq": 1, "job": "dead')
        records, corrupt, end = read_log(journal.path)
        assert len(records) == 1
        assert not corrupt
        assert journal.path.read_bytes()[end:].endswith(b'"dead')

    def test_writer_heals_torn_tail_and_quarantines(self, journal):
        job = _job()
        journal.append(job.id, PENDING, kind=job.kind, params=job.params)
        with open(journal.path, "ab") as fh:
            fh.write(b'{"schema": 1, "seq": 1, "job": "dead')
        healed = JobJournal(journal.path)
        assert healed.torn_tails_healed == 1
        records, corrupt, end = read_log(healed.path)
        assert len(records) == 1 and not corrupt
        assert end == healed.path.stat().st_size
        quarantine = healed.path.with_suffix(".quarantine")
        assert quarantine.is_file()
        assert b"dead" in quarantine.read_bytes()
        # The healed journal keeps appending with the right sequence.
        healed.append(job.id, RUNNING)
        assert validate_records(read_log(healed.path)[0]) == []


class TestValidation:
    def _records(self, journal):
        job = _job()
        journal.append(job.id, PENDING, kind=job.kind, params=job.params)
        journal.append(job.id, RUNNING)
        return read_log(journal.path)[0]

    def test_gap_in_seq_is_a_problem(self, journal):
        records = self._records(journal)
        records[1]["seq"] = 7
        assert any("seq" in p for p in validate_records(records))

    def test_missing_field_is_a_problem(self, journal):
        records = self._records(journal)
        del records[0]["ts"]
        assert validate_records(records)

    def test_illegal_transition_is_a_problem(self, journal):
        job = _job()
        journal.append(job.id, PENDING, kind=job.kind, params=job.params)
        journal.append(job.id, RUNNING)
        journal.append(job.id, DONE, result_digest="ab" * 8)
        bad = dict(read_log(journal.path)[0][1])
        bad["seq"], bad["state"] = 3, RUNNING  # DONE -> RUNNING: illegal
        with open(journal.path, "a") as fh:
            fh.write(json.dumps(bad) + "\n")
        assert validate_records(read_log(journal.path)[0])


class TestIdentity:
    def test_job_id_is_structural(self):
        a = job_id("run", {"kernel": "cslc", "machine": "raw"})
        b = job_id("run", {"machine": "raw", "kernel": "cslc"})
        assert a == b and len(a) == 16

    def test_job_id_rejects_unknown_kind(self):
        with pytest.raises(ServiceError):
            job_id("meltdown", {})

    def test_legal_transition_table(self):
        assert legal_transition(None, PENDING)
        assert legal_transition(RUNNING, PENDING)  # crash replay
        assert not legal_transition(DONE, RUNNING)
        assert not legal_transition(None, RUNNING)


class TestRoots:
    def test_service_root_honours_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_DIR", str(tmp_path / "x"))
        assert service_root() == tmp_path / "x"
        assert journal_path().name == "journal.jsonl"
