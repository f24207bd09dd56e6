"""Tests for :mod:`repro.ioutil`: the atomic artifact writers and the
record log."""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ioutil import (
    BODY_AT,
    BODY_FIELD,
    append_jsonl,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    heal_log,
    read_log,
)


class TestAtomicWrites:
    def test_text_roundtrip_without_staging_residue(self, tmp_path):
        target = tmp_path / "artifact.txt"
        atomic_write_text(target, "line one\n")
        assert target.read_text() == "line one\n"
        assert os.listdir(tmp_path) == ["artifact.txt"]

    def test_bytes_roundtrip(self, tmp_path):
        target = tmp_path / "blob.bin"
        atomic_write_bytes(target, b"\x00\xff")
        assert target.read_bytes() == b"\x00\xff"

    def test_json_has_trailing_newline(self, tmp_path):
        target = tmp_path / "bench.json"
        atomic_write_json(target, {"b": 2, "a": 1}, sort_keys=True)
        text = target.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == {"a": 1, "b": 2}

    def test_replaces_existing_artifact(self, tmp_path):
        target = tmp_path / "artifact.txt"
        target.write_text("old")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"

    def test_creates_missing_parent_directories(self, tmp_path):
        target = tmp_path / "deep" / "er" / "artifact.txt"
        atomic_write_text(target, "x")
        assert target.read_text() == "x"

    def test_failed_write_preserves_original(self, tmp_path, monkeypatch):
        target = tmp_path / "artifact.txt"
        target.write_text("precious")

        def refuse_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse_replace)
        with pytest.raises(OSError, match="disk full"):
            atomic_write_text(target, "half-written garbage")
        monkeypatch.undo()
        assert target.read_text() == "precious"
        assert os.listdir(tmp_path) == ["artifact.txt"]


# -- the record log ------------------------------------------------------

_headers = st.dictionaries(
    st.sampled_from(["k", "seq", "kind", "d", "x", "job"]),
    st.one_of(
        st.integers(-5, 10**6), st.text(max_size=8), st.booleans(),
        st.none(),
    ),
    max_size=4,
)
_records = st.lists(
    st.tuples(_headers, st.one_of(st.none(), st.binary(max_size=24))),
    min_size=1,
    max_size=5,
)


def _expected(records):
    """Each record as the reader returns it, with its end offset."""
    out, pos = [], 0
    for header, body in records:
        if body is None:
            line = json.dumps(header, sort_keys=True) + "\n"
            pos += len(line.encode())
            out.append((dict(header), pos))
        else:
            full = dict(header, **{BODY_FIELD: len(body)})
            line = (json.dumps(full, sort_keys=True) + "\n").encode()
            full[BODY_AT] = pos + len(line)
            pos += len(line) + len(body) + 1
            out.append((full, pos))
    return out


class TestRecordLog:
    @settings(max_examples=40, deadline=None)
    @given(records=_records)
    def test_every_cut_reads_exactly_the_whole_records(
        self, tmp_path_factory, records
    ):
        tmp = tmp_path_factory.mktemp("log")
        whole = tmp / "whole.log"
        append_jsonl(whole, *[r if b is None else (r, b) for r, b in records])
        data = whole.read_bytes()
        expected = _expected(records)
        assert expected[-1][1] == len(data)
        path = tmp / "cut.log"
        for cut in range(len(data) + 1):
            path.write_bytes(data[:cut])
            wholly = [rec for rec, end in expected if end <= cut]
            good = max([end for _rec, end in expected if end <= cut],
                       default=0)
            assert read_log(path) == (wholly, [], good)
            assert heal_log(path) == data[good:cut]
            append_jsonl(path, ({"k": "after"}, b"\n tail \n"))
            got, corrupt, end = read_log(path)
            assert corrupt == [] and end == path.stat().st_size
            assert got[:-1] == wholly
            assert got[-1]["k"] == "after"
            at = got[-1][BODY_AT]
            assert path.read_bytes()[at:at + got[-1][BODY_FIELD]] == (
                b"\n tail \n"
            )
            path.with_suffix(".quarantine").unlink(missing_ok=True)

    def test_heal_moves_the_tail_to_one_evidence_record(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        append_jsonl(path, {"seq": 0})
        with open(path, "ab") as fh:
            fh.write(b'not json\n{"seq": 1')
        assert heal_log(path) == b'not json\n{"seq": 1'
        assert path.read_bytes() == b'{"seq": 0}\n'
        (evidence,), corrupt, _end = read_log(path.with_suffix(".quarantine"))
        assert not corrupt
        assert evidence["log"] == "journal.jsonl"
        assert evidence["at"] == len(b'{"seq": 0}\n')
        assert evidence[BODY_FIELD] == len(b'not json\n{"seq": 1')

    def test_reads_from_an_offset_and_a_descriptor(self, tmp_path):
        path = tmp_path / "log"
        append_jsonl(path, {"a": 1}, ({"k": "x"}, b"body"))
        first, _corrupt, end = read_log(path)
        append_jsonl(path, {"b": 2})
        fd = os.open(path, os.O_RDONLY)
        try:
            more, corrupt, end2 = read_log(fd, end)
        finally:
            os.close(fd)
        assert [r.get("k") for r in first] == [None, "x"]
        assert more == [{"b": 2}] and not corrupt
        assert end2 == path.stat().st_size
