"""Crash-safe file publication helpers and the append-only record log.

Benchmark guards (``BENCH_*.json``), golden-fixture refreshes, and
metrics manifests are all *artifacts another process trusts*: CI diffs
them, the snapshot tests pin them byte-for-byte, and a later session
reads them as ground truth.  A plain ``write_text`` interrupted by a
signal, an OOM kill, or a full disk leaves a truncated file that still
parses as "the artifact" — the worst kind of corruption, silent and
plausible.

Every writer here stages the full content in a temporary file *in the
target's own directory* (same filesystem, so the final rename cannot
degrade to a copy) and publishes it with :func:`os.replace`, which is
atomic on POSIX: readers observe either the old complete artifact or
the new complete artifact, never a torn one.

The record log
--------------
The flight-recorder ledger, the service journal, the metrics history
and the disk store are one file format: an append-only sequence of
records, each a sorted-key JSON header on one line.  A header that
declares a body (:data:`BODY_FIELD`, its length in bytes) is followed
by that many raw bytes and a newline; only the disk store writes
bodies.  Three functions serve every log:

* :func:`append_jsonl` appends records with one ``os.write`` on an
  ``O_APPEND`` descriptor, optionally fsynced;
* :func:`read_log` parses a log from an offset into
  ``(records, corrupt_lines, end)``.  A complete line that is not a
  record is returned as a corrupt line; the bytes after ``end`` are an
  unterminated tail (a writer killed mid-append, or one still
  writing), which the reader neither trusts nor reports;
* :func:`heal_log` moves everything after the last complete record to
  the log's ``.quarantine`` sibling and truncates the log there.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Mapping, Tuple, Union

#: The header field that declares a record's body: its length in bytes.
#: No ledger, journal or history record uses it.
BODY_FIELD = "n"

#: The key :func:`read_log` adds to a record with a body: the file
#: offset where the body starts.
BODY_AT = "@"

#: A record to append: a header, or a ``(header, body)`` pair.
Record = Union[Mapping[str, Any], Tuple[Mapping[str, Any], bytes]]


def atomic_write_text(
    path: Union[str, Path], text: str, encoding: str = "utf-8"
) -> Path:
    """Atomically replace ``path`` with ``text``; returns the path.

    The temporary staging file is fsynced before the rename so a power
    loss cannot publish a name pointing at unwritten blocks; on any
    failure the staging file is removed and the original artifact is
    left untouched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    try:
        with open(tmp, "w", encoding=encoding) as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def atomic_write_bytes(path: Union[str, Path], blob: bytes) -> Path:
    """Atomically replace ``path`` with ``blob``; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def atomic_write_json(
    path: Union[str, Path], obj: Any, *, indent: int = 2, **dumps_kwargs: Any
) -> Path:
    """Atomically replace ``path`` with ``obj`` serialised as JSON
    (trailing newline included); returns the path."""
    text = json.dumps(obj, indent=indent, **dumps_kwargs) + "\n"
    return atomic_write_text(path, text)


def _encode(record: Record) -> bytes:
    if isinstance(record, tuple):
        header, body = record
        header = {**header, BODY_FIELD: len(body)}
        line = json.dumps(header, sort_keys=True).encode("utf-8")
        return line + b"\n" + body + b"\n"
    return (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")


def append_jsonl(
    path: Union[str, Path], *records: Record, fsync: bool = False
) -> Path:
    """Append ``records`` to the log at ``path``; returns the path.

    Each record is a header mapping, or a ``(header, body)`` pair whose
    header gains :data:`BODY_FIELD`.  All of them go out in a single
    ``os.write`` on an ``O_APPEND`` descriptor: POSIX appends are
    atomic with respect to concurrent appenders for writes of this
    size, so two processes sharing a log never interleave *within* a
    record — the worst a crash can leave is one torn record at the
    tail, which :func:`read_log` leaves unread and :func:`heal_log`
    quarantines.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = b"".join(_encode(record) for record in records)
    fd = os.open(str(path), os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
    try:
        os.write(fd, data)
        if fsync:
            os.fsync(fd)
    finally:
        os.close(fd)
    return path


def _parse(
    data: bytes, base: int
) -> Tuple[List[Dict[str, Any]], List[str], int, int]:
    """``(records, corrupt, end, good)`` of ``data`` read from file
    offset ``base``: ``end`` follows the last complete line or record,
    ``good`` the last complete record."""
    records: List[Dict[str, Any]] = []
    corrupt: List[str] = []
    pos = good = 0
    while True:
        newline = data.find(b"\n", pos)
        if newline < 0:
            break
        line = data[pos:newline]
        after = newline + 1
        if not line.strip():
            pos = after
            continue
        try:
            record = json.loads(line)
        except ValueError:
            record = None
        if isinstance(record, dict):
            size = record.get(BODY_FIELD)
            if not isinstance(size, int) or size < 0:
                records.append(record)
                pos = good = after
                continue
            stop = after + size
            if stop >= len(data):
                break  # body not wholly written yet
            if data[stop:stop + 1] == b"\n":
                record[BODY_AT] = base + after
                records.append(record)
                pos = good = stop + 1
                continue
        corrupt.append(line.decode("utf-8", errors="replace"))
        pos = after
    return records, corrupt, base + pos, base + good


def read_log(
    source: Union[str, Path, int], start: int = 0
) -> Tuple[List[Dict[str, Any]], List[str], int]:
    """Parse the log at ``source`` (a path, or a descriptor open for
    reading) from byte ``start``.

    Returns ``(records, corrupt_lines, end)`` in file order.  Each
    record is its header dict; one with a body also carries
    :data:`BODY_AT`.  Bytes after ``end`` are an unterminated tail,
    left for the next read.  A missing file reads as empty; nothing
    raises.
    """
    try:
        if isinstance(source, int):
            size = os.fstat(source).st_size
            data = os.pread(source, max(0, size - start), start)
        else:
            with open(source, "rb") as fh:
                fh.seek(start)
                data = fh.read()
    except OSError:
        return [], [], start
    records, corrupt, end, _good = _parse(data, start)
    return records, corrupt, end


def heal_log(path: Union[str, Path]) -> bytes:
    """Move everything after the log's last complete record to its
    ``.quarantine`` sibling and truncate the log there; returns the
    bytes moved (empty when the log ends cleanly).

    The evidence is one record in the quarantine log: a header naming
    the log and the offset of the cut, with the moved bytes as its
    body.  The caller holds whatever serialises the log's writers and
    counts the move.  Raises :class:`OSError` when the log cannot be
    read or rewritten.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return b""
    _records, _corrupt, _end, good = _parse(data, 0)
    torn = data[good:]
    if torn:
        append_jsonl(
            path.with_suffix(".quarantine"),
            ({"at": good, "log": path.name, "reason": "torn tail"}, torn),
        )
        os.truncate(path, good)
    return torn
