"""The durable write-ahead job journal: append-only JSONL under
``.repro/service/``.

Every job-state transition is one JSON line, appended with a single
``O_APPEND`` write and fsynced *before* the transition takes effect in
memory — write-ahead discipline, so the on-disk history is never behind
the runtime's beliefs.  A record looks like::

    {"schema": 1, "seq": 12, "job": "a1b2c3d4e5f60718",
     "state": "RUNNING", "kind": "run", "ts": 1736264400.123,
     "pid": 4242, ...}

* ``seq`` — a journal-global monotonic sequence number starting at 0;
  gapless by construction (assigned and appended under one lock), and a
  gap on read is evidence of a lost record;
* ``job``/``state`` — the transition; the first record for a job also
  carries its full request (``kind``, ``params``, ``deadline_s``) so
  replay needs nothing but the journal;
* terminal records carry outcome evidence (``result_digest`` for DONE,
  ``error`` for FAILED).

The journal is a :mod:`repro.ioutil` record log: a crash mid-append
can tear at most the final record.  Readers call
:func:`~repro.ioutil.read_log`, which leaves an unterminated tail
unread; the *writer* heals a torn tail on open
(:func:`~repro.ioutil.heal_log` moves the bytes to
``journal.quarantine``, never trusting them), so the append stream
stays parseable forever.

Replay (:func:`fold_records`) folds the record stream into per-job
final states, validating every transition against the legal state
machine of :mod:`repro.service.jobs`.  Jobs left ``PENDING`` or
``RUNNING`` by a crash are the replayer's work-list; ``DONE`` jobs
carry their result digest so a completed computation is never redone.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.ioutil import append_jsonl, heal_log, read_log
from repro.service.jobs import Job, legal_transition

__all__ = [
    "JOURNAL_SCHEMA",
    "JobJournal",
    "fold_records",
    "journal_path",
    "service_root",
    "validate_records",
]

#: Journal format version, stamped on every record.
JOURNAL_SCHEMA = 1

#: Record fields every journal line must carry.
REQUIRED_FIELDS = ("schema", "seq", "job", "state", "ts")


def service_root() -> Path:
    """The service state directory.

    ``$REPRO_SERVICE_DIR`` when set, else ``.repro/service`` under the
    current working directory — service state is an artifact of *this
    checkout's* jobs, like the observability ledger and unlike the
    machine-wide disk cache.
    """
    env = os.environ.get("REPRO_SERVICE_DIR")
    if env:
        return Path(env)
    return Path(".repro") / "service"


def journal_path(root: Optional[Path] = None) -> Path:
    """The journal file under ``root`` (default: :func:`service_root`)."""
    return (root if root is not None else service_root()) / "journal.jsonl"


def validate_records(records: List[Dict[str, Any]]) -> List[str]:
    """Problems with a journal record stream; empty list = valid.

    Checks the ``invariant.service.journal`` contract: schema fields
    present with the right types, ``seq`` gapless and monotonic from 0,
    and every per-job state sequence legal under the job state machine
    (first record PENDING, no transition out of a terminal state, the
    only backward edge RUNNING -> PENDING).
    """
    problems: List[str] = []
    states: Dict[str, Optional[str]] = {}
    for n, record in enumerate(records):
        missing = [f for f in REQUIRED_FIELDS if f not in record]
        if missing:
            problems.append(f"record {n}: missing fields {missing}")
            continue
        if record["schema"] != JOURNAL_SCHEMA:
            problems.append(
                f"record {n}: schema {record['schema']!r} != {JOURNAL_SCHEMA}"
            )
        if record["seq"] != n:
            problems.append(
                f"record {n}: seq {record['seq']!r} breaks the gapless "
                f"sequence (expected {n})"
            )
        job = record["job"]
        state = record["state"]
        current = states.get(job)
        if not legal_transition(current, state):
            problems.append(
                f"record {n}: job {job} illegal transition "
                f"{current} -> {state}"
            )
        states[job] = state
    return problems


def fold_records(records: List[Dict[str, Any]]) -> Dict[str, Job]:
    """Fold a (valid) record stream into per-job final states.

    Returns jobs keyed by id, each carrying its request (from the birth
    record), final state, attempt/replay tallies, and outcome evidence.
    Records for a job whose birth record is missing or whose transition
    is illegal are skipped — :func:`validate_records` is the reporting
    surface for those; replay must make progress on the salvageable
    majority rather than wedge on one bad record.
    """
    jobs: Dict[str, Job] = {}
    for record in records:
        job_id = record.get("job")
        state = record.get("state")
        if not isinstance(job_id, str) or state is None:
            continue
        job = jobs.get(job_id)
        if job is None:
            if not legal_transition(None, state):
                continue  # no birth record: unsalvageable
            jobs[job_id] = Job(
                id=job_id,
                kind=record.get("kind", ""),
                params=dict(record.get("params") or {}),
                state=state,
                deadline_s=record.get("deadline_s"),
                submitted_at=record.get("ts", 0.0),
            )
            continue
        if not legal_transition(job.state, state):
            continue
        if state == "RUNNING":
            job.attempts += 1
            job.started_at = record.get("ts")
        elif job.state == "RUNNING" and state == "PENDING":
            job.replays += 1
        if state in ("DONE", "FAILED", "CANCELLED"):
            job.finished_at = record.get("ts")
            job.error = record.get("error", "")
            job.result_digest = record.get("result_digest", "")
        job.state = state
    return jobs


class JobJournal:
    """Append-only journal writer with crash-safe open.

    ``seq`` assignment and the fsynced append happen under one lock, so
    sequence order equals file order and the gapless invariant holds by
    construction.  Opening for write heals a torn tail: the damaged
    trailing bytes are moved to ``journal.quarantine`` (evidence, never
    deleted), and the writer resumes at the next sequence number after
    the last *complete* record.
    """

    def __init__(self, path: Optional[Path] = None) -> None:
        self.path = journal_path() if path is None else Path(path)
        self._lock = threading.Lock()
        self.torn_tails_healed = 0
        try:
            self.torn_tails_healed = int(bool(heal_log(self.path)))
        except OSError:
            pass
        records, _corrupt, _end = read_log(self.path)
        seqs = [r["seq"] for r in records if isinstance(r.get("seq"), int)]
        self._seq = max(seqs, default=-1) + 1

    @property
    def next_seq(self) -> int:
        with self._lock:
            return self._seq

    def append(self, job: str, state: str, **fields: Any) -> Dict[str, Any]:
        """Append one transition record; returns it with ``seq`` filled.

        The append is fsynced: this is a write-ahead log, and the
        caller applies the transition in memory only after this call
        returns — a crash can lose at most work, never history.
        """
        with self._lock:
            record: Dict[str, Any] = {
                "schema": JOURNAL_SCHEMA,
                "seq": self._seq,
                "job": job,
                "state": state,
                "ts": time.time(),
                "pid": os.getpid(),
            }
            record.update(fields)
            append_jsonl(self.path, record, fsync=True)
            self._seq += 1
        return record

    def replay(self) -> Tuple[Dict[str, Job], List[str]]:
        """``(jobs by id, problems)`` from the journal as it stands."""
        records, corrupt, _end = read_log(self.path)
        problems = validate_records(records)
        if corrupt:
            problems.append(f"{len(corrupt)} torn/corrupt line(s)")
        return fold_records(records), problems

