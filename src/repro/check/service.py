"""Service invariants: the job runtime re-proven on every fast tier.

The service's durability story rests on three claims — the journal is
an honest write-ahead history, the job state machine admits no illegal
life, and deduplication conserves work (N identical requests cost one
computation).  Like the obs reconciliation checks, these are *derived*
properties that drift silently when an instrumentation site moves, so
the fast tier re-proves them with a staged experiment against a
scratch runtime (temp service root, counting stub executor, events and
service counters in ``repro.obs.ledger.recording(SERVICE_STATS)`` — no
HTTP, no real kernels, nothing left in the session ledger or the
process's telemetry, milliseconds):

* ``invariant.service.journal`` — a full job lifecycle leaves a
  parseable journal with a gapless ``seq`` from 0 and schema-complete
  records, and a torn tail is healed on reopen (quarantined, not
  trusted) with the surviving records still valid;
* ``invariant.service.state-machine`` — the legal-transition table has
  the shape the durability argument needs (birth only as PENDING,
  terminal states closed, the only backward edge RUNNING -> PENDING),
  the runtime refuses illegal transitions, and the experiment's
  journalled histories all validate against the machine;
* ``invariant.service.dedup`` — N identical submissions collapse to
  one admission and one executor invocation, visible in ``service.*``
  telemetry (``deduped == N - 1``);
* ``invariant.service.replay`` — a job abandoned RUNNING (the crash
  shape) is re-queued by the next runtime on the same root, completes,
  and its result bytes are identical to an uninterrupted run's.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from repro.check.report import FAIL, PASS, CheckResult

__all__ = ["service_checks"]


def _stub_executor(calls: List[Dict[str, Any]]):
    """A deterministic executor that counts its invocations."""

    def execute(kind: str, params: Mapping[str, Any],
                jobs: Optional[int] = None) -> Dict[str, Any]:
        calls.append({"kind": kind, "params": dict(params)})
        return {"kind": kind, "params": dict(params), "status": "stub"}

    return execute


def service_checks(
    workloads: Optional[Mapping[str, Any]] = None,
) -> List[CheckResult]:
    """Run the scratch-runtime experiment; returns one result per
    invariant.  ``workloads`` is accepted for signature parity with the
    other check batteries but unused — the experiment runs on a stub
    executor precisely so the fast tier stays fast."""
    import tempfile
    from pathlib import Path

    from repro.errors import ServiceError
    from repro.ioutil import read_log
    from repro.obs.ledger import recording
    from repro.service import jobs as jobmod
    from repro.service.journal import JobJournal, validate_records
    from repro.service.runtime import JobRuntime, ServiceConfig
    from repro.service.stats import SERVICE_STATS

    results: List[CheckResult] = []
    calls: List[Dict[str, Any]] = []

    # The scratch runtime's jobs are staged: they record and count in
    # the check's own scope.
    scratch = tempfile.TemporaryDirectory(prefix="repro-svc-check-")
    with scratch as tmp, recording(SERVICE_STATS):
        root = Path(tmp) / "svc"
        config = ServiceConfig(
            root=root, workers=0, executor=_stub_executor(calls)
        )
        runtime = JobRuntime(config)

        # The experiment: three identical submissions (dedup), one
        # distinct (so the journal shows two lifecycles), all executed.
        params = {"kernel": "corner_turn", "machine": "viram"}
        submissions = [runtime.submit("run", params) for _ in range(3)]
        other = runtime.submit("run", {"kernel": "cslc", "machine": "raw"})
        runtime.run_pending()

        # -- dedup conservation ---------------------------------------
        outcomes = [s.outcome for s in submissions]
        deduped = SERVICE_STATS.get("deduped")
        admitted = SERVICE_STATS.get("admitted")
        same_job = len({s.job.id for s in submissions}) == 1
        executions = sum(
            1 for c in calls if c["params"] == params
        )
        if (
            outcomes == ["admitted", "deduped", "deduped"]
            and same_job
            and deduped == 2
            and admitted == 2  # the identical trio once + `other`
            and executions == 1
        ):
            results.append(
                CheckResult(
                    "invariant.service.dedup", PASS,
                    "3 identical requests -> 1 admission, 1 execution "
                    "(service.deduped +2)",
                )
            )
        else:
            results.append(
                CheckResult(
                    "invariant.service.dedup", FAIL,
                    f"outcomes={outcomes} same_job={same_job} "
                    f"deduped={deduped} admitted={admitted} "
                    f"executions={executions} — expected 1 admission and "
                    "1 execution for 3 identical requests",
                )
            )

        # -- journal schema/seq, with torn-tail healing ---------------
        records, corrupt, _end = read_log(runtime.journal.path)
        problems = validate_records(records)
        if corrupt:
            problems.append(f"{len(corrupt)} unparseable line(s)")
        journal_len = len(records)
        # Tear the tail the way a crash mid-append would, then reopen.
        with open(runtime.journal.path, "ab") as fh:
            fh.write(b'{"schema": 1, "seq": 9999, "job": "tor')
        healed = JobJournal(runtime.journal.path)
        records2, corrupt2, _end = read_log(healed.path)
        quarantine = healed.path.with_suffix(".quarantine")
        if (
            not problems
            and healed.torn_tails_healed == 1
            and not corrupt2
            and len(records2) == journal_len
            and not validate_records(records2)
            and quarantine.is_file()
        ):
            results.append(
                CheckResult(
                    "invariant.service.journal", PASS,
                    f"{journal_len} records, seq gapless; torn tail "
                    "quarantined and healed on reopen",
                )
            )
        else:
            results.append(
                CheckResult(
                    "invariant.service.journal", FAIL,
                    f"problems={problems[:3]} healed="
                    f"{healed.torn_tails_healed} corrupt_after="
                    f"{len(corrupt2)} records {journal_len}->"
                    f"{len(records2)} quarantine={quarantine.is_file()}",
                )
            )

        # -- state machine --------------------------------------------
        shape_errors: List[str] = []
        for state in jobmod.TERMINAL_STATES:
            if jobmod.LEGAL_TRANSITIONS.get(state):
                shape_errors.append(f"terminal {state} has exits")
        if jobmod.LEGAL_TRANSITIONS.get(None) != (jobmod.PENDING,):
            shape_errors.append("birth state is not exactly PENDING")
        backward = [
            (cur, new)
            for cur, nexts in jobmod.LEGAL_TRANSITIONS.items()
            for new in nexts
            if cur is not None
            and jobmod.STATES.index(new) < jobmod.STATES.index(cur)
        ]
        if backward != [(jobmod.RUNNING, jobmod.PENDING)]:
            shape_errors.append(
                f"backward edges {backward} != [RUNNING -> PENDING]"
            )
        done_job = other.job
        try:
            runtime._transition(done_job, jobmod.RUNNING)
            shape_errors.append(
                "runtime accepted DONE -> RUNNING (terminal state reopened)"
            )
        except ServiceError:
            pass
        results.append(
            CheckResult(
                "invariant.service.state-machine",
                PASS if not shape_errors else FAIL,
                (
                    "transition table shaped for durability; illegal "
                    "transition refused"
                    if not shape_errors
                    else "; ".join(shape_errors[:3])
                ),
            )
        )

        # -- crash replay converges -----------------------------------
        crash_params = {"kernel": "beam_steering", "machine": "imagine"}
        crashed = runtime.submit("run", crash_params)
        # Take the job to RUNNING and "crash": no DONE record, no result.
        runtime._transition(crashed.job, jobmod.RUNNING)
        reborn = JobRuntime(
            ServiceConfig(root=root, workers=0,
                          executor=_stub_executor(calls))
        )
        reborn.run_pending()
        replayed_job = reborn.get(crashed.job.id)
        replayed_text = reborn.result_text(crashed.job.id)
        # The reference: the same request on a pristine root.
        fresh = JobRuntime(
            ServiceConfig(root=Path(tmp) / "fresh", workers=0,
                          executor=_stub_executor(calls))
        )
        ref = fresh.submit("run", crash_params)
        fresh.run_pending()
        ref_text = fresh.result_text(ref.job.id)
        if (
            reborn.replayed_jobs == 1
            and replayed_job is not None
            and replayed_job.state == jobmod.DONE
            and replayed_job.replays == 1
            and replayed_text is not None
            and replayed_text == ref_text
        ):
            results.append(
                CheckResult(
                    "invariant.service.replay", PASS,
                    "RUNNING-at-crash job re-queued, completed, result "
                    "byte-identical to an uninterrupted run",
                )
            )
        else:
            results.append(
                CheckResult(
                    "invariant.service.replay", FAIL,
                    f"replayed={reborn.replayed_jobs} state="
                    f"{getattr(replayed_job, 'state', None)} replays="
                    f"{getattr(replayed_job, 'replays', None)} "
                    f"bytes_equal={replayed_text == ref_text}",
                )
            )
    return results
