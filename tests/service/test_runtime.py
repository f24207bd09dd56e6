"""Tests for the job runtime: dedup, admission ladder, replay, drain."""

from __future__ import annotations

import threading

import pytest

from repro.errors import ServiceError
from repro.service.jobs import DONE, FAILED, PENDING, RUNNING
from repro.service.runtime import JobRuntime, ServiceConfig
from repro.service.stats import SERVICE_STATS


def _counting_executor(calls):
    def execute(kind, params, jobs=None):
        calls.append((kind, dict(params)))
        return {"kind": kind, "params": dict(params)}

    return execute


@pytest.fixture
def calls():
    return []


@pytest.fixture
def runtime(tmp_path, calls):
    return JobRuntime(
        ServiceConfig(
            root=tmp_path / "svc", workers=0,
            executor=_counting_executor(calls),
        )
    )


RUN = {"kernel": "corner_turn", "machine": "viram"}


class TestDedup:
    def test_identical_requests_collapse(self, runtime, calls):
        first = runtime.submit("run", RUN)
        second = runtime.submit("run", RUN)
        assert first.outcome == "admitted"
        assert second.outcome == "deduped"
        assert first.job.id == second.job.id
        assert runtime.run_pending() == 1
        assert len(calls) == 1

    def test_done_job_still_dedups_after_restart(self, runtime, calls,
                                                 tmp_path):
        jid = runtime.submit("run", RUN).job.id
        runtime.run_pending()
        reborn = JobRuntime(
            ServiceConfig(root=tmp_path / "svc", workers=0,
                          executor=_counting_executor(calls))
        )
        again = reborn.submit("run", RUN)
        assert again.outcome == "deduped"
        assert again.job.id == jid
        assert reborn.run_pending() == 0  # nothing to recompute
        assert len(calls) == 1

    def test_distinct_params_are_distinct_jobs(self, runtime):
        a = runtime.submit("run", RUN)
        b = runtime.submit("run", dict(RUN, seed=1))
        assert a.job.id != b.job.id
        assert b.outcome == "admitted"


class TestAdmissionLadder:
    def test_saturated_queue_rejects_everything(self, tmp_path, calls):
        runtime = JobRuntime(
            ServiceConfig(root=tmp_path / "svc", workers=0, max_queue=2,
                          executor=_counting_executor(calls))
        )
        runtime.submit("run", RUN)
        runtime.submit("run", dict(RUN, seed=1))
        refused = runtime.submit("run", dict(RUN, seed=2))
        assert refused.outcome == "rejected_saturated"
        assert refused.rejected
        assert refused.retry_after_s >= 1
        assert refused.job is None

    def test_watermark_sheds_heavy_kinds_first(self, tmp_path, calls):
        runtime = JobRuntime(
            ServiceConfig(root=tmp_path / "svc", workers=0, max_queue=4,
                          executor=_counting_executor(calls))
        )
        runtime.submit("run", RUN)
        runtime.submit("run", dict(RUN, seed=1))  # depth 2 == watermark
        shed = runtime.submit("sweep", {"cells": [RUN]})
        light = runtime.submit("run", dict(RUN, seed=2))
        assert shed.outcome == "rejected_shed"
        assert light.outcome == "admitted"

    def test_draining_rejects_with_503_outcome(self, runtime):
        runtime.drain(timeout=1)
        refused = runtime.submit("run", RUN)
        assert refused.outcome == "rejected_draining"

    def test_invalid_kind_raises_and_counts(self, runtime):
        before = SERVICE_STATS.get("rejected_invalid")
        with pytest.raises(ServiceError):
            runtime.submit("meltdown", {})
        assert SERVICE_STATS.get("rejected_invalid") == before + 1


class TestExecution:
    def test_failure_is_terminal_with_error(self, tmp_path):
        def explode(kind, params, jobs=None):
            raise ValueError("boom")

        runtime = JobRuntime(
            ServiceConfig(root=tmp_path / "svc", workers=0,
                          executor=explode)
        )
        job = runtime.submit("run", RUN).job
        runtime.run_pending()
        assert job.state == FAILED
        assert "ValueError" in job.error
        assert runtime.result_text(job.id) is None

    def test_result_bytes_are_canonical(self, runtime):
        job = runtime.submit("run", RUN).job
        runtime.run_pending()
        text = runtime.result_text(job.id)
        assert text is not None and text.endswith("\n")
        assert job.result_digest is not None
        assert job.state == DONE

    def test_deadline_reaches_supervisor_policy(self, tmp_path):
        from repro.resilience.supervisor import default_policy

        seen = []

        def probe(kind, params, jobs=None):
            seen.append(default_policy().deadline)
            return {}

        runtime = JobRuntime(
            ServiceConfig(root=tmp_path / "svc", workers=0,
                          executor=probe)
        )
        runtime.submit("run", RUN, deadline_s=7.5)
        runtime.run_pending()
        assert seen == [7.5]

    def test_workers_execute_asynchronously(self, tmp_path, calls):
        runtime = JobRuntime(
            ServiceConfig(root=tmp_path / "svc", workers=1,
                          executor=_counting_executor(calls))
        )
        runtime.start()
        job = runtime.submit("run", RUN).job
        assert runtime.wait(job.id, timeout=10)
        assert job.state == DONE
        census = runtime.drain(timeout=10)
        assert census["done"] == 1

    def test_validated_report_job_counts_only_itself(self, tmp_path):
        # The report's embedded checks run their own scratch jobs, a
        # staged degradation and a staged quarantine; none of that may
        # reach the counters a live server's /v1/telemetry returns.
        from repro.resilience.stats import RESILIENCE

        incidents = len(RESILIENCE.incidents())
        before = RESILIENCE.snapshot()
        runtime = JobRuntime(ServiceConfig(root=tmp_path / "svc", workers=0))
        job = runtime.submit("report", {"validate": True}).job
        runtime.run_pending()
        assert job.state == DONE
        assert "verdict: OK" in runtime.result_text(job.id)
        counts = SERVICE_STATS.snapshot()
        assert counts["submitted"] == 1
        assert counts["admitted"] == 1
        assert counts["completed"] == 1
        assert counts["deduped"] == counts["replayed"] == 0
        assert len(RESILIENCE.incidents()) == incidents
        assert RESILIENCE.snapshot() == before


class TestReplay:
    def test_running_job_is_replayed_on_restart(self, tmp_path, calls):
        config = ServiceConfig(root=tmp_path / "svc", workers=0,
                               executor=_counting_executor(calls))
        runtime = JobRuntime(config)
        job = runtime.submit("run", RUN).job
        runtime._transition(job, RUNNING)  # crash: RUNNING, no result

        reborn = JobRuntime(
            ServiceConfig(root=tmp_path / "svc", workers=0,
                          executor=_counting_executor(calls))
        )
        assert reborn.replayed_jobs == 1
        assert reborn.run_pending() == 1
        replayed = reborn.get(job.id)
        assert replayed.state == DONE
        assert replayed.replays == 1

    def test_pending_job_survives_restart(self, tmp_path, calls):
        runtime = JobRuntime(
            ServiceConfig(root=tmp_path / "svc", workers=0,
                          executor=_counting_executor(calls))
        )
        job = runtime.submit("run", RUN).job
        reborn = JobRuntime(
            ServiceConfig(root=tmp_path / "svc", workers=0,
                          executor=_counting_executor(calls))
        )
        assert reborn.get(job.id).state == PENDING
        assert reborn.run_pending() == 1
        assert reborn.get(job.id).state == DONE

    def test_illegal_transition_is_refused(self, runtime):
        job = runtime.submit("run", RUN).job
        runtime.run_pending()
        with pytest.raises(ServiceError):
            runtime._transition(job, RUNNING)


class TestConcurrency:
    def test_concurrent_identical_submissions_one_admission(
        self, runtime
    ):
        outcomes = []
        barrier = threading.Barrier(8)

        def submit():
            barrier.wait()
            outcomes.append(runtime.submit("run", RUN).outcome)

        threads = [threading.Thread(target=submit) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(outcomes) == ["admitted"] + ["deduped"] * 7
