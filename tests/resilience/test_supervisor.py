"""Tests for the supervised process-pool executor
(:mod:`repro.resilience.supervisor`).

The worker tasks live at module level so the pool can pickle them; the
"fail exactly once" tasks coordinate through ``O_CREAT|O_EXCL`` token
files, the same cross-process budget mechanism the chaos harness uses.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.errors import (
    DeadlineExceeded,
    MappingError,
    TransientError,
    WorkerCrashError,
)
from repro.resilience.stats import RESILIENCE
from repro.resilience.supervisor import (
    RetryPolicy,
    Supervisor,
    default_policy,
)

#: Fast policy for tests: tight backoff, generous deadline.
FAST = RetryPolicy(max_retries=2, backoff=0.001, deadline=60.0)

NO_SLEEP = staticmethod(lambda s: None)


def _claim(token: str) -> bool:
    """First caller (across processes) wins the token."""
    try:
        fd = os.open(token, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def _echo_chunk(cells):
    return [value * 2 for value in cells]


def _kill_once_chunk(cells):
    for value, token in cells:
        if token and _claim(token):
            os.kill(os.getpid(), signal.SIGKILL)
    return [value * 2 for value, _ in cells]


def _hang_once_chunk(cells):
    import time

    for value, token in cells:
        if token and _claim(token):
            time.sleep(5.0)
    return [value * 2 for value, _ in cells]


def _hang_always_chunk(cells):
    import time

    time.sleep(5.0)
    return list(cells)


def _poison_chunk(cells):
    out = []
    for cell in cells:
        if cell == "poison":
            os.kill(os.getpid(), signal.SIGKILL)
        out.append(cell.upper())
    return out


def _raise_chunk(cells):
    raise MappingError("boom from the work itself")


class TestRetryPolicy:
    def test_delay_is_deterministic(self):
        policy = RetryPolicy(backoff=0.1, jitter=0.5)
        assert policy.delay(2, token="t") == policy.delay(2, token="t")

    def test_delay_grows_exponentially(self):
        policy = RetryPolicy(backoff=0.1, multiplier=2.0, jitter=0.0)
        assert policy.delay(1) == pytest.approx(2.0 * policy.delay(0))

    def test_jitter_stays_within_fraction(self):
        policy = RetryPolicy(backoff=0.1, multiplier=1.0, jitter=0.25)
        for attempt in range(8):
            delay = policy.delay(attempt, token="x")
            assert 0.075 <= delay <= 0.125

    def test_default_policy_reads_environment(self, monkeypatch):
        # Only the deadline is environment-tunable; the retry budget
        # and backoff are RetryPolicy's defaults.
        monkeypatch.setenv("REPRO_CHUNK_DEADLINE", "12.5")
        policy = default_policy()
        assert policy == RetryPolicy(deadline=12.5)

    def test_zero_deadline_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHUNK_DEADLINE", "0")
        assert default_policy().deadline is None


class TestSupervisorHappyPath:
    def test_results_in_chunk_order(self):
        sup = Supervisor(2, policy=FAST, task=_echo_chunk, sleep=lambda s: None)
        assert sup.run([[1, 2], [3], [4, 5]]) == [[2, 4], [6], [8, 10]]

    def test_empty_chunk_list(self):
        sup = Supervisor(2, policy=FAST, task=_echo_chunk)
        assert sup.run([]) == []


class TestWorkerCrashRecovery:
    def test_sigkilled_worker_is_retried(self, tmp_path):
        token = str(tmp_path / "kill.token")
        chunks = [[(1, token), (2, None)], [(3, None)]]
        before = RESILIENCE.get("retries")
        crashes = RESILIENCE.get("worker_crashes")
        restarts = RESILIENCE.get("pool_restarts")
        sup = Supervisor(2, policy=FAST, task=_kill_once_chunk,
                         sleep=lambda s: None)
        assert sup.run(chunks) == [[2, 4], [6]]
        assert RESILIENCE.get("retries") > before
        assert RESILIENCE.get("worker_crashes") > crashes
        assert RESILIENCE.get("pool_restarts") > restarts

    def test_poisoned_cell_isolated_and_reported(self, tmp_path):
        chunks = [["alpha", "poison", "beta"]]
        policy = RetryPolicy(max_retries=1, backoff=0.001, deadline=60.0)
        sup = Supervisor(2, policy=policy, task=_poison_chunk,
                         sleep=lambda s: None)
        isolated = RESILIENCE.get("isolated_cells")
        failed = RESILIENCE.get("failed_cells")
        with pytest.raises(WorkerCrashError) as excinfo:
            sup.run(chunks)
        assert RESILIENCE.get("isolated_cells") == isolated + 3
        assert RESILIENCE.get("failed_cells") == failed + 1
        incident = excinfo.value.incident
        assert incident["failed_cells"] == [
            {
                "chunk": 0,
                "cell": 1,
                "attempts": 2,
                "error": incident["failed_cells"][0]["error"],
            }
        ]
        assert "BrokenProcessPool" in incident["failed_cells"][0]["error"]


class TestTransitionsAreRecorded:
    def test_each_count_equals_what_its_events_carry(self):
        # A poisoned cell crashes its chunk, then its isolated retries:
        # every retry and crash, isolated ones included, is one
        # supervisor.* event beside its count.
        from repro.obs.ledger import recording

        chunks = [["alpha", "poison", "beta"], ["gamma"]]
        policy = RetryPolicy(max_retries=1, backoff=0.001, deadline=60.0)
        sup = Supervisor(2, policy=policy, task=_poison_chunk,
                         sleep=lambda s: None)
        with recording(RESILIENCE) as recorder:
            with pytest.raises(WorkerCrashError):
                sup.run(chunks)
            counts = RESILIENCE.snapshot()
        events = [(e["kind"], e["payload"]) for e in recorder.events]

        def carried(kind, field=None):
            return sum(
                payload[field] if field else 1
                for k, payload in events if k == f"supervisor.{kind}"
            )

        # How many chunks the first crash takes down depends on timing;
        # the poisoned cell's own retry and two crashes always happen.
        assert counts["retries"] >= 2 and counts["worker_crashes"] >= 3
        assert counts["retries"] == carried("retry", "chunks")
        assert counts["worker_crashes"] == carried("worker_crash")
        assert counts["pool_restarts"] == carried("pool_restart")
        assert counts["isolated_cells"] == carried("isolate", "cells")
        assert counts["failed_cells"] == carried("cell_failed") == 1
        assert counts["deadline_exceeded"] == carried("deadline_exceeded")
        assert carried("incident") == 1


class TestDeadline:
    def test_hung_chunk_retried_after_deadline(self, tmp_path):
        token = str(tmp_path / "hang.token")
        policy = RetryPolicy(max_retries=2, backoff=0.001, deadline=1.0)
        sup = Supervisor(2, policy=policy, task=_hang_once_chunk,
                         sleep=lambda s: None)
        exceeded = RESILIENCE.get("deadline_exceeded")
        assert sup.run([[(5, token)]]) == [[10]]
        assert RESILIENCE.get("deadline_exceeded") > exceeded

    def test_always_hanging_cell_raises_deadline_exceeded(self):
        policy = RetryPolicy(max_retries=0, backoff=0.001, deadline=0.5)
        sup = Supervisor(1, policy=policy, task=_hang_always_chunk,
                         sleep=lambda s: None)
        with pytest.raises(DeadlineExceeded) as excinfo:
            sup.run([[1]])
        failed = excinfo.value.incident["failed_cells"]
        assert failed and failed[0]["chunk"] == 0


class TestErrorClassification:
    def test_mapping_error_propagates_unchanged(self):
        sup = Supervisor(2, policy=FAST, task=_raise_chunk,
                         sleep=lambda s: None)
        with pytest.raises(MappingError, match="boom from the work"):
            sup.run([[1], [2]])

    def test_pool_spawn_failure_raises_transient(self, monkeypatch):
        import concurrent.futures

        class ExplodingPool:
            def __init__(self, *args, **kwargs):
                raise OSError("no fork in this sandbox")

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", ExplodingPool
        )
        sup = Supervisor(2, policy=FAST, task=_echo_chunk)
        with pytest.raises(TransientError, match="pool unavailable"):
            sup.run([[1]])

    def test_unpicklable_payload_raises_transient(self):
        sup = Supervisor(2, policy=FAST, task=_echo_chunk,
                         sleep=lambda s: None)
        with pytest.raises(TransientError):
            sup.run([[lambda: None]])
