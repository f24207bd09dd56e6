"""Two live processes contending for the disk-cache lock.

The stale-lock breaker in :class:`repro.perf.index._FlockGuard` is
deliberately conservative: it only unlinks a lock whose *recorded
holder pid is provably dead* AND whose file has gone untouched for
:data:`~repro.perf.index.STALE_LOCK_AGE` seconds.  These tests pin
both halves of that policy with real processes — a lock held by a live
process is never broken (even when its mtime is artificially ancient),
while a dead holder's aged leftover is.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.perf.index import STALE_LOCK_AGE, _FlockGuard
from repro.resilience.stats import RESILIENCE

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork") or sys.platform == "win32",
    reason="requires POSIX flock semantics",
)

#: The holder script: take the flock, announce it, hold until told.
_HOLDER = """
import sys, time
from pathlib import Path
from repro.perf.index import _FlockGuard

lock, held, release = Path(sys.argv[1]), Path(sys.argv[2]), Path(sys.argv[3])
with _FlockGuard(lock) as guard:
    assert guard._fh is not None, "holder never acquired the flock"
    held.touch()
    for _ in range(600):
        if release.exists():
            break
        time.sleep(0.05)
"""


def _spawn_holder(tmp_path: Path, lock: Path):
    held = tmp_path / "held"
    release = tmp_path / "release"
    proc = subprocess.Popen(
        [sys.executable, "-c", _HOLDER, str(lock), str(held),
         str(release)],
        env=dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                p for p in (
                    str(Path(__file__).resolve().parents[2] / "src"),
                    os.environ.get("PYTHONPATH", ""),
                ) if p
            ),
        ),
    )
    deadline = time.monotonic() + 30
    while not held.exists():
        assert proc.poll() is None, "holder died before acquiring"
        assert time.monotonic() < deadline, "holder never acquired"
        time.sleep(0.02)
    return proc, release


class TestLiveHolderIsNeverBroken:
    def test_contender_waits_instead_of_breaking(self, tmp_path):
        import threading

        lock = tmp_path / "cache.lock"
        holder, release = _spawn_holder(tmp_path, lock)
        try:
            # Make the lock *look* stale on the age axis: hours old.
            # Only the live holder pid now stands between the breaker
            # and the unlink.
            ancient = time.time() - 10 * STALE_LOCK_AGE
            os.utime(lock, (ancient, ancient))
            broken_before = RESILIENCE.snapshot().get("locks_broken", 0)

            outcome = {}

            def contend():
                with _FlockGuard(lock) as guard:
                    outcome["acquired"] = guard._fh is not None
                    outcome["record"] = json.loads(lock.read_bytes())

            contender = threading.Thread(target=contend)
            contender.start()
            # The contender runs its stale check immediately, then
            # blocks in flock() — while the holder is demonstrably
            # alive.  It must still be waiting, on an intact lock file.
            time.sleep(0.5)
            assert contender.is_alive(), (
                "contender did not wait for a live holder"
            )
            assert lock.exists()
            assert holder.poll() is None

            release.touch()  # holder exits, releasing the flock
            contender.join(timeout=30)
            assert outcome.get("acquired")
            assert outcome["record"]["pid"] == os.getpid()
            broken_after = RESILIENCE.snapshot().get("locks_broken", 0)
            assert broken_after == broken_before, (
                "a lock with a LIVE recorded holder was broken"
            )
        finally:
            release.touch()
            holder.wait(timeout=30)

    def test_live_holder_record_blocks_breaker_directly(self, tmp_path):
        lock = tmp_path / "cache.lock"
        holder, release = _spawn_holder(tmp_path, lock)
        try:
            ancient = time.time() - 10 * STALE_LOCK_AGE
            os.utime(lock, (ancient, ancient))
            guard = _FlockGuard(lock)
            guard._break_if_stale()
            assert lock.exists(), (
                "breaker unlinked a lock whose holder is alive"
            )
        finally:
            release.touch()
            holder.wait(timeout=30)


class TestDeadHolderIsBroken:
    def test_dead_pid_plus_age_breaks(self, tmp_path):
        from repro.resilience.chaos import dead_pid

        lock = tmp_path / "cache.lock"
        lock.write_text(json.dumps({"pid": dead_pid(),
                                    "time": time.time() - 3600}))
        ancient = time.time() - 2 * STALE_LOCK_AGE
        os.utime(lock, (ancient, ancient))
        broken_before = RESILIENCE.snapshot().get("locks_broken", 0)
        _FlockGuard(lock)._break_if_stale()
        assert not lock.exists()
        assert (
            RESILIENCE.snapshot().get("locks_broken", 0)
            == broken_before + 1
        )

    def test_dead_pid_but_fresh_mtime_is_left_alone(self, tmp_path):
        from repro.resilience.chaos import dead_pid

        lock = tmp_path / "cache.lock"
        lock.write_text(json.dumps({"pid": dead_pid(),
                                    "time": time.time()}))
        _FlockGuard(lock)._break_if_stale()
        assert lock.exists(), "age guard must protect a fresh lock"

    def test_unparseable_record_is_left_alone(self, tmp_path):
        lock = tmp_path / "cache.lock"
        lock.write_bytes(b"")
        ancient = time.time() - 2 * STALE_LOCK_AGE
        os.utime(lock, (ancient, ancient))
        _FlockGuard(lock)._break_if_stale()
        assert lock.exists(), "nothing provable: the lock must survive"


class TestPolicyPins:
    def test_stale_age_is_sixty_seconds(self):
        # docs/robustness.md documents the 60 s window; a change here
        # must be a deliberate, documented decision.
        assert STALE_LOCK_AGE == 60.0
