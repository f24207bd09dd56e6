"""The disk store's lock: the kernel's ``flock`` and nothing else.

:class:`repro.perf.index._FlockGuard` takes ``LOCK_EX`` on
``<root>/.lock`` and releases it on exit.  The kernel drops a flock
when its holder exits, however it exits, so the guard never unlinks or
rewrites the file.  These tests pin that with real contention: a
contender waits for a live holder in another process, an old record
left in the file is ignored, and two acquirers are never inside at
once.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.perf.index import _FlockGuard

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


def _plant_old_record(lock: Path) -> bytes:
    """Leave what an older store wrote: an hour-old holder record
    naming a pid that is not running."""
    record = json.dumps({"pid": 999999, "time": time.time() - 3600})
    raw = record.encode("ascii").ljust(64)
    lock.write_bytes(raw)
    old = time.time() - 3600
    os.utime(lock, (old, old))
    return raw


class TestContention:
    def test_contender_waits_instead_of_breaking(self, tmp_path):
        lock = tmp_path / "cache.lock"
        holder, release = _spawn_holder(tmp_path, lock)
        try:
            outcome = {}

            def contend():
                with _FlockGuard(lock) as guard:
                    outcome["acquired"] = guard._fh is not None

            contender = threading.Thread(target=contend)
            contender.start()
            # The contender blocks in flock() while the holder is
            # demonstrably alive.  It must still be waiting, on an
            # intact lock file.
            time.sleep(0.5)
            assert contender.is_alive(), (
                "contender did not wait for a live holder"
            )
            assert lock.exists()
            assert holder.poll() is None

            release.touch()  # holder exits, releasing the flock
            contender.join(timeout=30)
            assert not contender.is_alive()
            assert outcome.get("acquired")
            assert lock.read_bytes() == b"", "the lock file holds no record"
        finally:
            release.touch()
            holder.wait(timeout=30)

    def test_parked_contender_never_overlaps(self, tmp_path, monkeypatch):
        # B is parked in os.kill (where a pid check would sit) until A
        # holds the lock; whatever B does after that, A and B are never
        # inside at once.
        lock = tmp_path / ".lock"
        _plant_old_record(lock)
        b_ready = threading.Event()
        a_holds = threading.Event()
        real_kill = os.kill

        def parking_kill(pid, sig):
            if threading.current_thread().name == "B":
                b_ready.set()
                a_holds.wait(timeout=10)
            return real_kill(pid, sig)

        monkeypatch.setattr(os, "kill", parking_kill)
        mutex = threading.Lock()
        inside = [0]
        peak = [0]

        def hold(on_enter, seconds):
            with _FlockGuard(lock):
                with mutex:
                    inside[0] += 1
                    peak[0] = max(peak[0], inside[0])
                on_enter.set()
                time.sleep(seconds)
                with mutex:
                    inside[0] -= 1

        b = threading.Thread(target=hold, args=(b_ready, 0.2), name="B")
        a = threading.Thread(target=hold, args=(a_holds, 0.3), name="A")
        b.start()
        # B is either parked in os.kill or already inside the lock.
        assert b_ready.wait(timeout=10)
        a.start()
        a.join(timeout=30)
        b.join(timeout=30)
        assert not a.is_alive() and not b.is_alive()
        assert a_holds.is_set()
        assert peak[0] == 1, "two acquirers were inside the lock at once"


class TestLockFile:
    def test_old_record_keeps_its_inode(self, tmp_path):
        lock = tmp_path / ".lock"
        planted = _plant_old_record(lock)
        fd = os.open(lock, os.O_RDONLY)
        try:
            with _FlockGuard(lock) as guard:
                assert guard._fh is not None
            assert os.fstat(fd).st_nlink == 1, "the lock file was unlinked"
            assert lock.read_bytes() == planted, "the record is ignored"
        finally:
            os.close(fd)

    def test_without_fcntl_the_guard_is_a_no_op(self, tmp_path, monkeypatch):
        from repro.resilience.doctor import WARN, probe_lock

        monkeypatch.setenv("REPRO_DISK_CACHE_DIR", str(tmp_path))
        monkeypatch.setitem(sys.modules, "fcntl", None)  # import fails
        with _FlockGuard(tmp_path / ".lock") as guard:
            assert guard._fh is None
        result = probe_lock()
        assert result.status == WARN
        assert "flock unavailable" in result.detail
