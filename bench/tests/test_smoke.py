"""One short run of every workload through the real program."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(run.ROOT)


def _tree(path: Path):
    """Every file under ``path`` with its size and mtime."""
    if not path.exists():
        return None
    return sorted(
        (str(p), p.stat().st_size, p.stat().st_mtime_ns)
        for p in path.rglob("*") if p.is_file()
    )


def _git_status():
    if not (ROOT / ".git").exists():
        return None
    return subprocess.run(
        ["git", "status", "--porcelain", "--ignored=no"], cwd=ROOT,
        capture_output=True, text=True, check=True,
    ).stdout


@pytest.fixture(scope="module")
def smoke():
    guarded = [Path.home() / ".cache" / "repro", ROOT / ".repro"]
    before = [_tree(p) for p in guarded], _git_status()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke", "--seed", "5"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    after = [_tree(p) for p in guarded], _git_status()
    return proc, before, after


def test_smoke_emits_every_end_to_end_metric(smoke):
    proc, _, _ = smoke
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    for workload in run.workloads.WORKLOADS:
        for name, unit, _better in run.END_TO_END:
            entry = result["metrics"][f"{workload}.{name}"]
            assert entry["unit"] == unit
            assert entry["value"] > 0, (workload, name)


def test_smoke_leaves_no_trace_outside_its_work_directory(smoke):
    proc, before, after = smoke
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert before == after
