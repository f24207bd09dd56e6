"""Tensor-engine guard (``BENCH_PR6.json``): cold report + dense sweep.

Two measurements of the tensorized sweep engine
(:mod:`repro.perf.tensorsweep`):

* **cold report** — fresh interpreter, both cache tiers empty: the
  whole ``full_report()`` pipeline, now with structure passes shared
  and evaluations batched, must land under 5 seconds (it took 9.2s at
  the PR 4 baseline — ``BENCH_PR4.json``'s ``cold_report_seconds``).
* **dense-grid speedup** — a 25-point sensitivity sweep (~1500 unique
  cells) evaluated twice from cold: once through the tensor engine,
  once with the batch registry emptied so every cell runs the scalar
  path.  The batched leg must be at least 3x faster *and* produce
  row-for-row identical elasticities — the speedup is only admissible
  because the results are bitwise the same.

The disk tier is off for the speedup legs (both would pay identical
persistence costs, diluting the engine comparison into an I/O
benchmark); the cold-report child keeps it on, matching the PR 4
methodology.

Run via ``make bench-tensor``.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from repro.eval import sensitivity
from bench_utils import write_bench
from repro.mappings import registry
from repro.perf.cache import RUN_CACHE
from repro.perf.diskcache import DISK_CACHE
from repro.perf.tensorsweep import TENSOR_STATS

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_REPORT = REPO_ROOT / "tests" / "data" / "golden" / "report.txt"

#: Grid density for the speedup legs: 25 magnitudes per constant side
#: puts ~1500 unique cells in the plan (the ISSUE floor is 1000).
POINTS = 25

#: Cold-report child: time ``full_report()`` inside a fresh interpreter
#: with empty tiers (startup excluded, exactly as BENCH_PR4 measures).
_COLD_REPORT = """
import json, sys, time
from repro.eval.report import full_report  # import outside the clock

t0 = time.perf_counter()
text = full_report()
cold = time.perf_counter() - t0

from repro.perf.tensorsweep import TENSOR_STATS

with open(sys.argv[1], "w") as fh:
    json.dump({"seconds": cold, "tensor": TENSOR_STATS.snapshot()}, fh)
sys.stdout.write(text + "\\n")
"""


def _run_child(code, disk_dir, result_path):
    env = dict(os.environ)
    env["REPRO_DISK_CACHE_DIR"] = str(disk_dir)
    env.pop("REPRO_DISK_CACHE", None)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else src
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(result_path)],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
        check=True,
        timeout=600,
    )
    return proc.stdout, json.loads(Path(result_path).read_text())


def _timed_sweep():
    RUN_CACHE.clear()
    TENSOR_STATS.reset()
    t0 = time.perf_counter()
    rows = sensitivity.sweep(points=POINTS)
    return time.perf_counter() - t0, rows, TENSOR_STATS.snapshot()


def test_tensor_engine_cold_report_and_dense_sweep(benchmark, tmp_path):
    # Leg 1: the batched dense sweep (serial, memory tier only).
    DISK_CACHE.disable()
    try:
        batched_seconds, batched_rows, batched_stats = benchmark.pedantic(
            _timed_sweep, rounds=1, iterations=1
        )[0:3]

        # The grid really was dense and really was batched.
        assert batched_stats["batched_cells"] >= 1000, batched_stats
        assert batched_stats["batches"] >= 1
        assert batched_stats["tracer_fallbacks"] == 0

        # Leg 2: the same grid with every batch entry point removed —
        # each cell pays a full scalar run, as it did before this PR.
        saved = dict(registry._BATCH_REGISTRY)
        registry._BATCH_REGISTRY.clear()
        try:
            single_seconds, single_rows, single_stats = _timed_sweep()
        finally:
            registry._BATCH_REGISTRY.update(saved)
        assert single_stats["batched_cells"] == 0
        assert single_stats["fallback_cells"] >= 1000
    finally:
        DISK_CACHE.enable()

    # Equivalence before speed: every row (cell, constant, magnitude,
    # and all three measured cycle counts) identical between legs.
    assert batched_rows == single_rows, "batched sweep diverged from scalar"

    speedup = single_seconds / batched_seconds
    assert speedup >= 3.0, (
        f"dense sweep only {speedup:.1f}x faster batched "
        f"(batched {batched_seconds:.2f}s, per-cell {single_seconds:.2f}s)"
    )

    # Leg 3: cold full_report in a fresh interpreter, empty tiers.
    cold_stdout, cold = _run_child(
        _COLD_REPORT, tmp_path / "tier2", tmp_path / "cold.json"
    )
    assert cold_stdout == GOLDEN_REPORT.read_text(), (
        "tensor-engine report drifted from the golden fixture"
    )
    assert cold["seconds"] < 5.0, (
        f"cold full_report took {cold['seconds']:.2f}s (target < 5s; "
        "PR 4 baseline was 9.2s)"
    )

    payload = {
        "cold_report_seconds": cold["seconds"],
        "cold_report_tensor_stats": cold["tensor"],
        "dense_grid_points": POINTS,
        "dense_grid_cells": batched_stats["batched_cells"]
        + batched_stats["fallback_cells"],
        "dense_grid_batches": batched_stats["batches"],
        "batched_sweep_seconds": batched_seconds,
        "per_cell_sweep_seconds": single_seconds,
        "batch_speedup": speedup,
        "rows_identical": batched_rows == single_rows,
    }
    write_bench(REPO_ROOT / "BENCH_PR6.json", payload)
    benchmark.extra_info.update(payload)
