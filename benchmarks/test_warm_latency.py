"""Warm-path latency guard (``BENCH_PR9.json``).

PR 9's tentpole: a fully-cached fresh-process ``repro report`` must be
*interactive* — under 0.9s, at least 2x better than the 1.9s BENCH_PR4
measured for the same pass — without giving back the cold-path wins
(cold report stays ≤ 4.9s, BENCH_PR6's envelope).  Fresh interpreters
run four passes:

* **cold x2** — each against its own empty store: every cell simulates
  and is persisted through the packed index's ``put_many``;
* **warm x2** — the next two processes are served entirely by the
  packed index (one sequential manifest read + batched ``get_many``):
  zero misses, zero writes, byte-identical output.

Two warm passes rather than one so the guard also proves the warm path
is *stable* — the second pass re-reads a manifest the first one
already touched (atime updates, probe telemetry) and must see the same
bytes.  Timings are taken inside each child around ``full_report()``
so interpreter startup does not pollute the comparison; the separate
lazy-import tests guard startup itself.

``warm_report_seconds`` is declared in ``gated_time_metrics``: the
PR 8 regress gate *enforces* it (one-sided, +50%) instead of treating
it as cross-machine context — this file is refreshed by ``make
bench-warm`` on the measuring machine.

Run via ``make bench-warm``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from bench_utils import write_bench

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_REPORT = REPO_ROOT / "tests" / "data" / "golden" / "report.txt"

#: Warm target (seconds) and the cold ceiling the PR must not regress.
WARM_BUDGET = 0.9
COLD_BUDGET = 4.9

_REPORT_CHILD = """
import json, sys, time
from repro.eval.report import full_report  # import outside the clock

t0 = time.perf_counter()
text = full_report()
elapsed = time.perf_counter() - t0

from repro.perf.diskcache import DISK_CACHE

with open(sys.argv[1], "w") as fh:
    json.dump({
        "seconds": elapsed,
        "disk": DISK_CACHE.stats(),
        "index": DISK_CACHE.index_stats(),
    }, fh)
sys.stdout.write(text + "\\n")
"""


def _run_child(disk_dir, result_path):
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
        [sys.executable, "-c", _REPORT_CHILD, str(result_path)],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
        check=True,
        timeout=600,
    )
    return proc.stdout, json.loads(Path(result_path).read_text())


def test_warm_report_meets_interactive_budget(benchmark, tmp_path):
    disk_dir = tmp_path / "tier2"

    # Two independent cold passes (each against its own empty store) and
    # two warm passes; budgets are held against the *minimum* of each —
    # the standard least-noise latency estimate, since a shared CI box
    # can stall any single pass by hundreds of milliseconds.
    cold_stdout, cold = _run_child(disk_dir, tmp_path / "cold.json")
    _, cold2 = _run_child(tmp_path / "tier2-cold2", tmp_path / "cold2.json")
    cold_seconds = min(cold["seconds"], cold2["seconds"])
    warm1_stdout, warm1 = _run_child(disk_dir, tmp_path / "warm1.json")

    def warm_fresh_process():
        return _run_child(disk_dir, tmp_path / "warm2.json")

    warm2_stdout, warm2 = benchmark.pedantic(
        warm_fresh_process, rounds=1, iterations=1
    )

    # Byte-identity: cold, both warm passes, and the pinned golden.
    assert warm1_stdout == cold_stdout
    assert warm2_stdout == cold_stdout
    assert cold_stdout == GOLDEN_REPORT.read_text()

    # The warm passes were pure index reads: nothing simulated fresh
    # enough to miss, nothing written back, nothing corrupt.
    for warm in (warm1, warm2):
        assert warm["disk"]["misses"] == 0
        assert warm["disk"]["writes"] == 0
        assert warm["disk"]["hits"] >= 15
        assert warm["disk"]["corrupt"] == 0

    warm_seconds = min(warm1["seconds"], warm2["seconds"])
    assert warm_seconds < WARM_BUDGET, (
        f"warm fresh-process report took {warm_seconds:.2f}s "
        f"(budget {WARM_BUDGET}s); the warm path has regressed"
    )
    assert cold_seconds <= COLD_BUDGET, (
        f"cold report took {cold_seconds:.2f}s "
        f"(budget {COLD_BUDGET}s); the warm path bought latency "
        "by selling the cold path"
    )

    payload = {
        "warm_report_seconds": warm_seconds,
        "warm_repeat_seconds": max(warm1["seconds"], warm2["seconds"]),
        "cold_report_seconds": cold_seconds,
        "warm_speedup_vs_cold": cold_seconds / warm_seconds,
        "index_entries": warm2["index"]["entries"],
        "index_logs": warm2["index"]["logs"],
        "index_probe_p99_us": warm2["index"]["p99_us"],
        "warm_disk_stats": warm2["disk"],
    }
    write_bench(
        REPO_ROOT / "BENCH_PR9.json",
        payload,
        gated_time_metrics=["warm_report_seconds"],
    )
    benchmark.extra_info.update(payload)
