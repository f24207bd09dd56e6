"""Output checks and the parent-vs-change comparison rule."""

import json
import shutil
import subprocess
import sys

import pytest

import compare
import run
import workloads

ROOT = workloads.BENCH_DIR.parent


def _served_outcome(tmp_path, tamper):
    ctx = workloads.Context(root=ROOT, work=tmp_path, seed=0,
                            seconds=_run_seconds())
    workload = workloads.ServeJobs()
    workload.start(ctx)
    job = {"kind": "run",
           "params": {"kernel": "beam_steering", "machine": "raw", "seed": 7}}
    key = workloads.job_key(job)
    with workloads.in_process(ctx):
        from repro.service.execute import execute_job, result_text

        body = result_text(execute_job(job["kind"], job["params"])).encode()
    if tamper:
        body = body[:10] + bytes([body[10] ^ 1]) + body[11:]
    workload.results[key] = body
    outcome = workloads.Outcome(
        rounds=[workloads.Round(
            setup_s=0.1,
            ops=[workloads.Op(0.05, True, key=key),
                 workloads.Op(0.05, True, key="other")])],
        paper_ratios=[], problems=[])
    workload.verify(ctx, outcome)
    return run.summarize(ctx, workload, outcome)


def test_a_tampered_output_byte_fails_its_op(tmp_path):
    clean = _served_outcome(tmp_path, tamper=False)
    assert clean["correct"] and clean["failed"] == 0
    tampered = _served_outcome(tmp_path, tamper=True)
    assert not tampered["correct"]
    assert tampered["failed"] == 1 and tampered["failed_frac"] == 0.5


def test_paper_error_is_read_from_the_reports_table3_checks():
    report = (ROOT / "tests" / "data" / "golden" / "report.txt").read_bytes()
    ratios = workloads.table3_ratios(report)
    assert len(ratios) == 15  # one per kernel x machine cell
    assert max(abs(r - 1) for r in ratios) == pytest.approx(0.12)


def _run_seconds():
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def _bench(cwd, seconds):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "report-cold",
         "--seed", "0", "--seconds", str(seconds), "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=60,
    )


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(tmp_path, _run_seconds())
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "not a checkout" in proc.stderr


def test_refuses_another_run_length():
    proc = _bench(ROOT, _run_seconds() + 1)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "run_seconds" in proc.stderr


def _results(path, seed, failed, values):
    sets = [{"w": {"failed": failed, "copies": {"b": "a"},
                   "metrics": {"a": {"value": v}, "b": {"value": v}}}}
            for v in values]
    path.write_text(json.dumps({"args": {"seed": seed}, "sets": sets}))
    return path


def test_compare_pairs_only_like_runs_and_counts_failures(tmp_path):
    spec = {"a": ("lower", 0.1), "b": ("lower", 0.1)}
    args = {"seed": 1}
    parent = compare.runs([_results(tmp_path / "p", 1, 0, [1.0] * 10)], args)
    change = compare.runs([_results(tmp_path / "c", 1, 0, [0.5] * 10)], args)
    failing = compare.runs([_results(tmp_path / "f", 1, 1, [0.5] * 10)],
                           args)
    row = compare.compare(parent, change, spec)["w"]
    assert set(row["metrics"]) == {"a"}  # "b" is a copy of "a"
    assert row["metrics"]["a"]["status"] == "improved"
    row = compare.compare(parent, failing, spec)["w"]
    assert row["metrics"]["a"]["status"] == "unchanged"
    with pytest.raises(compare.MismatchError):
        compare.runs([_results(tmp_path / "s", 2, 0, [1.0])], args)


def test_comparison_rule():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.01, 0.99]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.2 for v in parent]
    assert compare.verdict(parent, faster, "lower", 0.1)["status"] == (
        "improved")
    assert compare.verdict(parent, slower, "lower", 0.1)["status"] == (
        "regressed")
    assert compare.verdict(parent, parent, "lower", 0.1)["status"] == (
        "unchanged")
    # Ties count for neither side, so equal runs never win.
    assert compare.verdict(parent, parent, "lower", 0.1)["win_frac"] == 0
    # Nine pairs are too few to claim a gain.
    assert compare.verdict(parent[:9], faster[:9], "lower", 0.1)[
        "status"] == "unchanged"
    noisy = [1.0, 1.5, 0.7, 1.3, 0.8, 1.4, 0.6, 1.2, 0.9, 1.1]
    assert compare.verdict(noisy, noisy, "higher", 0.1)["status"] == (
        "unresolved")
