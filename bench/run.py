"""The repository's benchmark: four workloads, end-to-end metrics, and a
traced pass that splits the wall time by layer.

    python bench/run.py                         # every workload, seed 0
    python bench/run.py --workload report-warm --seed 1
    python bench/run.py --trace 1               # per-layer pass
    python bench/run.py --sets 2                # run twice, compare sets
    python bench/run.py --smoke                 # one round per workload

The run length per workload is ``run_seconds`` in BENCHMARK.json;
``--seconds`` is accepted only with that value.

Every timing is host time: what a user of the simulator waits for.
Simulated cycles are deterministic and checked byte for byte, so a
change to them shows up as a failed op, not as a metric.  The last line
of stdout is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics`` (end-to-end metrics, or per-layer ones with
``--trace 1``); a results file with sample counts, quartiles and the
environment goes to ``bench/out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence

import layers
import workloads
from tracer import FIELDS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = BENCH_DIR / "out"

#: (name, unit, better) of the end-to-end metrics every workload reports.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_p50_s", "s", "lower"),
    ("op_p95_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("store_mb", "MB", "lower"),
    ("paper_ratio_err_max", "ratio", "lower"),
)
UNITS = {name: unit for name, unit, _ in END_TO_END + layers.METRICS}

REQUIRED = (
    Path("src") / "repro" / "__init__.py",
    Path("tests") / "data" / "golden" / "report.txt",
    Path("tests") / "data" / "golden" / "table3.csv",
)


def quartiles(values: Sequence[float]) -> Dict[str, Any]:
    """Sample count, median and quartiles (inclusive method)."""
    if not values:
        return {"n": 0}
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4,
                                              method="inclusive")
    return {"n": len(values), "q1": q1, "median": median, "q3": q3}


def percentile(values: Sequence[float], pct: int) -> float:
    if len(values) == 1 or pct == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def summarize(ctx: workloads.Context, workload: workloads.Workload,
              outcome: workloads.Outcome) -> Dict[str, Any]:
    rounds = outcome.rounds
    ops = [op for rnd in rounds for op in rnd.ops]
    failed = sum(not op.ok for op in ops)
    walls = [op.wall for op in ops if op.ok and not op.traced]
    setups = [rnd.setup_s for rnd in rounds]
    copies = {}
    if ctx.trace:
        values = workload.layers.metrics(walls)
    else:
        if workload.tail_pct == 50:
            copies["op_p95_s"] = "op_p50_s"
        values = {
            "setup_s": statistics.median(setups),
            "op_p50_s": statistics.median(walls) if walls else 0.0,
            "op_p95_s": (percentile(walls, workload.tail_pct)
                         if walls else 0.0),
            "peak_rss_mb": statistics.median(
                rnd.peak_rss_mb for rnd in rounds),
            "store_mb": statistics.median(rnd.store_mb for rnd in rounds),
            "paper_ratio_err_max": max(
                (abs(r - 1) for r in outcome.paper_ratios), default=0.0),
        }
    return {
        "correct": failed == 0 and not outcome.problems,
        "attempted": len(ops),
        "failed": failed,
        "failed_frac": failed / len(ops) if ops else 1.0,
        "rounds": len(rounds),
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in values.items()},
        # Metrics whose value is another's by construction; compare.py
        # leaves them out.
        "copies": copies,
        "timings": {"op_s": quartiles(walls), "setup_s": quartiles(setups)},
        "problems": outcome.problems,
    }


def environment(seed: int) -> Dict[str, Any]:
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        from importlib.metadata import version

        numpy_version = version("numpy")
    except Exception:  # noqa: BLE001 - a stamp, not a requirement
        numpy_version = "unknown"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
        "seed": seed,
    }


def print_summary(name: str, seed: int, summary: Dict[str, Any]) -> None:
    print(f"== {name} (seed {seed}): {summary['rounds']} rounds, "
          f"{summary['attempted']} ops, {summary['failed']} failed "
          f"(failed_frac {summary['failed_frac']:.3f}) ==")
    for metric, entry in summary["metrics"].items():
        line = f"  {metric:34s} {entry['value']:14.6g} {entry['unit']}"
        timing = {"op_p50_s": "op_s", "setup_s": "setup_s"}.get(metric)
        if timing and summary["timings"][timing]["n"]:
            t = summary["timings"][timing]
            line += (f"   n={t['n']} q1={t['q1']:.4g} "
                     f"q3={t['q3']:.4g}")
        if metric in summary["copies"]:
            line += f"   (copy of {summary['copies'][metric]})"
        print(line)
    for problem in summary["problems"]:
        print(f"  PROBLEM {problem}")


def print_sets(sets: List[Dict[str, Any]]) -> None:
    """Each end-to-end metric's relative difference between the first
    two sets, beside its bound from BENCHMARK.json."""
    bounds = {m["name"]: m["bound"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    print("== set 2 vs set 1 ==")
    for name in sets[0]:
        for metric, first in sets[0][name]["metrics"].items():
            if metric in sets[0][name]["copies"]:
                continue
            second = sets[1][name]["metrics"][metric]["value"]
            a = first["value"]
            diff = (second - a) / a if a else 0.0
            bound = bounds.get(metric, math.nan)
            flag = "ok" if abs(diff) <= bound else "OUTSIDE"
            print(f"  {name:13s} {metric:22s} {diff:+8.2%}  "
                  f"bound {bound:.1%}  {flag}")


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        action="append",
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="time budget per workload; accepted only "
                        "when it equals run_seconds in BENCHMARK.json, "
                        "which fixes the run length")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: the traced per-layer pass")
    parser.add_argument("--smoke", action="store_true",
                        help="one round per workload, 20 service jobs")
    parser.add_argument("--sets", type=int, default=1,
                        help="run the suite this many times")
    parser.add_argument("--out", type=Path, default=None,
                        help="results file (default under bench/out/)")
    args = parser.parse_args(list(argv))

    missing = [str(p) for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a checkout of the program; missing {missing}",
              file=sys.stderr)
        return 2
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        print(f"error: --seconds {args.seconds:g} differs from run_seconds "
              f"{seconds} in BENCHMARK.json; the benchmark fixes the run "
              "length", file=sys.stderr)
        return 2
    names = args.workload or list(workloads.WORKLOADS)
    env = environment(args.seed)
    if env["loadavg_before"][0] > (env["nproc"] or 1):
        print(f"warning: 1-minute load average {env['loadavg_before'][0]:.2f}"
              f" exceeds nproc={env['nproc']}; timings will be noisy",
              file=sys.stderr)

    # SIGTERM unwinds like an exception, so every child is killed and
    # reaped and the work directory removed on the way out.
    signal.signal(signal.SIGTERM, _exit_on_signal)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    ctx = workloads.Context(root=ROOT, work=work, seed=args.seed,
                            seconds=seconds, trace=bool(args.trace),
                            smoke=args.smoke)
    sets: List[Dict[str, Any]] = []
    try:
        for _ in range(args.sets):
            results: Dict[str, Any] = {}
            for name in names:
                workload = workloads.WORKLOADS[name]()
                outcome = workload.run(ctx)
                results[name] = summarize(ctx, workload, outcome)
                print_summary(name, args.seed, results[name])
                if ctx.trace:
                    write_spans(name, workload)
            sets.append(results)
    except workloads.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_after"] = os.getloadavg()
    if len(sets) > 1:
        print_sets(sets)

    mode = "trace" if ctx.trace else "e2e"
    label = names[0] if len(names) == 1 else "all"
    out = args.out or OUT / f"results-{label}-{mode}-seed{args.seed}.json"
    out.write_text(json.dumps({
        "schema": "repro-bench/1",
        "env": env,
        "args": {"workloads": names, "seed": args.seed, "seconds": seconds,
                 "trace": args.trace, "smoke": args.smoke,
                 "sets": args.sets},
        "sets": sets,
    }, indent=1) + "\n")

    final = sets[-1]
    metrics = (final[names[0]]["metrics"] if len(names) == 1 else {
        f"{name}.{metric}": entry
        for name in names for metric, entry in final[name]["metrics"].items()
    })
    print(json.dumps({
        "correct": all(s[n]["correct"] for s in sets for n in names),
        "attempted": sum(s[n]["attempted"] for s in sets for n in names),
        "failed": sum(s[n]["failed"] for s in sets for n in names),
        "metrics": metrics,
    }))
    return 0


def _exit_on_signal(signum: int, _frame: Any) -> None:
    raise SystemExit(128 + signum)


def write_spans(name: str, workload: workloads.Workload) -> None:
    """Spans of the traced processes, one JSON object per line; a span's
    ``parent`` indexes the spans of the same ``process``."""
    with open(OUT / f"spans-{name}.jsonl", "w", encoding="utf-8") as fh:
        for process, doc in enumerate(workload.span_docs):
            for span in doc.get("spans", []):
                record = dict(zip(FIELDS, span), process=process)
                fh.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
