"""Compare benchmark results of a parent commit and a change.

    python bench/compare.py --parent p1.json p2.json ... \\
                            --change c1.json c2.json ...

Each file is a results file written by ``bench/run.py``; the i-th parent
file pairs with the i-th change file, so run the two checkouts
alternately, switching which side goes first.  Every file must record
the same run arguments (workloads, seed, run length, trace, smoke,
sets); files that differ are refused.  Per workload and end-to-end
metric, the verdict is:

``improved``    the change wins at least 9 of 10 pairs (ties count for
                neither side) and the medians differ by more than the
                parent's interquartile range; needs at least 10 pairs,
                and no more failed ops than the parent
``regressed``   the change's median is worse than the parent's by more
                than the metric's bound in BENCHMARK.json
``unresolved``  the parent's runs spread (IQR / median) wider than the
                bound, and not every change run beats every parent run
``unchanged``   otherwise

One row per workload gives the worst verdict; the metric lines under it
give each side's median and quartiles and the change's win fraction.
Metrics a results file marks as copies of another are left out.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from run import ROOT, quartiles

MIN_PAIRS = 10
WIN_FRACTION = 0.9
ORDER = ("regressed", "improved", "unresolved", "unchanged")


class MismatchError(ValueError):
    """Results files that were not run with the same arguments."""


def runs(paths: Sequence[Path], args: Dict[str, Any],
         ) -> List[Dict[str, Any]]:
    """Every set of every file, in order: ``{workload: summary}``.  Each
    file must record exactly ``args``."""
    out = []
    for path in paths:
        doc = json.loads(Path(path).read_text())
        if doc["args"] != args:
            raise MismatchError(f"{path} was run with {doc['args']}, "
                                f"not {args}")
        out.extend(doc["sets"])
    return out


def _quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    q = quartiles(values)
    return q["q1"], q["median"], q["q3"]


def verdict(parent: Sequence[float], change: Sequence[float],
            better: str, bound: float) -> Dict[str, Any]:
    """Apply the comparison rule to one metric's paired values."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    pairs = len(parent)
    p1, pm, p3 = _quartiles(parent)
    c1, cm, c3 = _quartiles(change)
    gain = sign * (cm - pm)
    spread = (p3 - p1) / abs(pm) if pm else 0.0
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if (pairs >= MIN_PAIRS and wins >= WIN_FRACTION * pairs
            and gain > p3 - p1):
        status = "improved"
    elif -gain > bound * abs(pm):
        status = "regressed"
    elif spread > bound and not all_better:
        status = "unresolved"
    else:
        status = "unchanged"
    return {
        "status": status, "pairs": pairs, "win_frac": wins / pairs,
        "parent": (p1, pm, p3), "change": (c1, cm, c3),
        "rel": (cm - pm) / abs(pm) if pm else 0.0, "spread": spread,
    }


def compare(parent_runs, change_runs, spec) -> Dict[str, Dict[str, Any]]:
    pairs = min(len(parent_runs), len(change_runs))
    rows: Dict[str, Dict[str, Any]] = {}
    for workload in parent_runs[0]:
        if not all(workload in r for r in change_runs[:pairs]):
            continue
        side = {name: [r[workload] for r in runs_[:pairs]]
                for name, runs_ in (("parent", parent_runs),
                                    ("change", change_runs))}
        copies = {name for k in side for s in side[k]
                  for name in s.get("copies", ())}
        failed = tuple(sum(s["failed"] for s in side[k])
                       for k in ("parent", "change"))
        metrics = {}
        for name, (better, bound) in spec.items():
            if name in copies:
                continue
            values = [[s["metrics"][name]["value"] for s in side[k]]
                      for k in ("parent", "change")
                      if all(name in s["metrics"] for s in side[k])]
            if len(values) == 2:
                metrics[name] = verdict(values[0], values[1], better, bound)
                # A gain does not count when more ops fail.
                if (failed[1] > failed[0]
                        and metrics[name]["status"] == "improved"):
                    metrics[name]["status"] = "unchanged"
        rows[workload] = {"metrics": metrics, "failed": failed,
                          "pairs": pairs}
    return rows


def render(rows: Dict[str, Dict[str, Any]]) -> str:
    lines = []
    for workload, row in rows.items():
        statuses = [m["status"] for m in row["metrics"].values()]
        worst = min(statuses, key=ORDER.index) if statuses else "no metrics"
        named = sorted(n for n, m in row["metrics"].items()
                       if m["status"] == worst)
        note = ""
        if row["pairs"] < MIN_PAIRS:
            note = f"  (only {row['pairs']} pairs; {MIN_PAIRS} needed)"
        if row["failed"][1] > row["failed"][0]:
            note += (f"  (failed ops {row['failed'][0]} -> "
                     f"{row['failed'][1]}: no gain counts)")
        lines.append(f"{workload:13s} {worst.upper():10s} "
                     f"{', '.join(named)}{note}")
        for name, m in row["metrics"].items():
            lines.append(
                f"    {name:22s} {m['status']:10s} {m['rel']:+7.2%}  "
                f"wins {m['win_frac']:4.0%}  parent {_spread(m['parent'])}"
                f"  change {_spread(m['change'])}"
            )
    return "\n".join(lines)


def _spread(q: Tuple[float, float, float]) -> str:
    """``median [q1, q3]``."""
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Compare parent and change benchmark results.")
    parser.add_argument("--parent", nargs="+", type=Path, required=True)
    parser.add_argument("--change", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    first = json.loads(args.parent[0].read_text())["args"]
    try:
        rows = compare(runs(args.parent, first), runs(args.change, first),
                       spec)
    except MismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render(rows))
    return 1 if any(m["status"] == "regressed" for r in rows.values()
                    for m in r["metrics"].values()) else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
