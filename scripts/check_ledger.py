#!/usr/bin/env python3
"""Check the session ledgers a run left under a flight-recorder directory.

Usage::

    python scripts/check_ledger.py OBS_DIR [--report]

Every ``OBS_DIR/ledger/*.jsonl`` must parse and carry a gapless ``seq``
from 0: a repeat means a second writer (a pool worker) appended with
its own copy of the counter, a gap a lost event.  With ``--report``,
for cold reports, each ledger must also hold no ``service.*`` or
``pipeline.*`` event (the report's embedded checks stage theirs), its
``sweep.plan`` events' ``requests`` must sum to the planner tally the
same session's history record reads
(``perf.timers.counters.planner.requests``), and that record must read
as many disk-store misses as writes (``perf.diskcache.misses`` ==
``perf.diskcache.writes``): each executed cell reads the store once.

Exits non-zero with one line per broken ledger.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

PLANNER_REQUESTS = "perf.timers.counters.planner.requests"
DISK_MISSES = "perf.diskcache.misses"
DISK_WRITES = "perf.diskcache.writes"


def problems(obs_dir: Path, report: bool) -> list:
    ledgers = sorted((obs_dir / "ledger").glob("*.jsonl"))
    if not ledgers:
        return [f"no ledger under {obs_dir}"]
    history = {}
    if report:
        for line in (obs_dir / "history.jsonl").read_text().splitlines():
            record = json.loads(line)
            history[record["session"]] = record["telemetry"]
    out = []
    for path in ledgers:
        events = [json.loads(line) for line in path.read_text().splitlines()]
        seqs = [event["seq"] for event in events]
        if seqs != list(range(len(events))):
            out.append(f"{path.name}: seq not gapless from 0: {seqs}")
        if not report:
            continue
        staged = sorted({
            event["kind"] for event in events
            if event["kind"].split(".")[0] in ("service", "pipeline")
        })
        if staged:
            out.append(f"{path.name}: staged events in the session: {staged}")
        planned = sum(
            event["payload"]["requests"] for event in events
            if event["kind"] == "sweep.plan"
        )
        telemetry = history.get(path.stem, {})
        counted = telemetry.get(PLANNER_REQUESTS)
        if planned != counted:
            out.append(
                f"{path.name}: sweep.plan requests sum to {planned}, "
                f"the history record reads {counted}"
            )
        misses, writes = telemetry.get(DISK_MISSES), telemetry.get(DISK_WRITES)
        if misses != writes:
            out.append(
                f"{path.name}: the history record reads {misses} disk "
                f"misses for {writes} writes"
            )
    return out


def main(argv: list) -> int:
    if not argv or argv[1:] not in ([], ["--report"]):
        print(__doc__, file=sys.stderr)
        return 2
    found = problems(Path(argv[0]), report=argv[1:] == ["--report"])
    for line in found:
        print(line, file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
