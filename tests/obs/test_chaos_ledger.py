"""The chaos run must leave a parseable ledger whose supervisor events
mirror the structured incident log byte-for-byte (satellite of the
flight-recorder PR: the ledger is evidence, so chaos must not tear it).
"""

import json
import os
from pathlib import Path

from repro.cli import main
from repro.ioutil import read_log
from repro.resilience.stats import RESILIENCE


def test_chaos_check_leaves_parseable_mirrored_ledger(capsys):
    code = main(["check", "--chaos", "kill=1", "--fast", "--jobs", "2"])
    out = capsys.readouterr().out
    assert code == 0, out

    ledger_root = Path(os.environ["REPRO_OBS_DIR"]) / "ledger"
    files = sorted(ledger_root.glob("*.jsonl"))
    assert len(files) == 1, "one CLI session = one ledger file"
    events, corrupt, end = read_log(files[0])
    assert corrupt == [], "chaos must not tear the ledger"
    assert end == files[0].stat().st_size, "chaos must not tear the ledger"

    # The session is complete and the sequence gapless: no event was
    # lost to a killed worker (workers never write the ledger).
    kinds = [e["kind"] for e in events]
    assert kinds[0] == "session.start"
    assert kinds[-1] == "session.end"
    assert "chaos.check" in kinds
    assert [e["seq"] for e in events] == list(range(len(events)))
    assert events[-1]["payload"]["exit_code"] == 0

    # Injected faults produced supervisor incidents, and each incident's
    # ledger mirror carries the identical payload (sorted-key JSON).
    incidents = RESILIENCE.incidents()
    assert incidents, "chaos kill=1 should have produced incidents"
    mirrored = [
        e for e in events if e["kind"].startswith("supervisor.")
    ]
    assert len(mirrored) >= len(incidents)
    tail = mirrored[-len(incidents):]
    for incident, event in zip(incidents, tail):
        assert event["kind"] == f"supervisor.{incident['kind']}"
        assert (
            json.dumps(event["payload"], sort_keys=True)
            == json.dumps(incident["payload"], sort_keys=True)
        )
