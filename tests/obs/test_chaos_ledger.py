"""A chaos run must leave a parseable, gapless ledger.

The ledger is evidence, so chaos must not tear it.  The store faults
(``disk``, ``corrupt``) fire in pool workers, and a forked worker
records nothing: its events would carry its own copy of ``seq`` into
the parent's ledger and repeat numbers the parent also writes.
"""

import os
from pathlib import Path

from repro.cli import main
from repro.ioutil import read_log

SPEC = "kill=1,disk=1,corrupt=1,service=0"


def test_chaos_check_leaves_a_gapless_ledger(capsys):
    code = main(["check", "--chaos", SPEC, "--fast", "--jobs", "2"])
    out = capsys.readouterr().out
    assert code == 0, out

    ledger_root = Path(os.environ["REPRO_OBS_DIR"]) / "ledger"
    files = sorted(ledger_root.glob("*.jsonl"))
    assert len(files) == 1, "one CLI session = one ledger file"
    events, corrupt, end = read_log(files[0])
    assert corrupt == [], "chaos must not tear the ledger"
    assert end == files[0].stat().st_size, "chaos must not tear the ledger"

    # The session is complete and the sequence gapless: no event was
    # lost to a killed worker, and none came from a worker at all.
    kinds = [e["kind"] for e in events]
    assert kinds[0] == "session.start"
    assert kinds[-1] == "session.end"
    assert "chaos.check" in kinds
    assert [e["seq"] for e in events] == list(range(len(events)))
    assert len({e["session"] for e in events}) == 1
    assert events[-1]["payload"]["exit_code"] == 0

    # The worker kill was recovered in place, and the ledger says so.
    assert "supervisor.retry" in kinds
    assert "supervisor.degradation" not in kinds
