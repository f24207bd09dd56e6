"""The embedded checks are staged experiments: they leave the session.

A report, ``repro check`` or a validated service job runs the fast tier,
whose obs, pipeline, service and index checks stage sweeps, pipelines,
scratch jobs and a quarantine.  None of it happened to the process, so
none of it may reach the session ledger or the live tallies.
"""

from repro.check import run_checks
from repro.obs import ledger
from repro.obs.ledger import FlightRecorder
from repro.perf.planner import PLANNER_STATS
from repro.perf.tensorsweep import TENSOR_STATS
from repro.resilience.stats import RESILIENCE
from repro.scenarios.stats import SCENARIO_STATS
from repro.service.stats import SERVICE_STATS

TALLIES = (
    PLANNER_STATS, TENSOR_STATS, SCENARIO_STATS, SERVICE_STATS, RESILIENCE,
)


def test_fast_tier_adds_nothing_to_the_session(monkeypatch, small_workloads):
    session = FlightRecorder("session", path=None)
    monkeypatch.setattr(ledger, "_ACTIVE", session)
    before = [tally.snapshot() for tally in TALLIES]

    report = run_checks("fast", workloads=small_workloads)

    assert report.exit_code == 0, report.render()
    assert [e["kind"] for e in session.events] == []
    assert [tally.snapshot() for tally in TALLIES] == before
