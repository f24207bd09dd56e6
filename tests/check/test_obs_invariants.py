"""The invariant.obs.* reconciliation checks (repro.check.obs)."""

from repro.check.obs import obs_checks
from repro.check.report import PASS
from repro.perf.planner import PLANNER_STATS

EXPECTED = (
    "invariant.obs.seq",
    "invariant.obs.plan-conservation",
    "invariant.obs.dispatch-reconcile",
)


def test_all_obs_invariants_pass(small_workloads):
    results = obs_checks(workloads=small_workloads)
    by_name = {r.name: r for r in results}
    assert set(by_name) == set(EXPECTED)
    failing = [r for r in results if r.status != PASS]
    assert not failing, [
        (r.name, r.detail) for r in failing
    ]


def test_plan_conservation_sees_the_deliberate_duplicate(small_workloads):
    results = obs_checks(workloads=small_workloads)
    plan = next(
        r for r in results if r.name == "invariant.obs.plan-conservation"
    )
    # The probe submits 3 requests with one repeat: the detail proves the
    # duplicate was deduplicated, not silently executed twice.
    assert "3 requests" in plan.detail
    assert "1 dup" in plan.detail


def test_obs_invariants_run_in_fast_tier(small_workloads):
    from repro.check import run_checks

    report = run_checks("fast", workloads=small_workloads)
    names = {r.name for r in report.results}
    assert set(EXPECTED) <= names


def test_plan_fields_cover_the_conservation_identity():
    # The planner counts exactly the sweep.plan fields it records.
    assert set(PLANNER_STATS.names) >= {
        "requests", "duplicates", "memory_hits", "disk_hits", "executed",
        "units",
    }
