"""Observability invariants: the ledger must agree with the counters.

The flight recorder (:mod:`repro.obs.ledger`) is *derived* evidence: it
claims to witness what the planner, the supervisor, and the caches did.
Derived evidence drifts — an instrumentation site gets moved, a payload
field is renamed, a counter is bumped on a path the ledger no longer
sees — so the fast tier re-proves the reconciliation contract on every
run with a controlled experiment under a scratch in-memory recorder and
a scoped resilience tally, which keeps its staged degradation out of
the process's telemetry:

* ``invariant.obs.seq`` — event sequence numbers are gapless and
  monotonic from 0 (a gap is a lost event, a repeat a duplicated one);
* ``invariant.obs.plan-conservation`` — the ``sweep.plan`` payload
  partitions its requests exactly:
  ``duplicates + memory_hits + disk_hits + executed == requests``;
* ``invariant.obs.counter-reconcile`` — the same payload equals the
  deltas of the ``planner.*`` perf-timer counters over the sweep, field
  by field (the ledger and TELEMETRY must tell one story);
* ``invariant.obs.dispatch-reconcile`` — one ``planner.dispatch`` event
  per dispatch unit, and their ``cells`` sum to ``executed``;
* ``invariant.obs.supervisor-mirror`` — a supervisor incident's ledger
  payload is byte-for-byte (sorted-key JSON) the payload the resilience
  ledger keeps, the contract the chaos harness relies on.
"""

from __future__ import annotations

import json
from typing import Any, List, Mapping, Optional

from repro.check.report import FAIL, PASS, CheckResult

#: sweep.plan payload fields reconciled against the planner counters.
PLAN_FIELDS = (
    "requests", "duplicates", "memory_hits", "disk_hits", "executed",
    "units",
)


def _counter_delta(
    before: Mapping[str, Any], after: Mapping[str, Any], name: str
) -> int:
    return int(after.get(name, 0)) - int(before.get(name, 0))


def obs_checks(
    workloads: Optional[Mapping[str, Any]] = None,
) -> List[CheckResult]:
    """Run the ledger-vs-counters reconciliation experiment."""
    from repro.obs.ledger import recording
    from repro.perf import timers
    from repro.perf.planner import execute_requests
    from repro.resilience.stats import RESILIENCE

    if workloads is None:
        from repro.kernels.workloads import small_corner_turn, small_cslc

        workloads = {
            "corner_turn": small_corner_turn(),
            "cslc": small_cslc(),
        }
    results: List[CheckResult] = []

    # A tiny sweep with a deliberate duplicate: two distinct cells plus
    # a repeat of the first, run serially under a scratch recorder.
    requests = [
        ("corner_turn", "viram", {"workload": workloads["corner_turn"]}),
        ("cslc", "viram", {"workload": workloads["cslc"]}),
        ("corner_turn", "viram", {"workload": workloads["corner_turn"]}),
    ]
    # The staged degradation is counted in a scope: it never happened
    # to the process, so the live resilience tally must not see it.
    before = timers.snapshot()["counters"]
    with RESILIENCE.scoped(), recording() as recorder:
        execute_requests(requests, jobs=1)
        RESILIENCE.note_degradation("obs.invariant probe")
        incidents = RESILIENCE.incidents()
    after = timers.snapshot()["counters"]

    # -- seq: gapless, monotonic from 0 -------------------------------
    seqs = [event["seq"] for event in recorder.events]
    if seqs == list(range(recorder.n_events)):
        results.append(
            CheckResult(
                "invariant.obs.seq", PASS,
                f"{recorder.n_events} events, gapless",
            )
        )
    else:
        results.append(
            CheckResult(
                "invariant.obs.seq", FAIL,
                f"sequence numbers not gapless from 0: {seqs[:10]}",
            )
        )

    # -- sweep.plan: exactly one, and it partitions the requests ------
    plans = recorder.events_of("sweep.plan")
    if len(plans) != 1:
        results.append(
            CheckResult(
                "invariant.obs.plan-conservation", FAIL,
                f"expected exactly 1 sweep.plan event, saw {len(plans)}",
            )
        )
        return results
    plan = plans[0]["payload"]
    served = (
        plan["duplicates"] + plan["memory_hits"] + plan["disk_hits"]
        + plan["executed"]
    )
    if served == plan["requests"] == len(requests):
        results.append(
            CheckResult(
                "invariant.obs.plan-conservation", PASS,
                f"{plan['requests']} requests = {plan['duplicates']} dup "
                f"+ {plan['memory_hits']} mem + {plan['disk_hits']} disk "
                f"+ {plan['executed']} executed",
            )
        )
    else:
        results.append(
            CheckResult(
                "invariant.obs.plan-conservation", FAIL,
                f"requests={plan['requests']} but dup+mem+disk+executed"
                f"={served} (submitted {len(requests)})",
            )
        )

    # -- sweep.plan vs the planner.* counter deltas -------------------
    mismatches = []
    for field in PLAN_FIELDS:
        delta = _counter_delta(before, after, f"planner.{field}")
        if delta != plan[field]:
            mismatches.append(
                f"{field}: ledger={plan[field]} counters={delta}"
            )
    results.append(
        CheckResult(
            "invariant.obs.counter-reconcile",
            PASS if not mismatches else FAIL,
            "" if not mismatches else (
                "ledger disagrees with perf.timers.counters.planner.*: "
                + "; ".join(mismatches)
            ),
        )
    )

    # -- planner.dispatch: one per unit, cells sum to executed --------
    dispatches = recorder.events_of("planner.dispatch")
    cells = sum(e["payload"]["cells"] for e in dispatches)
    if len(dispatches) == plan["units"] and cells == plan["executed"]:
        results.append(
            CheckResult(
                "invariant.obs.dispatch-reconcile", PASS,
                f"{len(dispatches)} dispatch events covering {cells} cells",
            )
        )
    else:
        results.append(
            CheckResult(
                "invariant.obs.dispatch-reconcile", FAIL,
                f"plan says units={plan['units']} executed="
                f"{plan['executed']}, dispatch events={len(dispatches)} "
                f"covering {cells} cells",
            )
        )

    # -- supervisor incidents mirror byte-for-byte --------------------
    mirrored = recorder.events_of("supervisor")
    if len(incidents) != len(mirrored):
        results.append(
            CheckResult(
                "invariant.obs.supervisor-mirror", FAIL,
                f"{len(incidents)} resilience incident(s) vs "
                f"{len(mirrored)} ledger supervisor event(s)",
            )
        )
        return results
    diffs = []
    for incident, event in zip(incidents, mirrored):
        want = json.dumps(incident["payload"], sort_keys=True)
        got = json.dumps(event["payload"], sort_keys=True)
        if want != got:
            diffs.append(f"{incident['kind']}: {want} != {got}")
        kind = f"supervisor.{incident['kind']}"
        if event["kind"] != kind:
            diffs.append(f"kind {event['kind']!r} != {kind!r}")
    results.append(
        CheckResult(
            "invariant.obs.supervisor-mirror",
            PASS if not diffs else FAIL,
            (
                f"{len(incidents)} incident payload(s) identical"
                if not diffs
                else "; ".join(diffs[:3])
            ),
        )
    )
    return results
