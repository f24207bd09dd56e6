"""Observability invariants: the ledger must account for the planner.

The flight recorder (:mod:`repro.obs.ledger`) is *derived* evidence: it
claims to witness what the planner did.  Derived evidence drifts — an
instrumentation site gets moved, a payload field is renamed — so the
fast tier re-proves the ledger's accounting on every run with a staged
experiment (:func:`~repro.obs.ledger.recording`): a tiny sweep whose
events go to a scratch in-memory recorder and whose planner and tensor
counts stay out of the process's telemetry:

* ``invariant.obs.seq`` — event sequence numbers are gapless and
  monotonic from 0 (a gap is a lost event, a repeat a duplicated one);
* ``invariant.obs.plan-conservation`` — the ``sweep.plan`` payload
  partitions its requests exactly:
  ``duplicates + memory_hits + disk_hits + executed == requests``;
* ``invariant.obs.dispatch-reconcile`` — one ``planner.dispatch`` event
  per dispatch unit, and their ``cells`` sum to ``executed``.

The planner's counts need no reconciling with the ledger: the planner
adds the same ``plan`` dict to its tally that it records.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional

from repro.check.report import FAIL, PASS, CheckResult


def obs_checks(
    workloads: Optional[Mapping[str, Any]] = None,
) -> List[CheckResult]:
    """Run the ledger accounting experiment."""
    from repro.obs.ledger import recording
    from repro.perf.planner import PLANNER_STATS, execute_requests
    from repro.perf.tensorsweep import TENSOR_STATS

    if workloads is None:
        from repro.kernels.workloads import small_corner_turn, small_cslc

        workloads = {
            "corner_turn": small_corner_turn(),
            "cslc": small_cslc(),
        }
    results: List[CheckResult] = []

    # A tiny sweep with a deliberate duplicate: two distinct cells plus
    # a repeat of the first, run serially as a staged experiment.
    requests = [
        ("corner_turn", "viram", {"workload": workloads["corner_turn"]}),
        ("cslc", "viram", {"workload": workloads["cslc"]}),
        ("corner_turn", "viram", {"workload": workloads["corner_turn"]}),
    ]
    with recording(PLANNER_STATS, TENSOR_STATS) as recorder:
        execute_requests(requests, jobs=1)

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
    return results
