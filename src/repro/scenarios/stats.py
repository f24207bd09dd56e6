"""Process-wide scenario telemetry (the ``scenario.*`` namespace).

:data:`SCENARIO_STATS` is a :class:`~repro.trace.telemetry.Counters`
tally that :func:`~repro.scenarios.pipeline.assemble_pipeline` and the
fuzzer feed: pipelines composed, stages and their cycles, handoffs with
their words and cycles, plus ``stage.<kernel>`` and ``handoff.<level>``
counts noted on first use.  It is registered with
:data:`~repro.trace.telemetry.TELEMETRY`, so ``--perf`` output and
metrics history see it.  The fast tier's pipeline checks compose inside
``SCENARIO_STATS.scoped()``: a report composes no pipeline of its own.
"""

from __future__ import annotations

from repro.trace.telemetry import TELEMETRY, Counters

#: Process-wide scenario counters.
SCENARIO_STATS = Counters(
    "scenario",
    (
        "pipelines",
        "stages",
        "stage_cycles",
        "handoffs",
        "handoff_words",
        "handoff_cycles",
        "fuzz.generated",
        "fuzz.validated",
        "fuzz.violations",
    ),
)
TELEMETRY.register("scenario", SCENARIO_STATS.snapshot)
