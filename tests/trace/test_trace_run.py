"""The tracer overhead contract: tracing observes, never perturbs.

Satellite coverage for the observability PR: a traced run's modelled
numbers are identical to an untraced run's, trace state never leaks
between runs, and the registry's memoization cache is bypassed (not
polluted) while tracing is active.
"""

import pytest

from repro.calibration import DEFAULT_CALIBRATION
from repro.kernels.workloads import (
    small_beam_steering,
    small_corner_turn,
    small_cslc,
)
from repro.mappings import (
    imagine_beam_steering,
    imagine_corner_turn,
    imagine_cslc,
    registry,
)
from repro.perf.cache import RUN_CACHE, cache_key
from repro.trace.run import trace_run
from repro.trace.tracer import active_tracer, tracing

PAIRS = [
    ("corner_turn", "viram"),
    ("cslc", "imagine"),
    ("beam_steering", "raw"),
    ("corner_turn", "ppc"),
]


class TestNoninterference:
    @pytest.mark.parametrize("kernel,machine", PAIRS)
    def test_traced_run_matches_untraced(self, kernel, machine):
        baseline = registry.run(kernel, machine)
        traced, tracer = trace_run(kernel, machine)
        assert traced.cycles == baseline.cycles
        assert traced.breakdown.as_dict() == baseline.breakdown.as_dict()
        assert traced.ops.as_dict() == baseline.ops.as_dict()
        assert traced.functional_ok == baseline.functional_ok
        assert tracer.n_events > 0

    def test_traced_run_with_options_matches(self):
        baseline = registry.run("cslc", "raw", balanced=False)
        traced, _ = trace_run("cslc", "raw", balanced=False)
        assert traced.cycles == baseline.cycles


class TestNoStateLeaks:
    def test_tracer_off_after_trace_run(self):
        trace_run("corner_turn", "viram")
        assert active_tracer() is None

    def test_tracer_restored_after_exception(self):
        with pytest.raises(Exception):
            with tracing():
                registry.run("no_such_kernel", "viram")
        assert active_tracer() is None

    def test_consecutive_runs_use_fresh_tracers(self):
        _, first = trace_run("corner_turn", "viram")
        _, second = trace_run("corner_turn", "viram")
        assert first is not second
        assert first.n_events == second.n_events
        assert first.counters == second.counters

    def test_shared_tracer_accumulates_both_runs(self):
        _, solo = trace_run("corner_turn", "viram")
        _, shared = trace_run("corner_turn", "viram")
        trace_run("beam_steering", "viram", tracer=shared)
        assert shared.counters["trace.runs"] == 2.0
        assert shared.n_events > solo.n_events


class TestCacheBypass:
    def test_traced_run_bypasses_and_never_inserts(self):
        RUN_CACHE.clear()
        key = cache_key("corner_turn", "viram", {})
        bypasses_before = RUN_CACHE.bypasses
        trace_run("corner_turn", "viram")
        assert RUN_CACHE.bypasses == bypasses_before + 1
        assert key not in RUN_CACHE.keys()

    def test_traced_run_ignores_poisoned_cache_entry(self):
        # A cache hit would replay no events AND could serve stale data;
        # tracing must execute fresh even when an entry exists.
        RUN_CACHE.clear()
        baseline = registry.run("corner_turn", "viram")  # populates cache
        key = cache_key("corner_turn", "viram", {})
        assert key in RUN_CACHE.keys()
        traced, tracer = trace_run("corner_turn", "viram")
        assert traced is not baseline
        assert traced.cycles == baseline.cycles
        assert tracer.n_events > 0

    def test_untraced_runs_still_cache(self):
        RUN_CACHE.clear()
        registry.run("corner_turn", "viram")
        key = cache_key("corner_turn", "viram", {})
        assert key in RUN_CACHE.keys()


class TestDisabledTracingIsInert:
    def test_table3_csv_identical_with_and_without_prior_tracing(
        self, small_workloads
    ):
        from repro.eval.export import table3_csv
        from repro.eval.tables import run_table3

        before = table3_csv(run_table3(small_workloads))
        trace_run("corner_turn", "viram")  # exercise tracing in between
        after = table3_csv(run_table3(small_workloads))
        assert before == after


class TestImagineResourceSpans:
    """A traced Imagine run emits each stream op's resource span once:
    the measured execution's.  The per-cell replay that re-times the
    program emits none."""

    @pytest.mark.parametrize(
        "kernel,module,workload",
        [
            ("corner_turn", imagine_corner_turn, small_corner_turn()),
            ("cslc", imagine_cslc, small_cslc()),
            ("beam_steering", imagine_beam_steering, small_beam_steering()),
        ],
        ids=["corner_turn", "cslc", "beam_steering"],
    )
    def test_one_span_per_stream_op(self, kernel, module, workload):
        costs = module._structure(
            workload, DEFAULT_CALIBRATION, 0, False
        )["op_costs"]
        n_kernels = sum(1 for c in costs if c.kind == "kernel")
        run, tracer = trace_run(kernel, "imagine", workload=workload)
        counters = tracer.counters
        assert counters["resource.memory-system.transactions"] == (
            len(costs) - n_kernels
        )
        assert counters["resource.cluster-array.transactions"] == n_kernels
        memory_busy = tracer.busy_by_track()["resource/memory-system"]
        ledger = run.breakdown.as_dict()
        if "memory" in ledger:
            assert memory_busy == ledger["memory"]
        else:  # CSLC hides its streams: exposed + hidden is the wall
            assert memory_busy == pytest.approx(
                ledger["memory (exposed)"]
                + run.metrics["memory_hidden_cycles"]
            )
