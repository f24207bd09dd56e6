"""Tests for the unified metrics registry (:mod:`repro.trace.telemetry`)."""

import pytest

from repro.trace.telemetry import TELEMETRY, TelemetryRegistry
from repro.trace.tracer import tracing


class TestRegistration:
    def test_register_and_snapshot(self):
        reg = TelemetryRegistry()
        reg.register("demo", lambda: {"a": 1, "b": 2.5})
        assert reg.snapshot() == {"demo.a": 1, "demo.b": 2.5}
        assert reg.namespaces() == ("demo",)

    def test_duplicate_namespace_raises(self):
        reg = TelemetryRegistry()
        reg.register("demo", lambda: {})
        with pytest.raises(ValueError):
            reg.register("demo", lambda: {})

    def test_invalid_namespace_rejected(self):
        reg = TelemetryRegistry()
        with pytest.raises(ValueError):
            reg.register("", lambda: {})
        with pytest.raises(ValueError):
            reg.register(".leading", lambda: {})


class TestSnapshotErrors:
    def test_failing_source_is_isolated(self):
        reg = TelemetryRegistry()

        def broken():
            raise RuntimeError("no data")

        reg.register("bad", broken)
        reg.register("good", lambda: {"a": 1})
        snap = reg.snapshot()
        assert snap["good.a"] == 1
        assert snap["bad.error"] == "RuntimeError: no data"


class TestDefaultRegistry:
    def test_default_namespaces_present(self):
        # A namespace appears once its owner is imported.
        import repro.perf.cache  # noqa: F401
        import repro.perf.timers  # noqa: F401

        namespaces = TELEMETRY.namespaces()
        assert "perf.timers" in namespaces
        assert "perf.cache" in namespaces
        assert "trace" in namespaces

    def test_trace_source_empty_when_tracing_off(self):
        snap = TELEMETRY.snapshot()
        assert not any(k.startswith("trace.") for k in snap)

    def test_trace_source_reports_active_tracer(self):
        with tracing() as tracer:
            tracer.count("demo.counter", 2.0)
            tracer.span("a", "t", 1.0)
            snap = TELEMETRY.snapshot()
        assert snap["trace.demo.counter"] == 2.0
        assert snap["trace.events"] == 1
        # And nothing leaks after the context closes.
        assert "trace.events" not in TELEMETRY.snapshot()

    def test_cache_source_reports_run_cache_stats(self):
        import repro.perf.cache  # noqa: F401

        snap = TELEMETRY.snapshot()
        cache_keys = {k for k in snap if k.startswith("perf.cache.")}
        assert cache_keys  # hits/misses/bypasses/entries, shape-agnostic


class TestEmptyAndPartialRegistries:
    def test_duplicate_register_names_the_namespace(self):
        reg = TelemetryRegistry()
        reg.register("demo", lambda: {})
        with pytest.raises(ValueError, match="'demo' already registered"):
            reg.register("demo", lambda: {})


class TestObsNamespace:
    def test_obs_registered_by_default(self):
        import repro.obs.ledger  # noqa: F401

        assert "obs" in TELEMETRY.namespaces()

    def test_obs_empty_when_no_recorder_active(self):
        snap = TELEMETRY.snapshot()
        assert not any(k.startswith("obs.") for k in snap)

    def test_obs_census_under_recording(self):
        from repro.obs.ledger import record, recording

        with recording() as rec:
            record("sweep.plan", requests=1)
            record("sweep.plan", requests=2)
            snap = TELEMETRY.snapshot()
        assert snap["obs.session"] == rec.session
        assert snap["obs.events"] == 2
        assert snap["obs.write_errors"] == 0
        assert snap["obs.events.sweep.plan"] == 2
        # Nothing leaks once the recorder is uninstalled.
        assert "obs.events" not in TELEMETRY.snapshot()
