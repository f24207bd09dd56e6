"""Tests for :class:`repro.trace.telemetry.Counters` and its users.

One primitive backs the four tallies the program keeps for itself
(``perf.tensor``, ``resilience``, ``scenario``, ``service``); these
tests pin its counting, rendering, tracer mirroring and ``scoped()``
semantics on throwaway instances, and the resilience incident log on
a throwaway :class:`~repro.resilience.stats.ResilienceStats`.
"""

import subprocess
import sys
import threading

import pytest

from repro.resilience.stats import COUNTERS, ResilienceStats, job_scope
from repro.trace.telemetry import TELEMETRY, Counters
from repro.trace.tracer import tracing


@pytest.fixture
def tally():
    return Counters("demo", ("hits", "misses"))


@pytest.fixture
def resilience():
    return ResilienceStats("resilience", COUNTERS)


class TestCounting:
    def test_declared_names_start_at_zero(self, tally):
        assert tally.snapshot() == {"hits": 0, "misses": 0}

    def test_note_adds_ints_and_floats(self, tally):
        tally.note("hits")
        tally.note("hits", 2)
        tally.note("misses", 0.5)
        assert tally.get("hits") == 3
        assert tally.get("misses") == 0.5

    def test_undeclared_name_is_noted_and_unknown_reads_zero(self, tally):
        assert tally.get("stage.cslc") == 0
        tally.note("stage.cslc")
        assert tally.snapshot() == {"hits": 0, "misses": 0, "stage.cslc": 1}

    def test_snapshot_is_a_copy(self, tally):
        snap = tally.snapshot()
        snap["hits"] = 99
        assert tally.get("hits") == 0

    def test_reset_zeroes_and_drops_undeclared(self, tally):
        tally.note("hits", 4)
        tally.note("extra")
        tally.reset()
        assert tally.snapshot() == {"hits": 0, "misses": 0}

    def test_concurrent_notes_are_not_lost(self, tally):
        def worker():
            for _ in range(2000):
                tally.note("hits")

        # More threads than cores and a short switch interval, so a
        # read-modify-write without the lock would lose updates.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert tally.get("hits") == 16000

    def test_render_is_aligned_and_sorted(self, tally):
        tally.note("misses", 12)
        assert tally.render() == (
            "demo:\n"
            "  demo.hits    0\n"
            "  demo.misses  12"
        )

    def test_note_mirrors_onto_the_active_tracer(self, tally):
        with tracing() as tracer:
            tally.note("hits", 2)
        tally.note("hits")  # no tracer: counted, not mirrored
        assert tracer.counters["demo.hits"] == 2
        assert tally.get("hits") == 3

    def test_constructor_registers_nothing(self):
        namespaces = TELEMETRY.namespaces()
        Counters("throwaway", ("a",))
        assert TELEMETRY.namespaces() == namespaces


class TestScoped:
    def test_scope_starts_fresh_and_restores_live(self, tally):
        tally.note("hits", 5)
        with tally.scoped() as scoped:
            assert scoped is tally
            assert tally.snapshot() == {"hits": 0, "misses": 0}
            tally.note("hits")
            tally.note("probe")
            assert tally.get("hits") == 1
        assert tally.snapshot() == {"hits": 5, "misses": 0}

    def test_exception_inside_scope_restores_live(self, tally):
        tally.note("misses", 2)
        with pytest.raises(RuntimeError):
            with tally.scoped():
                tally.note("misses", 40)
                raise RuntimeError("boom")
        assert tally.snapshot() == {"hits": 0, "misses": 2}

    def test_nested_scopes_each_start_at_zero(self, tally):
        tally.note("hits", 7)
        with tally.scoped():
            tally.note("hits", 2)
            with tally.scoped():
                assert tally.get("hits") == 0
                tally.note("hits", 3)
                assert tally.get("hits") == 3
            assert tally.get("hits") == 2
        assert tally.get("hits") == 7

    def test_note_from_another_thread_lands_in_live(self, tally):
        with tally.scoped():
            thread = threading.Thread(target=tally.note, args=("hits", 3))
            thread.start()
            thread.join(timeout=30)
            assert not thread.is_alive()
            assert tally.get("hits") == 0
        assert tally.get("hits") == 3

    def test_scope_is_per_instance(self, tally):
        other = Counters("other", ("hits",))
        with tally.scoped():
            other.note("hits")
        assert other.get("hits") == 1

    def test_reset_inside_scope_leaves_live_alone(self, tally):
        tally.note("hits", 2)
        with tally.scoped():
            tally.note("hits")
            tally.reset()
            assert tally.get("hits") == 0
        assert tally.get("hits") == 2


class TestResilienceStats:
    def test_snapshot_carries_every_counter_and_the_reason(self, resilience):
        snap = resilience.snapshot()
        assert set(snap) == set(COUNTERS) | {"last_degradation_reason"}
        assert snap["last_degradation_reason"] == ""
        assert not any(snap[name] for name in COUNTERS)

    def test_degradation_counts_logs_and_names_the_reason(self, resilience):
        resilience.note_degradation("pool spawn failed")
        resilience.note_degradation("pool broke again")
        assert resilience.get("degradations") == 2
        assert resilience.snapshot()["last_degradation_reason"] == (
            "pool broke again"
        )
        assert resilience.incidents() == [
            {"kind": "degradation", "payload": {"reason": reason}}
            for reason in ("pool spawn failed", "pool broke again")
        ]

    def test_reason_is_the_newest_degradation_not_the_newest_incident(
        self, resilience
    ):
        resilience.note_degradation("first")
        resilience.log_incident("retry", {"chunks": 1})
        assert resilience.snapshot()["last_degradation_reason"] == "first"

    def test_degradation_carries_the_job_id(self, resilience):
        with job_scope("job-1"):
            resilience.note_degradation("why")
        (incident,) = resilience.incidents()
        assert incident["payload"] == {"reason": "why", "job": "job-1"}

    def test_degradation_is_mirrored_onto_the_tracer(self, resilience):
        with tracing() as tracer:
            resilience.note_degradation("traced")
        assert tracer.counters["resilience.degradations"] == 1
        (event,) = [e for e in tracer.events if e.name == "degradation"]
        assert event.track == "resilience/supervisor"

    def test_incidents_are_copies(self, resilience):
        payload = {"chunk": 0}
        resilience.log_incident("isolate", payload)
        payload["chunk"] = 9
        resilience.incidents()[0]["payload"]["chunk"] = 7
        assert resilience.incidents()[0]["payload"] == {"chunk": 0}

    def test_incident_log_is_scoped(self, resilience):
        resilience.note_degradation("real")
        with resilience.scoped():
            assert resilience.incidents() == []
            resilience.note_degradation("staged")
            assert resilience.snapshot()["last_degradation_reason"] == (
                "staged"
            )
            assert len(resilience.incidents()) == 1
        assert resilience.get("degradations") == 1
        assert resilience.snapshot()["last_degradation_reason"] == "real"
        assert [i["payload"]["reason"] for i in resilience.incidents()] == [
            "real"
        ]

    def test_reset_clears_the_log(self, resilience):
        resilience.note_degradation("gone")
        resilience.reset()
        assert resilience.incidents() == []
        assert resilience.snapshot()["last_degradation_reason"] == ""

    def test_render_lists_counters_and_reason(self, resilience):
        resilience.note("retries", 3)
        lines = resilience.render().splitlines()
        assert lines[0] == "resilience:"
        assert lines[1:] == sorted(lines[1:])
        assert "  resilience.retries                  3" in lines


class TestSingletons:
    def test_each_tally_is_registered_under_its_namespace(self):
        from repro.perf.tensorsweep import TENSOR_STATS
        from repro.resilience.stats import RESILIENCE
        from repro.scenarios.stats import SCENARIO_STATS
        from repro.service.stats import SERVICE_STATS

        snap = TELEMETRY.snapshot()
        for tally in (TENSOR_STATS, RESILIENCE, SCENARIO_STATS,
                      SERVICE_STATS):
            assert isinstance(tally, Counters)
            for name, value in tally.snapshot().items():
                assert snap[f"{tally.namespace}.{name}"] == value

    def test_snapshot_imports_nothing(self):
        # Sources register beside their owners, so a snapshot in a
        # process that imported only the registry loads no module.
        code = (
            "import sys\n"
            "from repro.trace.telemetry import TELEMETRY\n"
            "before = set(sys.modules)\n"
            "TELEMETRY.snapshot()\n"
            "print(sorted(set(sys.modules) - before))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True, timeout=60,
        )
        assert proc.stdout.strip() == "[]"
