"""End-to-end tests for ``repro check`` and the check package surface:
tier dispatch, exit-code contract, the ``full_report`` validation
section, and the continuous-validation hook.
"""

import dataclasses

import pytest

from repro.check import TIERS, continuous_validation, run_checks
from repro.cli import main
from repro.errors import CheckError
from repro.mappings import registry
from repro.perf.cache import RUN_CACHE


@pytest.fixture(autouse=True)
def fresh_cache():
    RUN_CACHE.clear()
    RUN_CACHE.enable()
    yield
    RUN_CACHE.clear()


class TestRunChecks:
    def test_fast_tier_green(self, small_workloads):
        report = run_checks("fast", workloads=small_workloads)
        assert report.ok, "\n".join(r.format() for r in report.failures())
        assert report.exit_code == 0

    def test_full_tier_superset_of_fast(self, small_workloads):
        fast = run_checks("fast", workloads=small_workloads)
        RUN_CACHE.clear()
        full = run_checks("full", workloads=small_workloads, jobs=2)
        assert full.ok
        assert len(full.results) > len(fast.results)

    def test_unknown_tier_rejected(self):
        with pytest.raises(CheckError):
            run_checks("paranoid")
        # 'inject' has a different result shape and is CLI-only.
        with pytest.raises(CheckError):
            run_checks("inject")

    def test_tier_names_exported(self):
        assert TIERS == ("fast", "full", "inject")


class TestCheckCli:
    def test_fast_exits_zero(self, capsys):
        assert main(["check", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "verdict: OK" in out

    def test_default_tier_is_fast(self, capsys):
        assert main(["check"]) == 0
        assert "repro check [fast]:" in capsys.readouterr().out

    def test_verbose_lists_passing_checks(self, capsys):
        assert main(["check", "--fast", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "invariant.bound.corner_turn.viram" in out

    def test_inject_exits_one_when_all_detected(self, capsys):
        assert main(["check", "--inject"]) == 1
        out = capsys.readouterr().out
        assert "6/6 injected corruptions detected" in out
        assert "exiting non-zero" in out

    def test_inject_exits_three_when_oracle_blind(self, capsys, monkeypatch):
        from repro.check import faults

        blind = {
            "no-op-fault": (faults.perturbed_dram_timing, "dram", lambda: [])
        }
        monkeypatch.setattr(faults, "SCENARIOS", blind)
        assert main(["check", "--inject"]) == 3
        captured = capsys.readouterr()
        assert "missed its injected fault" in captured.err

    def test_tiers_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            main(["check", "--fast", "--inject"])


class TestReportValidationSection:
    def test_report_ends_with_validation(self, small_workloads):
        from repro.eval.report import full_report

        text = full_report(small_workloads)
        assert "== Validation (repro check --fast) ==" in text
        assert "verdict: OK" in text

    def test_validation_can_be_disabled(self, small_workloads):
        from repro.eval.report import full_report

        text = full_report(small_workloads, validate=False)
        assert "Validation" not in text


class TestContinuousValidation:
    def test_healthy_runs_pass_through(self, small_workloads):
        with continuous_validation(workloads=small_workloads):
            run = registry.run(
                "corner_turn", "viram", workload=small_workloads["corner_turn"]
            )
        assert run.functional_ok

    def test_corrupt_run_rejected_before_caching(self, small_workloads):
        # Wrap the corner_turn/viram mapping so it emits a run whose
        # ledger beats the analytic bound — the hook must refuse it and
        # the poisoned result must never reach the cache.
        fn = registry._REGISTRY[("corner_turn", "viram")]

        def lying(**kwargs):
            run = fn(**kwargs)
            return dataclasses.replace(
                run, breakdown=run.breakdown.scaled(1e-6)
            )

        registry._REGISTRY[("corner_turn", "viram")] = lying
        try:
            with continuous_validation(workloads=small_workloads):
                with pytest.raises(CheckError, match="bound"):
                    registry.run(
                        "corner_turn",
                        "viram",
                        workload=small_workloads["corner_turn"],
                    )
        finally:
            registry._REGISTRY[("corner_turn", "viram")] = fn
        assert RUN_CACHE.stats()["entries"] == 0

    def test_previous_hook_restored(self):
        sentinel_calls = []

        def sentinel(run, kwargs):
            sentinel_calls.append(run.kernel)

        previous = registry.set_post_run_validator(sentinel)
        try:
            with continuous_validation():
                pass
            registry.run("corner_turn", "viram", cache=False)
        finally:
            registry.set_post_run_validator(previous)
        assert sentinel_calls == ["corner_turn"]
