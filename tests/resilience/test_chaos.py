"""Tests for the chaos harness (:mod:`repro.resilience.chaos`):
spec parsing, cross-process token budgets, and the injection hooks."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.perf.index import PackedDiskCache
from repro.resilience import chaos


class TestSpecParsing:
    def test_basic_budgets(self):
        spec = chaos.parse_spec("kill=1,disk=2")
        assert spec.budget("kill") == 1
        assert spec.budget("disk") == 2
        assert spec.budget("corrupt") == 0

    def test_parameters(self):
        spec = chaos.parse_spec("hang=1,hang_s=3.5,dir=/tmp/x")
        assert spec.hang_s == 3.5
        assert spec.state_dir == "/tmp/x"

    def test_describe_orders_faults(self):
        assert chaos.parse_spec("disk=1,kill=2").describe() == "kill=2,disk=1"

    @pytest.mark.parametrize("text", ["explode=1", "lock=1"])
    def test_unknown_fault_rejected(self, text):
        with pytest.raises(ConfigError, match="unknown chaos fault") as err:
            chaos.parse_spec(text)
        for fault in chaos.FAULTS:
            assert repr(fault) in str(err.value)

    def test_malformed_token_rejected(self):
        with pytest.raises(ConfigError, match="name=value"):
            chaos.parse_spec("kill")

    def test_non_integer_budget_rejected(self):
        with pytest.raises(ConfigError, match="integer budget"):
            chaos.parse_spec("kill=lots")

    def test_active_spec_off_by_default(self):
        assert chaos.active_spec() is None

    def test_service_scenarios_on_by_default(self):
        assert chaos.parse_spec("kill=1").service == 1

    def test_service_toggle(self):
        assert chaos.parse_spec("kill=1,service=0").service == 0

    def test_service_toggle_rejects_non_integer(self):
        with pytest.raises(ConfigError, match="service"):
            chaos.parse_spec("service=maybe")


class TestReplayCommandSuffix:
    def _report(self):
        from repro.check.report import FAIL, PASS, CheckReport

        report = CheckReport(tier="chaos")
        report.add("chaos.report.identical", FAIL, "diverged")
        report.add("chaos.injections.fired", PASS)
        report.add("chaos.service.drain", FAIL, "")
        return report

    def test_failures_carry_the_replay_command(self):
        report = self._report()
        chaos._embed_replay_command(report, "kill=1,disk=1", fast=True)
        failures = [r for r in report.results if r.status == "fail"]
        assert failures, "fixture must contain failures"
        for row in failures:
            assert "replay: python -m repro check --chaos" in row.detail
            assert "'kill=1,disk=1'" in row.detail

    def test_passes_are_left_alone(self):
        report = self._report()
        chaos._embed_replay_command(report, "kill=1", fast=True)
        (ok,) = [r for r in report.results if r.status == "pass"]
        assert "replay" not in ok.detail

    def test_full_tier_replays_with_full_flag(self):
        report = self._report()
        chaos._embed_replay_command(report, "kill=1", fast=False)
        assert any("--full" in r.detail for r in report.results)

    def test_suffix_is_idempotent(self):
        report = self._report()
        chaos._embed_replay_command(report, "kill=1", fast=True)
        chaos._embed_replay_command(report, "kill=1", fast=True)
        (row,) = [
            r for r in report.results
            if r.name == "chaos.report.identical"
        ]
        assert row.detail.count("replay:") == 1


class TestTokenBudget:
    def _spec(self, tmp_path, text):
        return chaos.parse_spec(f"{text},dir={tmp_path}")

    def test_budget_exhausts(self, tmp_path):
        spec = self._spec(tmp_path, "kill=2")
        assert chaos.claim("kill", spec)
        assert chaos.claim("kill", spec)
        assert not chaos.claim("kill", spec)

    def test_zero_budget_never_fires(self, tmp_path):
        spec = self._spec(tmp_path, "kill=1")
        assert not chaos.claim("disk", spec)

    def test_reset_returns_tokens(self, tmp_path):
        spec = self._spec(tmp_path, "disk=1")
        assert chaos.claim("disk", spec)
        assert not chaos.claim("disk", spec)
        chaos.reset_tokens(spec)
        assert chaos.claim("disk", spec)

    def test_tokens_claimed_census(self, tmp_path):
        spec = self._spec(tmp_path, "kill=2,disk=1")
        chaos.claim("kill", spec)
        chaos.claim("disk", spec)
        claimed = chaos.tokens_claimed(spec)
        assert claimed["kill"] == 1
        assert claimed["disk"] == 1
        assert claimed["corrupt"] == 0


class TestHooks:
    def test_on_disk_read_raises_once(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", f"disk=1,dir={tmp_path}")
        with pytest.raises(OSError, match="injected disk read error"):
            chaos.on_disk_read(tmp_path / "entry.run")
        chaos.on_disk_read(tmp_path / "entry.run")  # budget spent: no-op

    def test_on_disk_insert_flips_a_byte(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", f"corrupt=1,dir={tmp_path}")
        store = PackedDiskCache(tmp_path / "store", respect_env=False)
        # put_many fires the hook on the last entry it wrote.
        assert store.put_many([("first", 1), ("last", 2)]) == 2
        assert store.verify() == ["last"]
        chaos.on_disk_insert(store, "first")  # budget spent: no-op
        assert store.verify() == ["last"]

    def test_hooks_are_noops_without_chaos(self, tmp_path):
        entry = tmp_path / "entry.run"
        entry.write_bytes(b"payload")
        chaos.on_disk_read(entry)
        assert entry.read_bytes() == b"payload"


class TestChaosCheck:
    def test_converges_under_transient_disk_error(self):
        # One injected read error: the retry heals it, the report must
        # converge, and nothing may degrade to serial.
        report = chaos.run_chaos_check("disk=1", jobs=2, fast=True)
        names = {r.name: r.status for r in report.results}
        assert report.ok, report.render(verbose=True)
        assert names["chaos.report.identical"] == "pass"
        assert names["chaos.supervisor.no-degradation"] == "pass"
        # The error must actually fire (on the armed re-read from the
        # chaotic store) and be healed by the retry.
        assert names["chaos.injections.fired"] == "pass"
        assert names["chaos.diskcache.read-retried"] == "pass"
        assert names["chaos.report.reread-identical"] == "pass"
