"""Tests for the ``repro doctor`` health-probe battery."""

from __future__ import annotations

import pytest

from repro.perf.diskcache import DISK_CACHE
from repro.resilience.doctor import (
    FAIL,
    PASS,
    WARN,
    ProbeResult,
    exit_code,
    probe_disk_cache_verify,
    probe_quarantine,
    render_doctor,
    run_doctor,
)


def _status(results, name):
    (match,) = [r for r in results if r.name == name]
    return match


class TestHealthyEnvironment:
    def test_full_battery_passes(self):
        results = run_doctor()
        assert exit_code(results) == 0
        statuses = {r.name: r.status for r in results}
        # Pool spawn may legitimately WARN in constrained sandboxes;
        # everything else must pass outright on a healthy store.
        for name in (
            "probe.disk-cache-rw",
            "probe.disk-cache-verify",
            "probe.lock",
            "probe.quarantine",
            "probe.telemetry",
            "probe.obs",
        ):
            assert statuses[name] == PASS, render_doctor(results)
        assert statuses["probe.pool-spawn"] in (PASS, WARN)
        assert "verdict: HEALTHY" in render_doctor(results)

    def test_probe_leaves_no_residue_in_store(self):
        keys_before = set(DISK_CACHE.keys())
        run_doctor()
        assert set(DISK_CACHE.keys()) == keys_before


class TestUnhealthyEnvironment:
    def test_corrupt_store_fails_verify_probe(self):
        key = "cafef00d" * 8
        DISK_CACHE.insert(key, {"v": 1})
        DISK_CACHE.corrupt_bytes(key)
        result = probe_disk_cache_verify()
        assert result.status == FAIL
        assert key[:12] in result.detail

    def test_verify_failure_names_a_remedy_that_works(self, capsys):
        from repro.cli import main

        key = "cafef00d" * 8
        DISK_CACHE.insert(key, {"v": 1})
        DISK_CACHE.corrupt_bytes(key)
        result = probe_disk_cache_verify()
        assert result.status == FAIL
        assert "`repro cache clear`" in result.detail
        assert "prune" not in result.detail
        assert main(["cache", "clear"]) == 0
        assert probe_disk_cache_verify().status == PASS

    def test_corrupt_store_makes_doctor_exit_nonzero(self):
        key = "cafef00d" * 8
        DISK_CACHE.insert(key, {"v": 1})
        DISK_CACHE.corrupt_bytes(key)
        results = run_doctor()
        assert exit_code(results) == 2
        rendered = render_doctor(results)
        assert "verdict: UNHEALTHY" in rendered
        assert "probe.disk-cache-verify" in rendered.rsplit("verdict", 1)[1]

    def test_quarantined_entries_warn_not_fail(self):
        key = "cafef00d" * 8
        DISK_CACHE.insert(key, {"v": 1})
        DISK_CACHE.corrupt_bytes(key)
        assert DISK_CACHE.lookup(key) is None  # heals: moves to quarantine
        result = probe_quarantine()
        assert result.status == WARN
        assert "kept for forensics" in result.detail
        assert exit_code(run_doctor()) == 0

    def test_crashing_probe_becomes_fail_row(self, monkeypatch):
        import repro.resilience.doctor as doctor_mod

        def exploding():
            raise RuntimeError("probe went sideways")

        monkeypatch.setattr(
            doctor_mod, "PROBES", (("exploding", exploding),)
        )
        results = run_doctor()
        assert results == [
            ProbeResult(
                "probe.exploding", FAIL,
                "probe crashed: RuntimeError: probe went sideways",
            )
        ]
        assert exit_code(results) == 2


class TestObsProbe:
    def test_healthy_layer_passes(self):
        from repro.obs.history import append_history, build_record
        from repro.resilience.doctor import probe_obs

        append_history(
            build_record(
                "report", [], session="a" * 12, exit_code=0, wall_seconds=1.0
            )
        )
        result = probe_obs()
        assert result.status == PASS
        assert "1 history record(s) parseable" in result.detail

    def test_disabled_layer_warns(self, monkeypatch):
        from repro.resilience.doctor import probe_obs

        monkeypatch.setenv("REPRO_OBS", "0")
        result = probe_obs()
        assert result.status == WARN
        assert "REPRO_OBS=0" in result.detail

    def test_unwritable_ledger_dir_fails(self, tmp_path, monkeypatch):
        from repro.resilience.doctor import probe_obs

        blocker = tmp_path / "obs-as-file"
        blocker.write_text("in the way")
        monkeypatch.setenv("REPRO_OBS_DIR", str(blocker))
        result = probe_obs()
        assert result.status == FAIL
        assert "ledger dir not writable" in result.detail

    def test_corrupt_history_line_quarantined_not_trusted(self):
        from repro.obs.history import (
            append_history,
            build_record,
            history_path,
            read_history,
        )
        from repro.resilience.doctor import probe_obs

        path = history_path()
        append_history(
            build_record(
                "report", [], session="a" * 12, exit_code=0, wall_seconds=1.0
            )
        )
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"torn": ')
        result = probe_obs()
        assert result.status == WARN
        assert "quarantined" in result.detail
        # The probe healed the file: a re-read is clean, and the torn
        # line survives as forensic evidence next to it.
        records, corrupt = read_history(path)
        assert len(records) == 1 and not corrupt
        assert path.with_suffix(".quarantine").exists()
