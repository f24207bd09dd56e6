"""Tests for the perf-regression gate (:mod:`repro.obs.regress`)."""

from repro.obs.history import append_history, build_record, history_path
from repro.obs.regress import (
    classify_metric,
    render_regress,
    run_regress,
    time_rtol,
)


def _push(tmp_path, command="report", **metrics):
    record = build_record(
        command,
        [],
        session="s" * 12,
        exit_code=0,
        wall_seconds=metrics.pop("_wall", 1.0),
        metrics=metrics,
    )
    append_history(record, root=tmp_path)
    return record


def _regress(tmp_path, **kwargs):
    return run_regress(history_path(tmp_path), **kwargs)


class TestClassifyMetric:
    def test_classes(self):
        assert classify_metric("run.corner_turn.viram.cycles") == "exact"
        assert classify_metric("run.cslc.imagine.percent_of_peak") == "exact"
        assert classify_metric("report.wall_seconds") == "time"
        assert classify_metric("cold_report.seconds") == "time"
        assert classify_metric("cache.hits") == "info"

    def test_time_rtol_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_REGRESS_TIME_RTOL", "0.25")
        assert time_rtol() == 0.25
        monkeypatch.setenv("REPRO_REGRESS_TIME_RTOL", "bogus")
        assert time_rtol() == 0.5


class TestRunRegress:
    def test_empty_history_is_ok_but_noted(self, tmp_path):
        report = _regress(tmp_path)
        assert report.ok and report.exit_code == 0
        assert any("no history records" in n for n in report.notes)

    def test_identical_records_pass(self, tmp_path):
        metrics = {"run.corner_turn.viram.cycles": 1000.0}
        _push(tmp_path, **metrics)
        _push(tmp_path, **metrics)
        report = _regress(tmp_path)
        assert report.ok
        assert any(c.status == "ok" for c in report.comparisons)

    def test_exact_drift_fails_both_directions(self, tmp_path):
        _push(tmp_path, **{"run.corner_turn.viram.cycles": 1000.0})
        _push(tmp_path, **{"run.corner_turn.viram.cycles": 1010.0})
        report = _regress(tmp_path)
        assert not report.ok and report.exit_code == 1
        (bad,) = report.regressions
        assert bad.metric == "run.corner_turn.viram.cycles"
        assert "drifted" in bad.detail

        # A *faster* wrong number is still a wrong number.
        _push(tmp_path, **{"run.corner_turn.viram.cycles": 990.0})
        assert not _regress(tmp_path).ok

    def test_time_slowdown_fails_speedup_passes(self, tmp_path):
        _push(tmp_path, _wall=1.0)
        _push(tmp_path, _wall=2.0)  # +100% > default +50% tolerance
        report = _regress(tmp_path)
        (bad,) = report.regressions
        assert bad.metric == "report.wall_seconds"
        assert "slower" in bad.detail

        _push(tmp_path, _wall=0.1)  # big speedup: never a regression
        assert _regress(tmp_path).ok

    def test_exact_metric_disappearing_fails(self, tmp_path):
        _push(
            tmp_path,
            **{
                "run.corner_turn.viram.cycles": 1000.0,
                "run.cslc.viram.cycles": 2000.0,
            },
        )
        _push(tmp_path, **{"run.corner_turn.viram.cycles": 1000.0})
        report = _regress(tmp_path)
        (bad,) = report.regressions
        assert bad.metric == "run.cslc.viram.cycles"
        assert "disappeared" in bad.detail

    def test_command_filter(self, tmp_path):
        _push(tmp_path, command="report",
              **{"run.corner_turn.viram.cycles": 1000.0})
        _push(tmp_path, command="check",
              **{"run.corner_turn.viram.cycles": 5000.0})
        # Unfiltered the check record drifts against the report baseline;
        # filtered to `report` only the matching record is considered.
        assert not _regress(tmp_path).ok
        assert _regress(tmp_path, command="report").ok

    def test_median_baseline_shrugs_off_one_outlier(self, tmp_path):
        for wall in (1.0, 1.0, 50.0, 1.0):
            _push(tmp_path, _wall=wall)
        _push(tmp_path, _wall=1.2)  # vs median 1.0, within +50%
        assert _regress(tmp_path).ok


class TestRender:
    def test_pass_and_fail_verdicts(self, tmp_path):
        _push(tmp_path, **{"run.corner_turn.viram.cycles": 1000.0})
        _push(tmp_path, **{"run.corner_turn.viram.cycles": 1000.0})
        text = render_regress(_regress(tmp_path))
        assert text.splitlines()[0] == "metrics regression gate"
        assert text.splitlines()[-1] == "PASS: no regressions"

        _push(tmp_path, **{"run.corner_turn.viram.cycles": 2000.0})
        text = render_regress(_regress(tmp_path))
        assert "FAIL: 1 regression(s)" in text.splitlines()[-1]
        assert "[FAIL] run.corner_turn.viram.cycles" in text
