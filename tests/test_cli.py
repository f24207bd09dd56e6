"""Tests for :mod:`repro.cli`."""

import json

import pytest

from repro.cli import _parse_option, main


class TestParseOption:
    def test_bool(self):
        assert _parse_option("balanced=false") == ("balanced", False)
        assert _parse_option("x=True") == ("x", True)

    def test_int_and_float(self):
        assert _parse_option("seed=3") == ("seed", 3)
        assert _parse_option("f=1.5") == ("f", 1.5)

    def test_string(self):
        assert _parse_option("mode=fast") == ("mode", "fast")

    def test_missing_equals(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_option("oops")


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "corner_turn" in out
        assert "viram" in out

    def test_experiments(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out
        assert "figure8" in out

    def test_run(self, capsys):
        assert main(["run", "corner_turn", "raw"]) == 0
        out = capsys.readouterr().out
        assert "corner_turn on Raw" in out
        assert "functional check: ok" in out

    def test_run_with_option(self, capsys):
        assert main(
            ["run", "cslc", "raw", "--option", "balanced=false"]
        ) == 0
        out = capsys.readouterr().out
        assert "load-imbalance idle" in out

    def test_run_unknown_kernel_exits_nonzero(self, capsys):
        assert main(["run", "matmul3d", "raw"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--max-entries", "--max-bytes"])
    def test_cache_prune_rejects_negative_caps(self, capsys, flag):
        from repro.perf.diskcache import DISK_CACHE

        DISK_CACHE.put_many([(f"neg{i:03d}", {"cell": i}) for i in range(3)])
        assert main(["cache", "prune", flag, "-1"]) == 1
        name = flag[2:].replace("-", "_")
        err = capsys.readouterr().err
        assert f"error: {name} must be >= 0, got -1" in err
        assert len(DISK_CACHE) == 3

    def test_cache_migrate_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            main(["cache", "migrate"])

    def test_table(self, capsys):
        assert main(["table", "1"]) == 0
        assert "Peak throughput" in capsys.readouterr().out

    def test_table_rejects_bad_number(self):
        with pytest.raises(SystemExit):
            main(["table", "7"])

    def test_figure(self, capsys):
        assert main(["figure", "8"]) == 0
        assert "log scale" in capsys.readouterr().out

    def test_run_json(self, capsys):
        assert main(["run", "corner_turn", "viram", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["kernel"] == "corner_turn"
        assert record["machine"] == "viram"
        assert record["cycles"] > 0
        assert record["config_hash"]
        assert record["functional_ok"] is True

    def test_run_trace_writes_chrome_json(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        assert (
            main(["run", "corner_turn", "viram", "--trace", str(path)]) == 0
        )
        captured = capsys.readouterr()
        assert "corner_turn on VIRAM" in captured.out
        assert str(path) in captured.err
        doc = json.loads(path.read_text())
        assert any(e.get("ph") == "X" for e in doc["traceEvents"])

    def test_trace_chrome_format(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        assert main(["trace", "corner_turn", "viram", "-o", str(path)]) == 0
        doc = json.loads(path.read_text())
        spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert spans
        assert doc["otherData"]["runs"][0]["kernel"] == "corner_turn"

    def test_trace_chrome_to_stdout(self, capsys):
        assert main(["trace", "beam_steering", "ppc"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "traceEvents" in doc

    def test_trace_svg_format(self, capsys, tmp_path):
        path = tmp_path / "timeline.svg"
        assert (
            main(
                [
                    "trace",
                    "corner_turn",
                    "viram",
                    "--format",
                    "svg",
                    "-o",
                    str(path),
                ]
            )
            == 0
        )
        text = path.read_text()
        assert text.startswith("<svg")
        assert 'data-track="accounting/' in text

    def test_trace_jsonl_format(self, capsys):
        assert (
            main(["trace", "corner_turn", "viram", "--format", "jsonl"]) == 0
        )
        record = json.loads(capsys.readouterr().out)
        assert record["schema"] == "repro-metrics/1"
        assert record["kernel"] == "corner_turn"
        assert record["trace_counters"]["trace.runs"] == 1.0

    def test_trace_with_option(self, capsys):
        assert (
            main(
                [
                    "trace",
                    "cslc",
                    "raw",
                    "--format",
                    "jsonl",
                    "--option",
                    "balanced=false",
                ]
            )
            == 0
        )
        record = json.loads(capsys.readouterr().out)
        assert record["machine"] == "raw"

    def test_trace_unknown_kernel_exits_nonzero(self, capsys):
        assert main(["trace", "matmul3d", "raw"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_module_entry_point(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0
        assert "beam_steering" in result.stdout


class TestObservabilityCommands:
    def _obs_root(self):
        import os
        from pathlib import Path

        return Path(os.environ["REPRO_OBS_DIR"])

    def test_session_commands_leave_ledger_and_history(self, capsys):
        from repro.ioutil import read_log
        from repro.obs.history import read_history

        assert main(["run", "corner_turn", "viram"]) == 0
        capsys.readouterr()

        ledgers = sorted(self._obs_root().glob("ledger/*.jsonl"))
        assert len(ledgers) == 1
        events, corrupt, _end = read_log(ledgers[0])
        assert not corrupt
        assert events[0]["kind"] == "session.start"
        assert events[0]["payload"]["command"] == "run"
        assert events[0]["payload"]["argv"] == ["run", "corner_turn", "viram"]
        assert events[-1]["kind"] == "session.end"
        assert events[-1]["payload"]["exit_code"] == 0

        records, corrupt = read_history(self._obs_root() / "history.jsonl")
        assert not corrupt
        assert len(records) == 1
        assert records[0]["command"] == "run"
        assert records[0]["metrics"]["run.wall_seconds"] > 0

    def test_failed_command_records_ledger_but_no_history(self, capsys):
        assert main(["run", "matmul3d", "raw"]) == 1
        capsys.readouterr()
        ledgers = sorted(self._obs_root().glob("ledger/*.jsonl"))
        assert len(ledgers) == 1  # the session is still witnessed
        assert not (self._obs_root() / "history.jsonl").exists()

    def test_non_session_commands_stay_unobserved(self, capsys):
        assert main(["list"]) == 0
        capsys.readouterr()
        assert not list(self._obs_root().glob("ledger/*.jsonl"))

    def test_obs_disabled_by_env(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "0")
        assert main(["run", "corner_turn", "viram"]) == 0
        capsys.readouterr()
        assert not self._obs_root().exists()

    def test_metrics_history_lists_appended_records(self, capsys):
        assert main(["run", "corner_turn", "viram"]) == 0
        capsys.readouterr()
        assert main(["metrics", "history"]) == 0
        out = capsys.readouterr().out
        assert "run" in out
        # The listing command itself must not have appended a record.
        from repro.obs.history import read_history

        records, _ = read_history(self._obs_root() / "history.jsonl")
        assert [r["command"] for r in records] == ["run"]

    def test_metrics_history_json_lines(self, capsys):
        assert main(["run", "corner_turn", "viram"]) == 0
        capsys.readouterr()
        assert main(["metrics", "history", "--json"]) == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        ]
        assert len(lines) == 1
        assert lines[0]["command"] == "run"

    def test_metrics_regress_empty_history_passes(self, capsys):
        assert main(["metrics", "regress"]) == 0
        out = capsys.readouterr().out
        assert "no history records" in out
        assert "PASS" in out

    def test_metrics_regress_detects_injected_drift(self, capsys):
        from repro.obs.history import (
            append_history,
            build_record,
            read_history,
        )

        # Two agreeing records, then one with a drifted exact metric.
        for cycles in (1000.0, 1000.0):
            append_history(
                build_record(
                    "report", [], session="a" * 12, exit_code=0,
                    wall_seconds=1.0,
                    metrics={"run.corner_turn.viram.cycles": cycles},
                )
            )
        assert main(["metrics", "regress"]) == 0
        capsys.readouterr()

        append_history(
            build_record(
                "report", [], session="b" * 12, exit_code=0,
                wall_seconds=1.0,
                metrics={"run.corner_turn.viram.cycles": 1010.0},
            )
        )
        assert main(["metrics", "regress"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "run.corner_turn.viram.cycles" in out
        # The listing/regress session itself appends no history record.
        records, _ = read_history()
        assert len(records) == 3

    def test_metrics_regress_json_payload(self, capsys, tmp_path, monkeypatch):
        from repro.obs.history import append_history, build_record

        monkeypatch.chdir(tmp_path)
        append_history(
            build_record(
                "report", [], session="a" * 12, exit_code=0,
                wall_seconds=1.0,
            )
        )
        assert main(["metrics", "regress", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert "comparisons" in payload

    def test_analyze_roofline_small(self, capsys):
        from repro.mappings import registry

        assert main(["analyze", "roofline", "--small"]) == 0
        out = capsys.readouterr().out
        assert "roofline attribution" in out
        for kernel, machine in registry.available():
            assert kernel in out and machine in out
        assert "pairs sit left of their ridge point" in out

    def test_analyze_roofline_json(self, capsys):
        from repro.mappings import registry

        assert main(["analyze", "roofline", "--small", "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == len(list(registry.available()))
        for record in records:
            assert 0.0 <= record["memory_fraction"] <= 1.0

    def test_analyze_roofline_html_dashboard(self, capsys, tmp_path):
        path = tmp_path / "dash.html"
        assert (
            main(["analyze", "roofline", "--small", "--html", str(path)])
            == 0
        )
        captured = capsys.readouterr()
        assert str(path) in captured.err
        text = path.read_text()
        assert text.startswith("<!DOCTYPE html>")
        assert "roofline" in text

    def test_pipeline_progress_jsonl_on_stderr_only(self, capsys):
        assert (
            main(
                ["pipeline", "fuzz", "--seed", "7", "--count", "5",
                 "--jobs", "1", "--progress", "jsonl"]
            )
            == 0
        )
        captured = capsys.readouterr()
        progress = [
            json.loads(line)
            for line in captured.err.splitlines()
            if line.strip().startswith("{")
        ]
        if progress:  # warm caches may leave nothing to narrate
            assert {"begin", "end"} <= {p["event"] for p in progress}
        # Progress must never leak onto stdout: the manifest/report text
        # must stay byte-identical whether or not progress is shown.
        assert not any(
            line.startswith('{"') for line in captured.out.splitlines()
        )

    def test_progress_rejects_unknown_mode(self, capsys):
        with pytest.raises(SystemExit):
            main(["report", "--progress", "loud"])


class TestFastStart:
    """The lazy-import fast path: observability-only commands must never
    pay the numpy/model import bill (the point of the PR 9 cold-start
    work).  Run in a subprocess so this test's own imports cannot
    contaminate ``sys.modules``."""

    _HEAVY = ("numpy", "repro.arch", "repro.kernels", "repro.mappings")

    def _assert_light(self, argv):
        import subprocess
        import sys

        code = (
            "import sys\n"
            "from repro.cli import main\n"
            f"rc = main({argv!r})\n"
            f"heavy = [m for m in {self._HEAVY!r} if m in sys.modules]\n"
            "if heavy:\n"
            "    print('heavy imports leaked:', heavy, file=sys.stderr)\n"
            "sys.exit(rc if rc else (2 if heavy else 0))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr

    def test_cache_stats_imports_no_numpy(self):
        self._assert_light(["cache", "stats"])

    def test_cache_stats_json_imports_no_numpy(self):
        self._assert_light(["cache", "stats", "--json"])

    def test_metrics_regress_imports_no_numpy(self):
        self._assert_light(["metrics", "regress"])
