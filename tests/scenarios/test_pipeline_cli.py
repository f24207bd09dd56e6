"""CLI surface for ``repro pipeline run`` and ``repro pipeline fuzz``."""

import json
import re

import pytest

from repro.cli import main


class TestPipelineRun:
    def test_single_machine_report(self, capsys):
        assert main(["pipeline", "run", "--machine", "viram", "--small"]) == 0
        out = capsys.readouterr().out
        assert "== radar pipeline on VIRAM ==" in out
        assert "pipeline total:" in out
        assert out.count("stage ") == 3
        assert out.count("handoff:") == 2

    def test_all_machines_by_default(self, capsys):
        assert main(["pipeline", "run", "--small"]) == 0
        out = capsys.readouterr().out
        for name in ("PPC", "Altivec", "VIRAM", "Imagine", "Raw"):
            assert f"== radar pipeline on {name} ==" in out

    def test_json_records(self, capsys):
        assert (
            main(
                ["pipeline", "run", "--machine", "raw", "--small", "--json"]
            )
            == 0
        )
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 1
        record = records[0]
        assert record["machine"] == "raw"
        assert [s["kernel"] for s in record["stages"]] == [
            "corner_turn",
            "cslc",
            "beam_steering",
        ]
        assert record["total_cycles"] == pytest.approx(
            record["stage_cycles"] + record["handoff_cycles"]
        )

    def test_unknown_machine_fails(self, capsys):
        assert main(["pipeline", "run", "--machine", "upmem"]) == 1
        assert "unknown machine" in capsys.readouterr().err

    def test_seed_flag_changes_the_scenario_id(self, capsys):
        main(["pipeline", "run", "--machine", "ppc", "--small", "--json"])
        base = json.loads(capsys.readouterr().out)[0]["scenario_id"]
        main(
            [
                "pipeline", "run", "--machine", "ppc", "--small",
                "--json", "--seed", "5",
            ]
        )
        seeded = json.loads(capsys.readouterr().out)[0]["scenario_id"]
        assert seeded != base


class TestPipelineFuzz:
    def test_summary_line_and_exit_code(self, capsys):
        assert (
            main(
                [
                    "pipeline", "fuzz", "--seed", "11", "--count", "6",
                    "--machines", "viram,raw",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "pipeline fuzz: 6 scenarios (seed 11)" in out
        assert "0 invariant violations" in out

    def test_manifest_is_deterministic_across_invocations(
        self, capsys, tmp_path
    ):
        args = ["pipeline", "fuzz", "--seed", "7", "--count", "5", "--json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

        manifest = json.loads(first)
        assert manifest["schema"] == 1
        assert manifest["seed"] == 7
        assert manifest["count"] == 5
        assert manifest["violation_count"] == 0
        assert len(manifest["scenarios"]) == 5
        for record in manifest["scenarios"]:
            assert record["violations"] == []
            assert record["total_cycles"] > 0

    def test_manifest_file_matches_stdout_json(self, capsys, tmp_path):
        path = tmp_path / "manifest.json"
        assert (
            main(
                [
                    "pipeline", "fuzz", "--seed", "2", "--count", "4",
                    "--machines", "ppc", "--json", "--manifest", str(path),
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert path.read_text() == captured.out
        assert f"manifest -> {path}" in captured.err

    def test_unknown_machine_fails(self, capsys):
        assert (
            main(["pipeline", "fuzz", "--machines", "upmem", "--count", "1"])
            == 1
        )
        assert "unknown machine" in capsys.readouterr().err

    def test_zero_count_is_a_clean_noop(self, capsys):
        assert main(["pipeline", "fuzz", "--count", "0"]) == 0
        assert "0 scenarios" in capsys.readouterr().out

    def test_perf_flag_prints_scenario_stats(self, capsys):
        from repro.scenarios.stats import SCENARIO_STATS

        # A scope, so only this command's pipelines are counted.
        with SCENARIO_STATS.scoped():
            assert (
                main(
                    [
                        "pipeline", "fuzz", "--seed", "1", "--count", "2",
                        "--machines", "altivec", "--perf",
                    ]
                )
                == 0
            )
        err = capsys.readouterr().err
        assert "\nscenario:\n" in err
        assert re.search(r"scenario\.pipelines +2\n", err)
        assert re.search(r"scenario\.fuzz\.generated +2\n", err)
