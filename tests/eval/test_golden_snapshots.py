"""Golden snapshot tests: the published outputs are pinned byte-for-byte.

``repro report`` stdout, the Table 3 CSV export, the Figure 8/9 SVGs,
the pipeline renders, a dense ``repro sensitivity`` sweep, the digests
of every mapping's functional output and the corner-turn records of the
§4.6 size sweep are compared against checked-in fixtures under
``tests/data/golden/``.
Any drift — a changed constant, a reordered section, a float formatting
change — fails with a unified diff.  Intentional changes are re-pinned with
``make refresh-golden`` and the fixture diff is reviewed like code.
"""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.check.golden import (
    CORNER_TURN_FIXTURE,
    FIGURE_FIXTURES,
    FUNCTIONAL_FIXTURE,
    REPORT_FIXTURE,
    SENSITIVITY_FIXTURE,
    TABLE3_CSV_FIXTURE,
    diff_against_golden,
    golden_documents,
    pipeline_fixture_names,
    write_golden,
)
from repro.eval.export import CSV_COLUMNS

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "data" / "golden"


@pytest.fixture(scope="module")
def documents():
    return golden_documents()


class TestSnapshots:
    def test_report_matches_golden(self, documents):
        diff = diff_against_golden(
            REPORT_FIXTURE, documents[REPORT_FIXTURE], GOLDEN_DIR
        )
        assert not diff, diff

    def test_table3_csv_matches_golden(self, documents):
        diff = diff_against_golden(
            TABLE3_CSV_FIXTURE, documents[TABLE3_CSV_FIXTURE], GOLDEN_DIR
        )
        assert not diff, diff

    def test_figures_match_golden(self, documents):
        # The Figure 8/9 SVGs: model bars and the paper ticks that the
        # claims table states.
        for name in FIGURE_FIXTURES:
            diff = diff_against_golden(name, documents[name], GOLDEN_DIR)
            assert not diff, diff

    def test_pipeline_reports_match_golden(self, documents):
        # One canonical three-stage pipeline snapshot per machine.
        names = pipeline_fixture_names()
        assert len(names) == 5
        for name in names:
            diff = diff_against_golden(name, documents[name], GOLDEN_DIR)
            assert not diff, diff

    def test_dense_sensitivity_matches_golden(self, documents):
        # Every column of the 8-point grid is one tensor batch, so this
        # pins the batched evaluation of every mapping (the Imagine
        # schedule replay included) to the bytes the CLI prints.
        diff = diff_against_golden(
            SENSITIVITY_FIXTURE, documents[SENSITIVITY_FIXTURE], GOLDEN_DIR
        )
        assert not diff, diff

    def test_functional_outputs_match_golden(self, documents):
        # A changed bit in any mapping's output array (an FFT, a weight
        # solve, a corner-turn copy) changes its digest here, even when
        # every cycle count and the allclose checks still hold.
        diff = diff_against_golden(
            FUNCTIONAL_FIXTURE, documents[FUNCTIONAL_FIXTURE], GOLDEN_DIR
        )
        assert not diff, diff

    def test_corner_turn_records_match_golden(self, documents):
        # The per-run counts behind the §4.6 totals (DRAM activations,
        # TLB misses, write-row activations) at every sweep size, where
        # the VIRAM and Imagine address streams are megawords long.
        diff = diff_against_golden(
            CORNER_TURN_FIXTURE, documents[CORNER_TURN_FIXTURE], GOLDEN_DIR
        )
        assert not diff, diff

    def test_pipeline_fixture_content(self, documents):
        for name, machine in pipeline_fixture_names().items():
            text = documents[name]
            assert "== radar pipeline on " in text
            assert "pipeline total:" in text
            # Three stages, two priced handoffs between them.
            assert text.count("stage ") == 3
            assert text.count("handoff:") == 2

    def test_report_command_prints_the_fixture(self, documents, tmp_path):
        # The fixture pins what the user-facing command actually emits,
        # cold and then warm.  The subprocesses get their own disk-cache
        # dir: the snapshot must hold cold, not be inherited from
        # another test's warm tier.
        # Its flight-recorder session goes to the test's dir too, not
        # the checkout's ``.repro/obs``.
        env = {
            "PYTHONPATH": "src",
            "PATH": "/usr/bin:/bin",
            "REPRO_DISK_CACHE_DIR": str(tmp_path / "diskcache"),
            "REPRO_OBS_DIR": str(tmp_path / "obs"),
        }
        # Bytecode the run leaves under src/ would speed up every later
        # fresh process, so honour a caller's request not to write it.
        if "PYTHONDONTWRITEBYTECODE" in os.environ:
            env["PYTHONDONTWRITEBYTECODE"] = os.environ[
                "PYTHONDONTWRITEBYTECODE"
            ]

        def report():
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "report"],
                capture_output=True,
                text=True,
                env=env,
                cwd=str(GOLDEN_DIR.parents[2]),
                check=True,
            )
            history = (tmp_path / "obs" / "history.jsonl").read_text()
            record = json.loads(history.splitlines()[-1])
            return proc.stdout, record["telemetry"]

        stdout, telemetry = report()
        assert stdout == documents[REPORT_FIXTURE]

        # A report on a healthy store records nothing that did not
        # happen to it: the embedded checks stage a quarantine, service
        # jobs, pipelines and planned sweeps, each in its own scope.
        assert telemetry["resilience.degradations"] == 0
        assert telemetry["resilience.last_degradation_reason"] == ""
        assert telemetry["resilience.quarantined"] == 0
        service = {k: v for k, v in telemetry.items()
                   if k.startswith("service.")}
        assert service and not any(service.values()), service
        assert telemetry["scenario.pipelines"] == 0
        assert telemetry["perf.diskcache.writes"] >= 15
        # Each executed cell reads the store once: a cold report misses
        # exactly the entries it writes.
        assert (telemetry["perf.diskcache.misses"]
                == telemetry["perf.diskcache.writes"])
        # The report's own two sweeps request 24 cells and batch none.
        assert telemetry["perf.timers.counters.planner.requests"] == 24
        assert telemetry["perf.tensor.batched_cells"] == 0

        # Its ledger holds the same story, and nothing staged.
        (ledger,) = (tmp_path / "obs" / "ledger").glob("*.jsonl")
        events = [json.loads(line) for line in ledger.read_text().splitlines()]
        assert [e["seq"] for e in events] == list(range(len(events)))
        assert not [e for e in events
                    if e["kind"].split(".")[0] in ("service", "pipeline")]
        assert sum(e["payload"]["requests"] for e in events
                   if e["kind"] == "sweep.plan") == 24

        # The warm twin: a second process on the same store prints the
        # same bytes, served entirely by the disk tier.
        stdout, telemetry = report()
        assert stdout == documents[REPORT_FIXTURE]
        assert telemetry["perf.diskcache.misses"] == 0
        assert telemetry["perf.diskcache.writes"] == 0
        assert telemetry["perf.diskcache.corrupt"] == 0
        assert telemetry["perf.diskcache.hits"] >= 15


class TestCsvShape:
    def test_header_and_row_count(self):
        reader = csv.reader(
            io.StringIO((GOLDEN_DIR / TABLE3_CSV_FIXTURE).read_text())
        )
        rows = list(reader)
        assert rows[0] == list(CSV_COLUMNS)
        # 3 kernels x 5 machines
        assert len(rows) == 1 + 15

    def test_floats_reparse_exactly(self):
        from repro.eval.tables import run_table3

        results = run_table3()
        text = (GOLDEN_DIR / TABLE3_CSV_FIXTURE).read_text()
        by_pair = {}
        for row in csv.DictReader(io.StringIO(text)):
            by_pair[(row["kernel"], row["machine"])] = row
        for (kernel, machine), run in results.items():
            assert float(by_pair[(kernel, machine)]["cycles"]) == run.cycles


class TestDiffMachinery:
    def test_drift_produces_unified_diff(self, documents, tmp_path):
        write_golden(tmp_path)
        tampered = documents[REPORT_FIXTURE].replace(
            "corner_turn", "corner_twist", 1
        )
        diff = diff_against_golden(REPORT_FIXTURE, tampered, tmp_path)
        assert "drifted from its golden fixture" in diff
        assert "--- golden/report.txt" in diff
        assert "corner_twist" in diff
        assert "make refresh-golden" in diff

    def test_missing_fixture_is_reported(self, tmp_path):
        diff = diff_against_golden(REPORT_FIXTURE, "anything", tmp_path)
        assert "missing" in diff
        assert "make refresh-golden" in diff

    def test_write_golden_round_trips(self, documents, tmp_path):
        paths = write_golden(tmp_path)
        expected = {
            REPORT_FIXTURE,
            TABLE3_CSV_FIXTURE,
            SENSITIVITY_FIXTURE,
            FUNCTIONAL_FIXTURE,
            CORNER_TURN_FIXTURE,
            *FIGURE_FIXTURES,
        }
        expected.update(pipeline_fixture_names())
        assert {p.name for p in paths} == expected
        for name in sorted(expected):
            assert diff_against_golden(name, documents[name], tmp_path) == ""
