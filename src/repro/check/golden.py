"""Golden-fixture generation for the snapshot tests.

The snapshot tests (``tests/eval/test_golden_snapshots.py``) pin the
``repro report`` stdout, the ``eval/export`` CSV, the Figure 8/9 SVGs,
the canonical pipeline renders, a dense sensitivity sweep, the digest
of every mapping's functional output and every corner-turn record of
the §4.6 size sweep byte-for-byte against fixtures under
``tests/data/golden/``.  This module is the one sanctioned way to
regenerate them::

    make refresh-golden
    # equivalently:
    PYTHONPATH=src python -m repro.check.golden tests/data/golden

Regeneration is a deliberate act: do it only when an output change is
intentional, and review the fixture diff like any other code change
(the regression-pin test's policy, extended to whole documents).
"""

from __future__ import annotations

import difflib
import sys
from pathlib import Path
from typing import Dict, List

#: Fixture file names under the golden directory.
REPORT_FIXTURE = "report.txt"
TABLE3_CSV_FIXTURE = "table3.csv"
PIPELINE_FIXTURE_TEMPLATE = "pipeline_{machine}.txt"
SENSITIVITY_FIXTURE = "sensitivity_points8.txt"
FUNCTIONAL_FIXTURE = "functional_digests.txt"
CORNER_TURN_FIXTURE = "corner_turn_records.txt"
FIGURE_FIXTURES = ("figure8.svg", "figure9.svg")

#: Seeds at which every mapping's functional output is pinned.
FUNCTIONAL_SEEDS = (0, 7)


def pipeline_fixture_names() -> Dict[str, str]:
    """``{fixture file name: machine}`` for the pipeline snapshots."""
    from repro.mappings.registry import MACHINES

    return {
        PIPELINE_FIXTURE_TEMPLATE.format(machine=machine): machine
        for machine in MACHINES
    }


def functional_digests() -> str:
    """One line per registered (kernel, machine) and seed in
    :data:`FUNCTIONAL_SEEDS`: the mapping's ``functional_ok`` and the
    content digest of its output array (``run(..., cache=False)``).

    The cycle goldens cannot see a changed bit in a functional output;
    this document can.
    """
    from repro.mappings.registry import available, run
    from repro.perf.cache import content_digest

    lines = []
    for kernel, machine in available():
        for seed in FUNCTIONAL_SEEDS:
            result = run(kernel, machine, seed=seed, cache=False)
            lines.append(
                f"{kernel} {machine} seed={seed} "
                f"functional_ok={result.functional_ok} "
                f"output={content_digest(result.output)}"
            )
    return "\n".join(lines) + "\n"


def corner_turn_records() -> str:
    """One line per corner-turn machine, §4.6 sweep size and seed in
    :data:`FUNCTIONAL_SEEDS`, plus Imagine's ``via_network_port`` cell
    at each size (seed 0): the ``repr`` of the cycles, the breakdown
    items and the metrics, ``functional_ok`` and the output digest of
    ``run(..., cache=False)``.

    ``report.txt`` prints the sweep's totals only; this pins the
    per-run counts behind them (DRAM activations, TLB misses, write-row
    activations) at every size, where the address streams are longest.
    """
    from repro.eval.scaling import DEFAULT_SIZES
    from repro.kernels.corner_turn import CornerTurnWorkload
    from repro.mappings.registry import available, run
    from repro.perf.cache import content_digest

    machines = [m for k, m in available() if k == "corner_turn"]
    cells = []
    for size in DEFAULT_SIZES:
        workload = CornerTurnWorkload(rows=size, cols=size)
        for machine in machines:
            for seed in FUNCTIONAL_SEEDS:
                cells.append((
                    f"{machine} {size} seed={seed}",
                    machine,
                    {"workload": workload, "seed": seed},
                ))
        cells.append((
            f"imagine {size} seed=0 via_network_port",
            "imagine",
            {"workload": workload, "via_network_port": True},
        ))
    lines = []
    for label, machine, kwargs in cells:
        result = run("corner_turn", machine, cache=False, **kwargs)
        lines.append(
            f"{label} cycles={result.cycles!r} "
            f"breakdown={result.breakdown.items()!r} "
            f"metrics={result.metrics!r} "
            f"functional_ok={result.functional_ok} "
            f"output={content_digest(result.output)}"
        )
    return "\n".join(lines) + "\n"


def golden_documents() -> Dict[str, str]:
    """Every golden document, keyed by fixture file name.

    Uses the canonical workloads — exactly what ``python -m repro
    report`` prints, ``eval/export.write_csv`` and
    ``eval/svg.write_figures`` write, ``repro pipeline run`` renders per
    machine, and ``repro sensitivity --points 8 --delta 0.25`` prints.
    """
    from repro.eval import sensitivity
    from repro.eval.export import table3_csv
    from repro.eval.report import full_report
    from repro.eval.svg import figure_svgs
    from repro.eval.tables import run_table3
    from repro.scenarios import (
        canonical_scenario,
        render_pipeline,
        run_pipeline,
    )

    results = run_table3()
    documents = {
        REPORT_FIXTURE: full_report() + "\n",
        TABLE3_CSV_FIXTURE: table3_csv(results),
        **figure_svgs(results),
    }
    for name, machine in pipeline_fixture_names().items():
        prun = run_pipeline(canonical_scenario(machine))
        documents[name] = render_pipeline(prun) + "\n"
    # A dense grid: every column of it is one tensor batch.
    rows = sensitivity.sweep(delta=0.25, points=8)
    documents[SENSITIVITY_FIXTURE] = sensitivity.render(rows) + "\n"
    documents[FUNCTIONAL_FIXTURE] = functional_digests()
    documents[CORNER_TURN_FIXTURE] = corner_turn_records()
    return documents


def write_golden(directory: Path) -> List[Path]:
    """Write every golden document under ``directory``; returns paths.

    Writes are atomic (temp file + rename), so an interrupted refresh
    can never leave a half-written fixture to confuse the next diff.
    """
    from repro.ioutil import atomic_write_text

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, text in golden_documents().items():
        path = directory / name
        atomic_write_text(path, text)
        written.append(path)
    return written


def diff_against_golden(name: str, actual: str, directory: Path) -> str:
    """Unified diff of ``actual`` vs the checked-in fixture ``name``.

    Empty string means they match.  A non-empty diff is the snapshot
    test's failure message, with the refresh instruction attached.
    """
    path = Path(directory) / name
    if not path.exists():
        return (
            f"golden fixture {path} is missing — "
            "run `make refresh-golden` and commit the result"
        )
    expected = path.read_text()
    if actual == expected:
        return ""
    diff = "".join(
        difflib.unified_diff(
            expected.splitlines(keepends=True),
            actual.splitlines(keepends=True),
            fromfile=f"golden/{name} (checked in)",
            tofile=f"{name} (current output)",
        )
    )
    return (
        f"{name} drifted from its golden fixture.\n{diff}\n"
        "If this change is intentional, run `make refresh-golden` and "
        "commit the updated fixture."
    )


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    directory = Path(argv[0]) if argv else Path("tests/data/golden")
    for path in write_golden(directory):
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via Makefile
    raise SystemExit(main())
