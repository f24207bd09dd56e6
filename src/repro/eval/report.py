"""Run every registered experiment and assemble the full report.

The report is the paper-vs-measured record: every table, figure, §4
breakdown and what-if ablation, each with its quantitative checks (one
line per row of :data:`repro.eval.experiments.CLAIMS`) and model/paper
ratios.  EXPERIMENTS.md is a snapshot of this output.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.eval.experiments import EXPERIMENTS, ExperimentResult, prewarm
from repro.eval.tables import run_table3


def full_report(
    workloads: Optional[Dict[str, object]] = None,
    jobs: Optional[int] = None,
    validate: bool = True,
    metrics_path: Optional[str] = None,
    sensitivity_points: Optional[int] = None,
) -> str:
    """Run all experiments (sharing one Table 3 sweep) and render them.

    ``jobs > 1`` prewarms the run cache on a process pool first; the
    experiments then render from cache hits, so the report text is
    byte-identical to a serial run.

    Unless ``validate=False``, the report ends with the fast tier of
    ``repro check`` run over the very results just rendered — every
    published table ships pre-validated against the §2.5 bounds,
    footprints, and differential oracles.

    ``metrics_path`` additionally writes the JSON-lines metrics manifest
    (one record per Table 3 run, with config hashes) as a side effect;
    the report text is unaffected.

    ``sensitivity_points`` (CLI: ``repro report --density N``) appends a
    calibration-sensitivity section with ``N`` perturbation magnitudes
    per constant side; the dense grid collapses into tensor batches
    (:mod:`repro.perf.tensorsweep`), so even ``N=100`` adds only a few
    structure passes.  ``None`` (the default) leaves the report text
    unchanged.
    """
    from repro.perf.planner import resolve_jobs

    if resolve_jobs(jobs) > 1:
        prewarm(workloads, jobs=jobs)
    results = run_table3(workloads)
    if metrics_path is not None:
        from repro.trace.export import write_metrics_manifest

        write_metrics_manifest(metrics_path, results, workloads)
    sections = []
    for experiment_id, fn in EXPERIMENTS.items():
        outcome: ExperimentResult = fn(results=results, workloads=workloads)
        lines = [f"== {outcome.title} =="]
        lines.append(outcome.rendered)
        if outcome.checks:
            lines.append("")
            lines.append("checks (model vs paper):")
            for name, (model, paper) in outcome.checks.items():
                ratio = f"{model / paper:6.2f}x" if paper else "   n/a"
                lines.append(
                    f"  {name:40s} model={model:12.4g} paper={paper:12.4g} "
                    f"ratio={ratio}"
                )
        sections.append("\n".join(lines))
    if sensitivity_points is not None:
        from repro.eval import sensitivity

        rows = sensitivity.sweep(
            workloads=workloads, jobs=jobs, points=int(sensitivity_points)
        )
        sections.append(
            "== Calibration sensitivity ==\n" + sensitivity.render(rows)
        )
    if validate:
        from repro.check import validation_section

        sections.append(
            "== Validation (repro check --fast) ==\n"
            + validation_section(workloads)
        )
    return "\n\n".join(sections)
