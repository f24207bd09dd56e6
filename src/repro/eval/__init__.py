"""Evaluation harness: regenerate every table and figure of §4.

* :mod:`repro.eval.speedup` — Figure 8/9 speedup computations.
* :mod:`repro.eval.tables` — text renderings of Tables 1-4 with
  paper-vs-model comparison columns.
* :mod:`repro.eval.figures` — terminal log-scale bar charts for the
  figures.
* :mod:`repro.eval.experiments` — the experiment registry (one entry per
  table, figure, §4 breakdown, and what-if ablation) and ``CLAIMS``,
  the one statement of each paper value and its band.
* :mod:`repro.eval.report` — run everything and produce the full
  paper-vs-measured report.
* :mod:`repro.eval.scaling` — the §4.6 capacity-crossover sweep.
* :mod:`repro.eval.sensitivity` — calibration elasticity analysis.
* :mod:`repro.eval.export` — JSON export of runs and experiments.
* :mod:`repro.eval.svg` — SVG renderings of Figures 8/9.
"""

from repro.eval.experiments import EXPERIMENTS, ExperimentResult, run_experiment
from repro.eval.export import full_document, write_json
from repro.eval.report import full_report
from repro.eval.scaling import corner_turn_scaling, crossover_summary
from repro.eval.sensitivity import sweep as sensitivity_sweep
from repro.eval.speedup import speedup_cycles, speedup_time
from repro.eval.tables import PAPER_TABLE3, run_table3

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "PAPER_TABLE3",
    "corner_turn_scaling",
    "crossover_summary",
    "full_document",
    "full_report",
    "run_experiment",
    "run_table3",
    "sensitivity_sweep",
    "speedup_cycles",
    "speedup_time",
    "write_json",
]
