"""``repro metrics regress``: the continuous-benchmarking gate.

Compares the **current** evidence (the newest record in
``.repro/obs/history.jsonl``) against **prior history**: the median of
each metric over every earlier parseable history record (median, not
mean: one outlier run must not move the baseline).

Every metric gets a *class* that decides its tolerance band:

* ``exact`` — the deterministic model outputs
  (``run.<kernel>.<machine>.cycles`` / ``.percent_of_peak``).  These
  are pure functions of the model version; **any** drift beyond float
  noise (rtol 1e-9), in either direction, is a failure — a faster
  wrong number is still a wrong number.
* ``time`` — wall-clock metrics (``*_seconds``).  One-sided: only a
  slowdown beyond ``time_rtol`` (default 0.5, i.e. +50%, overridable
  via ``REPRO_REGRESS_TIME_RTOL``) fails.
* ``info`` — everything else (counts, ratios, cache stats): shown,
  never gated.

The gate exits non-zero iff at least one gated comparison regressed.
An empty history is not a failure (the gate runs after ``repro
report`` in CI, which guarantees a record) but is loudly reported.
Speed across commits is measured by the repository benchmark
(``bench/``), not here.
"""

from __future__ import annotations

import dataclasses
import os
import statistics
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.obs.history import history_path, read_history

__all__ = [
    "Comparison",
    "RegressReport",
    "classify_metric",
    "history_baselines",
    "render_regress",
    "run_regress",
]

#: Relative tolerance for ``exact`` metrics (float noise only).
EXACT_RTOL = 1e-9

def classify_metric(name: str) -> str:
    """``exact`` / ``time`` / ``info`` for one metric name."""
    if name.endswith(".cycles") or name.endswith(".percent_of_peak"):
        return "exact"
    if name.endswith("_seconds") or name.endswith(".seconds"):
        return "time"
    return "info"


def time_rtol() -> float:
    """The one-sided slowdown tolerance for ``time`` metrics."""
    try:
        return float(os.environ.get("REPRO_REGRESS_TIME_RTOL", "0.5"))
    except ValueError:
        return 0.5


@dataclasses.dataclass(frozen=True)
class Comparison:
    """One metric held against one baseline source."""

    metric: str
    metric_class: str
    current: Optional[float]
    baseline: float
    source: str
    #: ``ok`` / ``regressed`` / ``info``
    status: str
    detail: str = ""

    @property
    def gated(self) -> bool:
        return self.status in ("ok", "regressed")


@dataclasses.dataclass
class RegressReport:
    """Everything ``repro metrics regress`` concluded."""

    comparisons: List[Comparison]
    notes: List[str]
    current_session: Optional[str] = None
    current_command: Optional[str] = None

    @property
    def regressions(self) -> List[Comparison]:
        return [c for c in self.comparisons if c.status == "regressed"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1


def history_baselines(
    records: List[Dict[str, Any]]
) -> Dict[str, Tuple[float, int]]:
    """Per-metric ``(median, n_samples)`` over prior history records."""
    samples: Dict[str, List[float]] = {}
    for record in records:
        metrics = record.get("metrics")
        if not isinstance(metrics, Mapping):
            continue
        for name, value in metrics.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                samples.setdefault(name, []).append(float(value))
    return {
        name: (statistics.median(values), len(values))
        for name, values in samples.items()
    }


def _compare(
    metric: str,
    cls: str,
    current: Optional[float],
    baseline: float,
    source: str,
) -> Comparison:
    if current is None:
        if cls == "exact":
            return Comparison(
                metric, cls, None, baseline, source,
                "regressed", "metric disappeared from current record",
            )
        return Comparison(
            metric, cls, None, baseline, source,
            "info", "not in current record",
        )
    if cls == "exact":
        scale = max(abs(baseline), 1e-12)
        rel = abs(current - baseline) / scale
        if rel > EXACT_RTOL:
            return Comparison(
                metric, cls, current, baseline, source, "regressed",
                f"deterministic metric drifted (rel {rel:.3e})",
            )
        return Comparison(metric, cls, current, baseline, source, "ok")
    if cls == "time":
        rtol = time_rtol()
        if baseline > 0 and current > baseline * (1.0 + rtol):
            return Comparison(
                metric, cls, current, baseline, source, "regressed",
                f"slower than baseline by more than {rtol:.0%}",
            )
        return Comparison(metric, cls, current, baseline, source, "ok")
    return Comparison(metric, cls, current, baseline, source, "info")


def run_regress(
    path: Optional[Path] = None,
    *,
    command: Optional[str] = None,
) -> RegressReport:
    """Build the full regression report (pure; printing/exit is CLI)."""
    records, corrupt = read_history(
        path if path is not None else history_path()
    )
    notes: List[str] = []
    if corrupt:
        notes.append(f"{len(corrupt)} corrupt history line(s) ignored")
    if command is not None:
        records = [r for r in records if r.get("command") == command]
    if not records:
        notes.append(
            "no history records to compare "
            "(run `repro report` first); nothing gated"
        )
        return RegressReport([], notes)
    current = records[-1]
    prior = records[:-1]
    current_metrics: Dict[str, float] = {
        name: float(value)
        for name, value in (current.get("metrics") or {}).items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }
    if not prior:
        notes.append("no prior history records; history baselines empty")
    comparisons = [
        _compare(
            name, classify_metric(name), current_metrics.get(name), median,
            f"history(n={n})",
        )
        for name, (median, n) in sorted(history_baselines(prior).items())
    ]
    report = RegressReport(
        comparisons,
        notes,
        current_session=current.get("session"),
        current_command=current.get("command"),
    )
    from repro.obs.ledger import record as ledger_record

    ledger_record(
        "regress.report",
        gated=sum(1 for c in comparisons if c.gated),
        regressions=len(report.regressions),
        ok=report.ok,
    )
    return report


def render_regress(report: RegressReport) -> str:
    """The text ``repro metrics regress`` prints."""
    lines = ["metrics regression gate"]
    if report.current_session:
        lines.append(
            f"current: session {report.current_session} "
            f"(command: {report.current_command})"
        )
    for note in report.notes:
        lines.append(f"note: {note}")
    gated = [c for c in report.comparisons if c.gated]
    info = [c for c in report.comparisons if not c.gated]
    if gated:
        lines.append(f"gated comparisons ({len(gated)}):")
        for c in gated:
            mark = "FAIL" if c.status == "regressed" else "ok  "
            current = "missing" if c.current is None else f"{c.current:.6g}"
            lines.append(
                f"  [{mark}] {c.metric} ({c.metric_class}): "
                f"current={current} baseline={c.baseline:.6g} "
                f"[{c.source}]" + (f" — {c.detail}" if c.detail else "")
            )
    if info:
        lines.append(f"informational ({len(info)}):")
        for c in info:
            current = "missing" if c.current is None else f"{c.current:.6g}"
            lines.append(
                f"  [info] {c.metric}: current={current} "
                f"baseline={c.baseline:.6g} [{c.source}]"
                + (f" — {c.detail}" if c.detail else "")
            )
    verdict = (
        "PASS: no regressions"
        if report.ok
        else f"FAIL: {len(report.regressions)} regression(s)"
    )
    lines.append(verdict)
    return "\n".join(lines)
